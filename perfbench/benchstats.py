"""Arithmetic of the benchmark: percentiles, medians and span self time.

Kept apart from run.py so that test_benchstats.py can check it without
building or running anything.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise one outlier decides it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    pass


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p < 100).

    Refuses with TooFewSamples when fewer than MIN_TAIL_SAMPLES samples
    lie beyond the selected rank, so p90 needs at least 100 samples.
    """
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))  # 1-based
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it, needs %d"
            % (p, n, beyond, MIN_TAIL_SAMPLES))
    return sorted(values)[rank - 1]


def split_slices(values, counts):
    """Splits `values` into consecutive slices of the given sizes."""
    if sum(counts) != len(values):
        raise ValueError("slice counts %d != %d samples"
                         % (sum(counts), len(values)))
    slices, start = [], 0
    for n in counts:
        slices.append(values[start:start + n])
        start += n
    return slices


def median_over_slices(values, counts, statistic):
    """Median over the run's slices of `statistic` computed per slice.

    A burst of host noise that covers fewer than half of the slices does
    not move it. Each slice must satisfy `statistic` on its own (for a
    percentile, enough samples beyond it), or TooFewSamples is raised.
    """
    return median([statistic(s) for s in split_slices(values, counts)])


def median_of_reopens(reopen_ns):
    """Recovery time in seconds: the median of several reopens, each
    given in nanoseconds. One reopen is a one-shot timing, so at least
    three are required."""
    if len(reopen_ns) < 3:
        raise TooFewSamples("recovery needs at least 3 reopens, got %d"
                            % len(reopen_ns))
    return median(reopen_ns) / 1e9


def _covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    covered = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. Overlapping children are counted
    once; a child running past its parent counts only inside the parent.

    `spans` holds (id, parent, request, name, start_ns, end_ns) tuples;
    returns {id: self_ns}.
    """
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    result = {}
    for span_id, _, _, _, start, end in spans:
        result[span_id] = (end - start) - _covered(
            start, end, children.get(span_id, ()))
    return result


def self_times_by_name(spans):
    """{span name: [self_ns of each span with that name]}."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(own[span[0]])
    return by_name
