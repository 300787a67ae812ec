#include "engine/rule_graph.h"

#include <algorithm>

namespace park {

RuleDependencyGraph::RuleDependencyGraph(const Program& program) {
  const size_t n = program.size();
  stratum_.assign(n, 0);

  // Watcher index: invert each body over the polarity split of
  // engine/consequence.h. Rules arrive in ascending index order, so each
  // watcher list stays sorted; the back() check dedupes repeated literals
  // of one predicate within a body.
  auto watch = [](WatcherIndex& index, PredicateId pred, int rule) {
    std::vector<int>& list = index[pred];
    if (list.empty() || list.back() != rule) list.push_back(rule);
  };
  for (size_t r = 0; r < n; ++r) {
    const Rule& rule = program.rule(r);
    for (const BodyLiteral& lit : rule.body()) {
      switch (lit.kind) {
        case LiteralKind::kPositive:
        case LiteralKind::kEventInsert:
          watch(plus_watchers_, lit.atom.predicate, static_cast<int>(r));
          break;
        case LiteralKind::kNegated:
        case LiteralKind::kEventDelete:
          watch(minus_watchers_, lit.atom.predicate, static_cast<int>(r));
          break;
      }
    }
  }

  // Feed edges: rule r's head mark wakes exactly the watchers of its
  // polarity — the same wake-up Schedule() performs at runtime, so the
  // static graph and the dynamic scheduler can never disagree.
  std::vector<std::vector<int>> adj(n);
  heads_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    const RuleHead& head = program.rule(r).head();
    heads_.emplace_back(head.action, head.atom.predicate);
    const std::vector<int>& readers =
        head.action == ActionKind::kInsert
            ? Watchers(plus_watchers_, head.atom.predicate)
            : Watchers(minus_watchers_, head.atom.predicate);
    adj[r] = readers;  // already sorted + deduped
    num_edges_ += readers.size();
  }

  // Iterative Tarjan: components complete only after every component they
  // feed, so component ids descend along edges (comp[u] >= comp[v] for
  // u → v) and descending id order IS topological order.
  std::vector<int> comp(n, -1), low(n, 0), disc(n, -1);
  std::vector<int> stack;
  std::vector<char> on_stack(n, 0);
  struct Frame {
    int node;
    size_t next_edge;
  };
  std::vector<Frame> frames;
  int time = 0;
  int num_comps = 0;
  for (size_t root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    frames.push_back(Frame{static_cast<int>(root), 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      int v = f.node;
      if (f.next_edge == 0) {
        disc[v] = low[v] = time++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      bool descended = false;
      while (f.next_edge < adj[v].size()) {
        int w = adj[v][f.next_edge++];
        if (disc[w] == -1) {
          frames.push_back(Frame{w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], disc[w]);
      }
      if (descended) continue;
      if (low[v] == disc[v]) {
        for (;;) {
          int w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp[w] = num_comps;
          if (w == v) break;
        }
        ++num_comps;
      }
      frames.pop_back();
      if (!frames.empty()) {
        int parent = frames.back().node;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  num_sccs_ = static_cast<size_t>(num_comps);

  // Longest feed path per component; rules inherit their component's
  // level. Descending component id = topological order (see above).
  std::vector<std::vector<int>> comp_nodes(num_sccs_);
  for (size_t r = 0; r < n; ++r) {
    comp_nodes[static_cast<size_t>(comp[r])].push_back(static_cast<int>(r));
  }
  std::vector<int> level(num_sccs_, 0);
  for (size_t cid = num_sccs_; cid-- > 0;) {
    for (int v : comp_nodes[cid]) {
      for (int w : adj[static_cast<size_t>(v)]) {
        size_t target = static_cast<size_t>(comp[w]);
        if (target == cid) continue;  // intra-SCC edge
        level[target] = std::max(level[target], level[cid] + 1);
      }
    }
  }
  int max_level = -1;
  for (size_t r = 0; r < n; ++r) {
    stratum_[r] = level[static_cast<size_t>(comp[r])];
    max_level = std::max(max_level, stratum_[r]);
  }
  num_strata_ = static_cast<size_t>(max_level + 1);
}

const std::vector<int>& RuleDependencyGraph::Watchers(
    const WatcherIndex& index, PredicateId predicate) const {
  auto it = index.find(predicate);
  return it == index.end() ? empty_ : it->second;
}

const std::vector<int>& RuleDependencyGraph::PlusWatchers(
    PredicateId predicate) const {
  return Watchers(plus_watchers_, predicate);
}

const std::vector<int>& RuleDependencyGraph::MinusWatchers(
    PredicateId predicate) const {
  return Watchers(minus_watchers_, predicate);
}

GammaSchedule RuleDependencyGraph::Schedule(const DeltaState& delta) const {
  GammaSchedule schedule;
  if (delta.initial) {
    schedule.rules.resize(size());
    for (size_t r = 0; r < size(); ++r) {
      schedule.rules[r] = static_cast<int>(r);
    }
  } else {
    // Union of the changed predicates' watcher lists. A rule watching
    // several changed predicates appears in several lists, so sort +
    // unique; the result is every woken rule in program order, reached
    // in O(Σ |watchers|) instead of O(|P|).
    for (PredicateId pred : delta.plus_changed) {
      const std::vector<int>& rules = PlusWatchers(pred);
      schedule.rules.insert(schedule.rules.end(), rules.begin(),
                            rules.end());
    }
    for (PredicateId pred : delta.minus_changed) {
      const std::vector<int>& rules = MinusWatchers(pred);
      schedule.rules.insert(schedule.rules.end(), rules.begin(),
                            rules.end());
    }
    std::sort(schedule.rules.begin(), schedule.rules.end());
    schedule.rules.erase(
        std::unique(schedule.rules.begin(), schedule.rules.end()),
        schedule.rules.end());
  }
  schedule.stages = StagesFor(schedule.rules);
  return schedule;
}

std::vector<int> RuleDependencyGraph::ConeRules(
    const std::vector<PredicateId>& plus_preds,
    const std::vector<PredicateId>& minus_preds) const {
  std::vector<char> in_cone(size(), 0);
  std::vector<int> frontier;
  auto wake = [&](const WatcherIndex& index, PredicateId pred) {
    for (int r : Watchers(index, pred)) {
      if (!in_cone[static_cast<size_t>(r)]) {
        in_cone[static_cast<size_t>(r)] = 1;
        frontier.push_back(r);
      }
    }
  };
  for (PredicateId pred : plus_preds) wake(plus_watchers_, pred);
  for (PredicateId pred : minus_preds) wake(minus_watchers_, pred);
  // BFS: a woken rule's head mark wakes that polarity's watchers, exactly
  // as the runtime scheduler would.
  for (size_t i = 0; i < frontier.size(); ++i) {
    const auto& [action, pred] = heads_[static_cast<size_t>(frontier[i])];
    wake(action == ActionKind::kInsert ? plus_watchers_ : minus_watchers_,
         pred);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

std::vector<std::vector<int>> RuleDependencyGraph::StagesFor(
    const std::vector<int>& rules) const {
  std::vector<std::vector<int>> stages;
  if (rules.empty()) return stages;
  // Stable sort by stratum: stages ascend by stratum, and within a stage
  // the input's program order survives (the input is ascending).
  std::vector<int> ordered = rules;
  std::stable_sort(ordered.begin(), ordered.end(), [this](int a, int b) {
    return stratum(a) < stratum(b);
  });
  for (size_t i = 0; i < ordered.size(); ++i) {
    if (i == 0 || stratum(ordered[i]) != stratum(ordered[i - 1])) {
      stages.emplace_back();
    }
    stages.back().push_back(ordered[i]);
  }
  return stages;
}

}  // namespace park
