// P3 — delta-driven Γ scheduling on the kilorule workload: the scheduled
// delta-filtered and semi-naive evaluators against naive Γ (the paper's
// literal algorithm, which matches every rule at every step), with an
// in-bench bit-identity check (every scheduled run must reproduce the
// naive database and step count exactly, or the bench aborts). Emits
// BENCH_scheduler.json with per-config times, the speedup over naive, and
// the scheduler counters (rules_considered / rules_skipped / strata /
// pipeline_stages) that explain it: a kilorule step affects a handful of
// rules, and the watcher index reaches them without looking at the rest
// (docs/SCHEDULER.md).
//
//   bench_scheduler [--smoke] [output.json]  (default: BENCH_scheduler.json)
//
// --smoke shrinks the program and skips the gates so CI can exercise the
// full path (including the JSON schema) in a second; the timings of a
// smoke run are meaningless and the JSON says so.
//
// Non-smoke runs gate on kilorule delta_filtered@1: it must be >= 3x
// faster than naive Γ, and must consider <= 1% of the (rules × Γ calls)
// slots naive Γ examines, or the bench exits non-zero.

#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "park/park.h"
#include "util/string_util.h"
#include "workload/kilorule_gen.h"

namespace park {
namespace {

struct ConfigResult {
  const char* gamma_mode = "delta_filtered";
  int threads = 1;
  double naive_ms = 0;
  double scheduled_ms = 0;
  double speedup = 1.0;  // naive / scheduled
  size_t gamma_steps = 0;
  // Scheduler counters of the scheduled run.
  size_t rules_considered = 0;
  size_t rules_skipped = 0;
  size_t strata = 0;
  size_t pipeline_stages = 0;
  // The same counter from the naive run: rules × Γ calls.
  size_t naive_rules_considered = 0;
  double considered_ratio = 0;  // rules_considered / naive_rules_considered
};

/// The naive baseline at one thread count: best time plus the result the
/// scheduled runs must reproduce.
struct NaiveBaseline {
  int threads = 1;
  double ms = -1;
  std::string database;
  size_t gamma_steps = 0;
  size_t rules_considered = 0;
};

ParkResult RunOnce(const Workload& w, GammaMode mode, int threads,
                   double* elapsed_ms) {
  ParkOptions options;
  options.gamma_mode = mode;
  options.num_threads = threads;
  auto start = std::chrono::steady_clock::now();
  auto result = Park(w.program, w.database, options);
  auto end = std::chrono::steady_clock::now();
  PARK_CHECK(result.ok()) << result.status().ToString();
  *elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return std::move(*result);
}

NaiveBaseline RunNaive(const Workload& w, int threads, int repetitions) {
  NaiveBaseline naive;
  naive.threads = threads;
  for (int rep = 0; rep < repetitions; ++rep) {
    double ms = 0;
    ParkResult run = RunOnce(w, GammaMode::kNaive, threads, &ms);
    if (naive.ms < 0 || ms < naive.ms) naive.ms = ms;
    if (rep == 0) {
      naive.database = run.database.ToString();
      naive.gamma_steps = run.stats.gamma_steps;
      naive.rules_considered = run.stats.sched_rules_considered;
    }
  }
  return naive;
}

ConfigResult RunConfig(const Workload& w, const NaiveBaseline& naive,
                       const char* mode_name, GammaMode mode,
                       int repetitions) {
  ConfigResult config;
  config.gamma_mode = mode_name;
  config.threads = naive.threads;
  double best = -1;
  // All naive reps ran first (RunNaive), then all scheduled reps:
  // interleaving the two leaves each timed run with the other's
  // allocator/cache wake. ToString checks stay outside the timed region
  // (RunOnce times Park() only).
  for (int rep = 0; rep < repetitions; ++rep) {
    double ms = 0;
    ParkResult run = RunOnce(w, mode, naive.threads, &ms);
    if (best < 0 || ms < best) best = ms;
    // The whole point: scheduling must be bit-identical, every run.
    PARK_CHECK(run.database.ToString() == naive.database)
        << mode_name << "@" << naive.threads
        << ": scheduled database differs from the naive result";
    PARK_CHECK(run.stats.gamma_steps == naive.gamma_steps)
        << mode_name << "@" << naive.threads
        << ": scheduled run took a different number of steps";
    config.gamma_steps = run.stats.gamma_steps;
    config.rules_considered = run.stats.sched_rules_considered;
    config.rules_skipped = run.stats.sched_rules_skipped;
    config.strata = run.stats.sched_strata;
    config.pipeline_stages = run.stats.sched_pipeline_stages;
  }
  config.naive_ms = naive.ms;
  config.scheduled_ms = best;
  config.speedup = best > 0 ? naive.ms / best : 1.0;
  config.naive_rules_considered = naive.rules_considered;
  config.considered_ratio =
      naive.rules_considered > 0
          ? static_cast<double>(config.rules_considered) /
                static_cast<double>(naive.rules_considered)
          : 0.0;
  std::printf(
      "  %-16s threads=%d  naive %8.2f ms  scheduled %8.2f ms  speedup "
      "%.2fx  (considered %zu of %zu = %.4f%%, %zu strata)\n",
      mode_name, naive.threads, naive.ms, best, config.speedup,
      config.rules_considered, config.naive_rules_considered,
      100.0 * config.considered_ratio, config.strata);
  return config;
}

std::string ToJson(const std::string& case_name, size_t rules,
                   const std::vector<ConfigResult>& configs, bool smoke,
                   const char* gate) {
  JsonWriter w = bench::BeginBenchJson("park-bench-scheduler-v1");
  w.Key("smoke").Bool(smoke);
  w.Key("bit_identical").Bool(true);
  // kilorule delta_filtered@1 gates (>= 3x over naive, <= 1% of naive's
  // rules considered): "passed", or "skipped" in smoke mode (tiny
  // program, timings meaningless).
  w.Key("gate").String(gate);
  w.Key("cases").BeginArray();
  w.BeginObject();
  w.Key("name").String(case_name);
  w.Key("rules").UInt(rules);
  w.Key("configs").BeginArray();
  for (const ConfigResult& c : configs) {
    w.BeginObject();
    w.Key("gamma_mode").String(c.gamma_mode);
    w.Key("threads").Int(c.threads);
    w.Key("naive_ms").Double(c.naive_ms);
    w.Key("scheduled_ms").Double(c.scheduled_ms);
    w.Key("speedup").Double(c.speedup);
    w.Key("gamma_steps").UInt(c.gamma_steps);
    w.Key("rules_considered").UInt(c.rules_considered);
    w.Key("rules_skipped").UInt(c.rules_skipped);
    w.Key("strata").UInt(c.strata);
    w.Key("pipeline_stages").UInt(c.pipeline_stages);
    w.Key("naive_rules_considered").UInt(c.naive_rules_considered);
    w.Key("considered_ratio").Double(c.considered_ratio);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scheduler.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // The kilorule shape: >= 1000 rules, ~`levels` Γ steps each affecting
  // `chains` rules — per-step rule selection is the whole cost. Naive Γ
  // matches every rule every step, so its cost grows with steps * rules
  // (quadratic in `levels`) while scheduled evaluation grows linearly:
  // deep-and-thin maximizes the contrast. Smoke mode shrinks the program
  // an order of magnitude.
  const int chains = smoke ? 4 : 8;
  const int levels = smoke ? 32 : 768;
  const int facts = 1;
  Workload w = MakeKiloruleWorkload(chains, levels, facts);
  const int repetitions = smoke ? 1 : 3;

  std::printf("bench_scheduler: %s%s\n", w.description.c_str(),
              smoke ? " [smoke mode: timings meaningless]" : "");

  std::vector<ConfigResult> configs;
  const NaiveBaseline naive1 = RunNaive(w, /*threads=*/1, repetitions);
  configs.push_back(RunConfig(w, naive1, "delta_filtered",
                              GammaMode::kDeltaFiltered, repetitions));
  configs.push_back(RunConfig(w, naive1, "semi_naive", GammaMode::kSemiNaive,
                              repetitions));
  // Smoke always includes a pooled config: it drives the staged parallel
  // dispatch (one pool section per stratum group) regardless of host
  // width, which is what the CI TSan run is after.
  const int pooled = smoke ? 2
                     : std::thread::hardware_concurrency() >= 4 ? 4
                                                                 : 0;
  if (pooled > 0) {
    const NaiveBaseline naive_pooled = RunNaive(w, pooled, repetitions);
    configs.push_back(RunConfig(w, naive_pooled, "delta_filtered",
                                GammaMode::kDeltaFiltered, repetitions));
  }

  const char* gate = "skipped";
  if (!smoke) {
    const ConfigResult& headline = configs[0];  // delta_filtered@1
    if (headline.speedup < 3.0) {
      std::fprintf(stderr,
                   "REGRESSION: kilorule delta_filtered@1 speedup over "
                   "naive Γ %.2fx (want >= 3x)\n",
                   headline.speedup);
      return 1;
    }
    // Deterministic companion of the timing gate: the watcher index must
    // keep the rules examined per Γ call to a sliver of the program.
    if (headline.considered_ratio > 0.01) {
      std::fprintf(stderr,
                   "REGRESSION: kilorule delta_filtered@1 considered %zu "
                   "of %zu rule slots (%.4f%%, want <= 1%%)\n",
                   headline.rules_considered,
                   headline.naive_rules_considered,
                   100.0 * headline.considered_ratio);
      return 1;
    }
    gate = "passed";
  }

  std::string case_name = StrFormat("kilorule_%dx%d", chains, levels);
  if (!bench::WriteBenchJson(
          out_path,
          ToJson(case_name, w.program.size(), configs, smoke, gate))) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace park

int main(int argc, char** argv) { return park::Main(argc, argv); }
