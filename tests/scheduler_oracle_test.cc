// Scheduler oracle: the dependency scheduler (docs/SCHEDULER.md) is an
// implementation detail, never a semantic one. For every workload — paper
// examples, recursive closures, conflict generators, and the kilorule
// chains whose sparse deltas the scheduler exists for — the scheduled
// delta-filtered and semi-naive runs must reproduce naive Γ, the paper's
// literal algorithm that matches every rule at every step: final
// database, blocked set, step/restart counters, full trace, and
// provenance, at every exec mode × planner mode × thread count point.

#include <gtest/gtest.h>

#include "core/park_evaluator.h"
#include "test_util.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"
#include "workload/kilorule_gen.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

struct RunOutcome {
  std::string database;
  std::vector<std::string> blocked;
  size_t restarts = 0;
  size_t gamma_steps = 0;
  std::vector<std::vector<std::string>> history;
  std::vector<std::string> provenance;
};

struct Config {
  GammaMode gamma = GammaMode::kDeltaFiltered;
  ExecMode exec = ExecMode::kTuple;
  PlannerMode planner = PlannerMode::kCostBased;
  int threads = 1;
};

RunOutcome RunConfig(const Program& program, const Database& db,
                     const Config& config, ParkStats* stats_out = nullptr) {
  ParkOptions options;
  options.gamma_mode = config.gamma;
  options.exec_mode = config.exec;
  options.planner_mode = config.planner;
  options.num_threads = config.threads;
  options.trace_level = TraceLevel::kFull;
  options.record_provenance = true;
  auto result = Park(program, db, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  if (stats_out != nullptr) *stats_out = result->stats;
  RunOutcome outcome;
  outcome.database = result->database.ToString();
  outcome.blocked = result->blocked;
  outcome.restarts = result->stats.restarts;
  outcome.gamma_steps = result->stats.gamma_steps;
  outcome.history = result->trace.InterpretationHistory();
  for (const AtomProvenance& p : result->provenance) {
    outcome.provenance.push_back(p.atom + " <- " +
                                 Join(p.derived_by, ", "));
  }
  return outcome;
}

const char* GammaName(GammaMode mode) {
  switch (mode) {
    case GammaMode::kNaive: return "naive";
    case GammaMode::kDeltaFiltered: return "delta-filtered";
    case GammaMode::kSemiNaive: return "semi-naive";
  }
  return "?";
}

/// The full sweep: at each (exec, planner, threads) point the naive run
/// is the oracle, and the scheduled delta-filtered and semi-naive runs
/// must be bit-identical to it.
void ExpectSchedulerInvisible(const Program& program, const Database& db) {
  for (ExecMode exec : {ExecMode::kTuple, ExecMode::kBatch}) {
    for (PlannerMode planner :
         {PlannerMode::kCostBased, PlannerMode::kHeuristic}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(StrFormat(
            "exec=%s planner=%s threads=%d",
            exec == ExecMode::kBatch ? "batch" : "tuple",
            planner == PlannerMode::kHeuristic ? "heuristic" : "cost",
            threads));
        Config config;
        config.gamma = GammaMode::kNaive;
        config.exec = exec;
        config.planner = planner;
        config.threads = threads;
        RunOutcome reference = RunConfig(program, db, config);
        for (GammaMode gamma :
             {GammaMode::kDeltaFiltered, GammaMode::kSemiNaive}) {
          SCOPED_TRACE(GammaName(gamma));
          config.gamma = gamma;
          RunOutcome run = RunConfig(program, db, config);
          EXPECT_EQ(reference.database, run.database);
          EXPECT_EQ(reference.blocked, run.blocked);
          EXPECT_EQ(reference.restarts, run.restarts);
          EXPECT_EQ(reference.gamma_steps, run.gamma_steps);
          EXPECT_EQ(reference.history, run.history);
          EXPECT_EQ(reference.provenance, run.provenance);
        }
      }
    }
  }
}

TEST(SchedulerOracleTest, PaperExamplesAgree) {
  const char* programs[] = {
      "r1: p -> +q. r2: p -> -a. r3: q -> +a.",
      "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
      "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
      "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
      "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
  };
  const char* facts[] = {"p.", "p.", "p.", "p.", "a."};
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE(programs[i]);
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(programs[i], symbols);
    Database db = MustParseDatabase(facts[i], symbols);
    ExpectSchedulerInvisible(program, db);
  }
}

TEST(SchedulerOracleTest, RecursiveClosureAgrees) {
  Workload w =
      MakeTransitiveClosureWorkload(GraphShape::kRandom, 14, 40, 3);
  ExpectSchedulerInvisible(w.program, w.database);
}

TEST(SchedulerOracleTest, ConflictWorkloadsAgree) {
  // Conflicts force restarts and the conflict-resolution Γ recompute,
  // both of which reuse the scheduler's watcher index.
  for (double fraction : {0.3, 1.0}) {
    SCOPED_TRACE(fraction);
    Workload w = MakeConflictPairsWorkload(18, fraction, 77);
    ExpectSchedulerInvisible(w.program, w.database);
  }
}

TEST(SchedulerOracleTest, KiloruleAgrees) {
  // The workload the scheduler exists for: long chains, sparse per-step
  // deltas, a deliberate SCC at the tail. Small enough for the full
  // 24-configuration sweep.
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/8,
                                    /*facts=*/2);
  ExpectSchedulerInvisible(w.program, w.database);
}

TEST(SchedulerOracleTest, KiloruleCountersShowSkips) {
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/16,
                                    /*facts=*/2);
  ParkStats scheduled;
  RunConfig(w.program, w.database, Config{}, &scheduled);
  // One stratum per chain level plus the cyclic tail component.
  EXPECT_GE(scheduled.sched_strata, 16u);
  EXPECT_GT(scheduled.sched_rules_skipped, 0u);
  // The watcher index must consider strictly fewer rules, and match
  // strictly fewer bodies, than naive Γ's every-rule-every-step scan.
  ParkStats scanned;
  Config naive;
  naive.gamma = GammaMode::kNaive;
  RunConfig(w.program, w.database, naive, &scanned);
  EXPECT_LT(scheduled.sched_rules_considered,
            scanned.sched_rules_considered);
  EXPECT_LT(scheduled.rule_evaluations, scanned.rule_evaluations);
  EXPECT_EQ(scheduled.gamma_steps, scanned.gamma_steps);
}

TEST(SchedulerOracleTest, NaiveModeIgnoresTheScheduler) {
  // Naive Γ re-derives everything every step by definition; there is no
  // delta to schedule from, so the graph is not even built.
  Workload w = MakeKiloruleWorkload(/*chains=*/2, /*levels=*/4,
                                    /*facts=*/1);
  ParkStats stats;
  Config config;
  config.gamma = GammaMode::kNaive;
  RunConfig(w.program, w.database, config, &stats);
  EXPECT_EQ(stats.sched_strata, 0u);
  EXPECT_EQ(stats.sched_pipeline_stages, 0u);
}

TEST(SchedulerOracleTest, StagedDispatchReportsStages) {
  // With >= 2 threads and a scheduled step whose affected rules span
  // several strata, the staged dispatch must surface in the stats — and
  // the count is a property of the schedule, not the thread count.
  Workload w = MakeKiloruleWorkload(/*chains=*/4, /*levels=*/8,
                                    /*facts=*/2);
  ParkStats at2;
  ParkStats at4;
  Config config;
  config.threads = 2;
  RunConfig(w.program, w.database, config, &at2);
  config.threads = 4;
  RunConfig(w.program, w.database, config, &at4);
  EXPECT_GT(at2.sched_pipeline_stages, 0u);
  EXPECT_EQ(at2.sched_pipeline_stages, at4.sched_pipeline_stages);
  ParkStats at1;
  config.threads = 1;
  RunConfig(w.program, w.database, config, &at1);
  EXPECT_EQ(at1.sched_pipeline_stages, at2.sched_pipeline_stages);
}

}  // namespace
}  // namespace park
