// ParkStepper: step-by-step Δ transitions agree with the batch evaluator,
// and the seeded closure incremental maintenance runs on it stops at the
// first conflict without consulting SELECT.

#include "core/stepper.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"

namespace park {
namespace {

using ::park::testing_util::MustParseDatabase;
using ::park::testing_util::MustParseProgram;

TEST(StepperTest, WalksTheSection5Example) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
      symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkStepper stepper(program, db);

  // Step 1: Γ adds +a, +q.
  auto s1 = stepper.Step();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->kind, StepOutcome::Kind::kGamma);
  EXPECT_EQ(s1->new_marks, 2u);
  EXPECT_EQ(stepper.interpretation().ToString(), "{p, +a, +q}");

  // Step 2: the q conflict; r2 blocked, restart.
  auto s2 = stepper.Step();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->kind, StepOutcome::Kind::kResolution);
  EXPECT_EQ(s2->newly_blocked, 1u);
  ASSERT_EQ(s2->conflicts.size(), 1u);
  EXPECT_NE(s2->conflicts[0].find("q:"), std::string::npos);
  EXPECT_EQ(stepper.interpretation().ToString(), "{p}");

  // Continue to completion.
  auto final_db = stepper.Finish();
  ASSERT_TRUE(final_db.ok());
  EXPECT_EQ(final_db->ToString(), "{a, b, p}");
  EXPECT_TRUE(stepper.done());
  EXPECT_EQ(stepper.stats().restarts, 2u);
}

TEST(StepperTest, StepAfterFixpointIsFixpoint) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +q.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkStepper stepper(program, db);
  ASSERT_TRUE(stepper.Step().ok());   // gamma
  auto fix = stepper.Step();          // fixpoint
  ASSERT_TRUE(fix.ok());
  EXPECT_EQ(fix->kind, StepOutcome::Kind::kFixpoint);
  EXPECT_TRUE(stepper.done());
  auto again = stepper.Step();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->kind, StepOutcome::Kind::kFixpoint);
}

TEST(StepperTest, SnapshotsGrowPerTheorem41) {
  Workload w = MakeConflictPairsWorkload(20, 0.4, 7);
  ParkStepper stepper(w.program, w.database);
  BiStructureSnapshot previous = stepper.Snapshot();
  while (!stepper.done()) {
    ASSERT_TRUE(stepper.Step().ok());
    BiStructureSnapshot current = stepper.Snapshot();
    EXPECT_TRUE(BiStructureLeq(previous, current));
    previous = current;
  }
}

/// Park() is the stepper run to its fixpoint, so a stepper driven by
/// Finish() or by Step() must reproduce the batch result exactly: the
/// database, the whole stats document (timings off), and the full trace.
void ExpectStepperAgreesWithBatch(const Program& program, const Database& db,
                                  ParkOptions options) {
  options.trace_level = TraceLevel::kFull;
  auto batch = Park(program, db, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const std::string stats = batch->stats.ToJson();
  const std::string trace = batch->trace.ToString();

  ParkStepper finished(program, db, options);
  auto database = finished.Finish();
  ASSERT_TRUE(database.ok()) << database.status().ToString();
  EXPECT_EQ(batch->database.ToString(), database->ToString());
  EXPECT_EQ(stats, finished.stats().ToJson());
  EXPECT_EQ(trace, finished.TakeTrace().ToString());

  ParkStepper stepped(program, db, options);
  size_t resolutions = 0;
  while (!stepped.done()) {
    auto outcome = stepped.Step();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->kind == StepOutcome::Kind::kResolution) {
      ++resolutions;
      EXPECT_FALSE(outcome->conflicts.empty());
    }
  }
  EXPECT_EQ(resolutions, batch->stats.restarts);
  EXPECT_EQ(stats, stepped.stats().ToJson());
  EXPECT_EQ(trace, stepped.TakeTrace().ToString());
}

TEST(StepperTest, FinishAgreesWithBatchEvaluator) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::string rules;
    std::string facts;
    auto atom = [](int i) { return "a" + std::to_string(i); };
    for (int i = 0; i < 8; ++i) {
      if (rng.Bernoulli(0.5)) facts += atom(i) + ". ";
    }
    for (int r = 0; r < 14; ++r) {
      rules += atom(static_cast<int>(rng.UniformInt(0, 7)));
      rules += rng.Bernoulli(0.5) ? " -> +" : " -> -";
      rules += atom(static_cast<int>(rng.UniformInt(0, 7)));
      rules += ".\n";
    }
    SCOPED_TRACE(StrFormat("trial %d", trial));
    auto symbols = MakeSymbolTable();
    Program program = MustParseProgram(rules, symbols);
    Database db = MustParseDatabase(facts, symbols);
    ExpectStepperAgreesWithBatch(program, db, ParkOptions());
  }
}

TEST(StepperTest, PaperExamplesAgreeWithBatchEvaluator) {
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
    for (GammaMode mode : {GammaMode::kNaive, GammaMode::kDeltaFiltered,
                           GammaMode::kSemiNaive}) {
      ParkOptions options;
      options.gamma_mode = mode;
      ExpectStepperAgreesWithBatch(program, db, options);
    }
  }
}

TEST(StepperTest, ConflictWorkloadAgreesWithBatchEvaluator) {
  Workload w = MakeConflictPairsWorkload(20, 0.4, 7);
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    ParkOptions options;
    options.num_threads = threads;
    options.block_granularity = BlockGranularity::kFirstConflictOnly;
    ExpectStepperAgreesWithBatch(w.program, w.database, options);
  }
}

TEST(StepperTest, EmptyWatchedDeltaQuickExits) {
  // The last Γ step of any terminating chain has a delta nobody watches
  // (the chain tip appears in no rule body). The dependency scheduler
  // makes that step an O(1) no-op: the watcher lookup comes back
  // empty and Γ returns before scanning, matching, or touching the plan
  // cache — pinned here via sched_rules_considered, which must not grow
  // on the quick-exited step.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "r1: a0 -> +a1. r2: a1 -> +a2. r3: a2 -> +a3.", symbols);
  Database db = MustParseDatabase("a0.", symbols);
  ParkOptions options;
  options.gamma_mode = GammaMode::kDeltaFiltered;
  ParkStepper stepper(program, db, options);
  std::vector<size_t> considered;
  while (!stepper.done()) {
    ASSERT_TRUE(stepper.Step().ok());
    considered.push_back(stepper.stats().sched_rules_considered);
  }
  ASSERT_GE(considered.size(), 2u);
  EXPECT_EQ(considered.back(), considered[considered.size() - 2])
      << "fixpoint-detecting step must consider zero rules";
  // Every step still skipped the rest of the program.
  EXPECT_GT(stepper.stats().sched_rules_skipped, 0u);

  // Contrast: naive Γ scans the whole program on the same step to find
  // that nothing new fires.
  options.gamma_mode = GammaMode::kNaive;
  ParkStepper scanning(program, db, options);
  std::vector<size_t> scanned;
  while (!scanning.done()) {
    ASSERT_TRUE(scanning.Step().ok());
    scanned.push_back(scanning.stats().sched_rules_considered);
  }
  ASSERT_GE(scanned.size(), 2u);
  EXPECT_EQ(scanned.back(), scanned[scanned.size() - 2] + program.size());
  // Same fixpoint, same step count, either way.
  EXPECT_EQ(stepper.stats().gamma_steps, scanning.stats().gamma_steps);
}

TEST(StepperTest, ErrorsMatchBatchSemantics) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +a. p -> -a.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkOptions options;
  options.policy = MakeSpecificityPolicy();  // abstains on this tie
  ParkStepper stepper(program, db, options);
  auto outcome = stepper.Step();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kAborted);
}

TEST(StepperTest, MaxStepsGuard) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("a0 -> +a1. a1 -> +a2. a2 -> +a3.",
                                     symbols);
  Database db = MustParseDatabase("a0.", symbols);
  ParkOptions options;
  options.max_steps = 2;
  ParkStepper stepper(program, db, options);
  ASSERT_TRUE(stepper.Step().ok());
  ASSERT_TRUE(stepper.Step().ok());
  auto third = stepper.Step();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
}

TEST(StepperTest, DeadlineIsCheckedAgainstConstructionTime) {
  // The budget covers the whole stepped evaluation, so sleeping past it
  // between construction and the first Step() already exhausts it.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("p -> +a.", symbols);
  Database db = MustParseDatabase("p.", symbols);
  ParkOptions options;
  options.deadline_ms = 1;
  ParkStepper stepper(program, db, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto step = stepper.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(step.status().ToString().find("deadline"),
            std::string::npos);
}

TEST(StepperTest, SeededClosureReachesTheFullResult) {
  // Over a rule-stable instance, Δ from ⟨∅, D⟩ with U's marks applied
  // reaches PARK(D, P, U); the seed marks count as derived marks but not
  // as a Γ step.
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(
      "r1: e(X, Y) -> +t(X, Y). r2: t(X, Z), e(Z, Y) -> +t(X, Y).",
      symbols);
  Database db = MustParseDatabase("e(a, b). t(a, b).", symbols);
  const std::vector<Update> seed = {
      Update{ActionKind::kInsert,
             ParseGroundAtom("e(b, c)", symbols).value()}};
  PlanCache plans(program, PlannerMode::kCostBased);
  RuleDependencyGraph graph(program);
  ParkStepper closure(program, db, ParkOptions(),
                      ParkStepper::WarmState{plans, graph}, seed);
  ASSERT_TRUE(closure.RunToFixpoint().ok());
  auto full = Park(db, program, seed);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(closure.interpretation().Incorporate().ToString(),
            full->database.ToString());
  EXPECT_EQ(closure.stats().gamma_steps, 1u);
  EXPECT_EQ(closure.stats().derived_marks, 3u);  // +e(b,c), +t(b,c), +t(a,c)
  EXPECT_EQ(closure.stats().plans_compiled, plans.plans_compiled());
}

TEST(StepperTest, SeededClosureStopsAtConflictWithoutSelect) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram("r: p -> +q.", symbols);
  Database db = MustParseDatabase("", symbols);
  const std::vector<Update> seed = {
      Update{ActionKind::kInsert, ParseGroundAtom("p", symbols).value()},
      Update{ActionKind::kDelete, ParseGroundAtom("q", symbols).value()}};
  auto calls = std::make_shared<int>(0);
  ParkOptions options;
  options.policy = MakeLambdaPolicy(
      "counting", [calls](const PolicyContext& context,
                          const Conflict& conflict) -> Result<Vote> {
        ++*calls;
        return MakeInertiaPolicy()->Select(context, conflict);
      });
  PlanCache plans(program, PlannerMode::kCostBased);
  RuleDependencyGraph graph(program);
  ParkStepper closure(program, db, options,
                      ParkStepper::WarmState{plans, graph}, seed);
  Status status = closure.RunToFixpoint();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(*calls, 0) << "the discarded attempt must not reach SELECT";
  EXPECT_EQ(closure.stats().policy_invocations, 0u);
  // The full evaluator resolves the same conflict through the policy.
  auto full = Park(db, program, seed, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GT(*calls, 0);
}

}  // namespace
}  // namespace park
