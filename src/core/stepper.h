// ParkStepper: the Δ transition operator exposed one step at a time, and
// the engine's only Δ loop.
//
// Park() is this stepper run to its fixpoint, followed by rendering the
// trace, the blocked set and provenance; a debugger, visualizer, or
// interactive tool drives the same computation transition by transition
// and inspects the live bi-structure ⟨B, I⟩ between steps. The stepper
// records the trace at options.trace_level, numbered exactly as Park()
// reports it, so finishing a stepper yields PARK(P, D) together with its
// stats and trace (asserted in stepper_test.cc). Incremental maintenance
// runs the seeded variant: Δ from ⟨∅, D⟩ with U's marks already applied,
// on the maintainer's warm caches (docs/INCREMENTAL.md).

#ifndef PARK_CORE_STEPPER_H_
#define PARK_CORE_STEPPER_H_

#include <chrono>
#include <optional>

#include "core/park_evaluator.h"
#include "engine/rule_graph.h"
#include "util/cancellation.h"

namespace park {

/// One Δ transition outcome.
struct StepOutcome {
  enum class Kind {
    kGamma,       // consistent Γ application; `new_marks` atoms added
    kResolution,  // conflicts resolved, blocked set grew, restarted at I°
    kFixpoint,    // Γ(P,B)(I) = I — the computation is complete
  };

  Kind kind = Kind::kFixpoint;
  /// kGamma: number of newly marked atoms.
  size_t new_marks = 0;
  /// kResolution: rendered descriptions of the conflicts just resolved.
  /// Filled by Step() only; RunToFixpoint() discards outcomes unrendered.
  std::vector<std::string> conflicts;
  /// kResolution: number of rule instances newly blocked.
  size_t newly_blocked = 0;
};

/// Stateful, single-use driver of one PARK evaluation. The program and
/// database must outlive the stepper; neither is modified.
class ParkStepper {
 public:
  /// Policy, granularity, gamma_mode, trace_level, governance and
  /// observers behave exactly as in Park().
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options = {});

  /// Evaluation state a seeded stepper borrows instead of building its
  /// own; everything must outlive the stepper. `parallel` may be null
  /// (sequential Γ).
  struct WarmState {
    PlanCache& plans;
    const RuleDependencyGraph& graph;
    ParallelGamma* parallel = nullptr;
  };

  /// The seeded closure of incremental maintenance (docs/INCREMENTAL.md):
  /// Δ from ⟨∅, D⟩ with every update of `seed` already marked (by the
  /// body-less grounding, rule index -1), as the first step of
  /// PARK(D, P, U) would mark it. Γ is semi-naive whatever
  /// options.gamma_mode says. An inconsistent Γ ends the run with
  /// kFailedPrecondition — nothing applied, SELECT never called — because
  /// the caller then re-runs the commit on the full evaluator, whose
  /// policies must not have seen the discarded attempt. The borrowed
  /// cache's and pool's counters are reported as this run's share; plan
  /// compilations of the borrowed cache fire no OnPlanCompiled hook.
  ParkStepper(const Program& program, const Database& db,
              ParkOptions options, const WarmState& warm,
              const std::vector<Update>& seed);

  ParkStepper(const ParkStepper&) = delete;
  ParkStepper& operator=(const ParkStepper&) = delete;

  /// Applies one Δ transition. Calling Step() after the fixpoint is
  /// reached keeps returning kFixpoint outcomes. Errors are Park()'s
  /// (policy abstention, no progress, max_steps, governance).
  Result<StepOutcome> Step();

  /// Steps to the fixpoint without rendering the outcomes.
  Status RunToFixpoint();

  /// RunToFixpoint, then incorporates: the result database equals
  /// Park(program, db, options).database.
  Result<Database> Finish();

  bool done() const { return done_; }

  /// The live i-interpretation I.
  const IInterpretation& interpretation() const { return interp_; }

  /// The live blocked set B.
  const BlockedSet& blocked() const { return blocked_; }

  /// The live bi-structure ⟨B, I⟩, order-comparable (Theorem 4.1).
  BiStructureSnapshot Snapshot() const {
    return SnapshotBiStructure(blocked_, interp_, program_);
  }

  /// The run's counters. Per-step counters accumulate as the run goes;
  /// the rest (planner, pool, storage, resource, blocked set) are folded
  /// in when the fixpoint lands or, mid-run, on each call.
  const ParkStats& stats() const;

  /// Moves the trace recorded so far out of the stepper.
  Trace TakeTrace() { return std::move(trace_); }

 private:
  /// Cumulative counters of the plan cache and the pool. A seeded stepper
  /// borrows both, so the stats report the difference from construction.
  struct SharedCounters {
    uint64_t plans_compiled = 0;
    uint64_t cache_hits = 0;
    uint64_t replans = 0;
    uint64_t estimated_rows = 0;
    uint64_t actual_rows = 0;
    uint64_t sections = 0;
    uint64_t tasks = 0;
    uint64_t sliced_units = 0;
    uint64_t slices = 0;
    uint64_t match_ns = 0;
    uint64_t merge_ns = 0;
    uint64_t busy_ns = 0;
  };

  ParkStepper(const Program& program, const Database& db,
              ParkOptions options, const WarmState* warm,
              const std::vector<Update>* seed);

  /// One Δ transition; `render_conflicts` fills StepOutcome::conflicts.
  Result<StepOutcome> Advance(bool render_conflicts);
  /// The resolution half of a transition whose Γ was inconsistent.
  Result<StepOutcome> Resolve(GammaResult gamma, int step,
                              bool render_conflicts);
  /// One Γ section in `mode`, with timing, governance and counters.
  Result<GammaResult> EvaluateGamma(GammaMode mode, int step);
  SharedCounters ReadSharedCounters() const;
  /// Folds the planner, pool, resource and storage counters into stats_.
  void FoldStats() const;

  const Program& program_;
  const Database& db_;
  ParkOptions options_;
  PolicyPtr policy_;
  IInterpretation interp_;
  BlockedSet blocked_;
  DeltaState delta_;
  DeltaAtoms delta_atoms_;
  Trace trace_;
  /// Exception-isolating view of options_.observer (see core/observer.h);
  /// OnRunStart fires at construction, OnRunEnd when the fixpoint lands.
  ObserverHook observer_;
  /// Construction time, against which options_.deadline_ms is checked
  /// (the budget covers the whole stepped evaluation).
  std::chrono::steady_clock::time_point start_time_;
  /// Set by the seeded constructor: no conflict resolution.
  bool seeded_ = false;
  /// The evaluation's own plan cache, dependency graph (non-naive Γ) and
  /// pool (num_threads > 1); a seeded stepper borrows all three instead.
  std::optional<PlanCache> own_plans_;
  std::optional<RuleDependencyGraph> own_graph_;
  std::optional<ParallelGamma> own_parallel_;
  PlanCache* plans_ = nullptr;
  const RuleDependencyGraph* graph_ = nullptr;
  ParallelGamma* parallel_ = nullptr;
  SharedCounters baseline_;
  mutable ParkStats stats_;
  /// Batch-executor row counters (see ParkOptions::exec_mode). All zero
  /// on tuple-mode runs.
  ExecStats exec_stats_;
  size_t steps_taken_ = 0;
  /// Run governance (deadline / external cancel / memory / derivation
  /// budgets), shared by every thread of every Γ section. cancel_ is null
  /// when no governance is configured — workers then skip polling.
  CancellationToken token_;
  CancellationToken* cancel_ = nullptr;
  /// Coordinator-side memory scope for the merged Γ derivation lists.
  CancellationToken::MemoryScope gamma_scope_;
  /// Construction time on the timings clock (options_.collect_timings).
  int64_t run_start_ns_ = 0;
  bool done_ = false;
};

}  // namespace park

#endif  // PARK_CORE_STEPPER_H_
