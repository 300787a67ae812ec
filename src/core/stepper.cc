#include "core/stepper.h"

#include <set>

#include "util/metrics.h"
#include "util/string_util.h"

namespace park {
namespace {

const char* GammaModeName(GammaMode mode) {
  switch (mode) {
    case GammaMode::kNaive: return "naive";
    case GammaMode::kDeltaFiltered: return "delta_filtered";
    case GammaMode::kSemiNaive: return "semi_naive";
  }
  return "unknown";
}

/// Arms the run's CancellationToken from the options (deadline, memory /
/// derivation budgets, chained external cancel). Returns nullptr when no
/// governance is configured — the matcher and Γ workers then skip polling
/// entirely, keeping the ungoverned fast path free of even the stride
/// counters' branches.
CancellationToken* ArmRunToken(CancellationToken& token,
                               const ParkOptions& options,
                               std::chrono::steady_clock::time_point start) {
  if (options.deadline_ms <= 0 && options.cancel == nullptr &&
      options.max_memory_bytes == 0 && options.max_derivations == 0) {
    return nullptr;
  }
  if (options.deadline_ms > 0) {
    token.SetDeadline(start + std::chrono::milliseconds(options.deadline_ms));
  }
  if (options.max_memory_bytes > 0) {
    token.SetMemoryLimit(options.max_memory_bytes);
  }
  if (options.max_derivations > 0) {
    token.SetWorkLimit(options.max_derivations);
  }
  token.ChainParent(options.cancel);
  return &token;
}

/// Renders I ∪ {Γ-derived marks} — the inconsistent interpretation the
/// paper prints as a numbered step before resolving, never applied to I.
std::vector<std::string> RenderWithDerivations(
    const IInterpretation& interp, const std::vector<Derivation>& derived,
    const SymbolTable& symbols) {
  std::set<std::string> unmarked;
  std::set<std::string> plus;
  std::set<std::string> minus;
  interp.base().ForEach([&](const GroundAtom& atom) {
    unmarked.insert(atom.ToString(symbols));
  });
  interp.plus().ForEach([&](const GroundAtom& atom) {
    plus.insert("+" + atom.ToString(symbols));
  });
  interp.minus().ForEach([&](const GroundAtom& atom) {
    minus.insert("-" + atom.ToString(symbols));
  });
  for (const Derivation& d : derived) {
    if (d.action == ActionKind::kInsert) {
      plus.insert("+" + d.atom.ToString(symbols));
    } else {
      minus.insert("-" + d.atom.ToString(symbols));
    }
  }
  std::vector<std::string> out;
  out.reserve(unmarked.size() + plus.size() + minus.size());
  out.insert(out.end(), unmarked.begin(), unmarked.end());
  out.insert(out.end(), plus.begin(), plus.end());
  out.insert(out.end(), minus.begin(), minus.end());
  return out;
}

}  // namespace

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options)
    : ParkStepper(program, db, std::move(options), nullptr, nullptr) {}

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options, const WarmState& warm,
                         const std::vector<Update>& seed)
    : ParkStepper(program, db, std::move(options), &warm, &seed) {}

ParkStepper::ParkStepper(const Program& program, const Database& db,
                         ParkOptions options, const WarmState* warm,
                         const std::vector<Update>* seed)
    : program_(program),
      db_(db),
      options_(std::move(options)),
      policy_(options_.policy ? options_.policy : MakeInertiaPolicy()),
      interp_(&db),
      trace_(options_.trace_level),
      observer_(options_.observer),
      start_time_(std::chrono::steady_clock::now()),
      seeded_(warm != nullptr) {
  PARK_CHECK(program.symbols() == db.symbols())
      << "program and database must share a symbol table";
  if (seeded_) {
    options_.gamma_mode = GammaMode::kSemiNaive;
    plans_ = &warm->plans;
    graph_ = &warm->graph;
    parallel_ = warm->parallel;
    // The transaction's marks, exactly what the body-less seed rules of
    // P_U produce in a full run's first step; the closure's first Γ
    // starts from them as its delta.
    delta_atoms_.initial = false;
    const RuleGrounding by_transaction;  // rule index -1
    for (const Update& u : *seed) {
      if (interp_.AddMarked(u.action, u.atom, by_transaction)) {
        (u.action == ActionKind::kInsert ? delta_atoms_.plus
                                         : delta_atoms_.minus)
            .push_back(u.atom);
        ++stats_.derived_marks;
      }
    }
  } else {
    plans_ = &own_plans_.emplace(program_, options_.planner_mode);
    if (options_.observer != nullptr) {
      plans_->set_compile_listener([this](const PlanExplanation& plan) {
        observer_.Notify([&](RunObserver& o) { o.OnPlanCompiled(plan); });
      });
    }
    // Naive Γ matches every rule every step by definition, so only the
    // delta-driven modes consult the dependency graph.
    if (options_.gamma_mode != GammaMode::kNaive) {
      graph_ = &own_graph_.emplace(program_);
    }
    const int threads = ResolveNumThreads(options_.num_threads);
    if (threads > 1) {
      parallel_ = &own_parallel_.emplace(threads, options_.min_slice_size);
    }
  }
  const int num_threads = parallel_ != nullptr ? parallel_->num_threads() : 1;
  stats_.num_threads = static_cast<size_t>(num_threads);
  stats_.planner_mode = plans_->mode();
  stats_.exec_mode = options_.exec_mode;
  stats_.maintenance_mode = options_.maintenance_mode;
  stats_.memory_limit_bytes = options_.max_memory_bytes;
  stats_.derivation_limit = options_.max_derivations;
  stats_.timings.collected = options_.collect_timings;
  if (graph_ != nullptr) stats_.sched_strata = graph_->num_strata();
  cancel_ = ArmRunToken(token_, options_, start_time_);
  if (options_.collect_timings) {
    if (parallel_ != nullptr) parallel_->EnableTiming();
    run_start_ns_ = MonotonicNanos();
  }
  baseline_ = ReadSharedCounters();
  trace_.RecordInitial(interp_, 0);
  observer_.Notify([&](RunObserver& o) {
    o.OnRunStart(RunStartInfo{program_.size(), num_threads,
                              GammaModeName(options_.gamma_mode)});
  });
}

ParkStepper::SharedCounters ParkStepper::ReadSharedCounters() const {
  SharedCounters c;
  c.plans_compiled = plans_->plans_compiled();
  c.cache_hits = plans_->cache_hits();
  c.replans = plans_->replans();
  c.estimated_rows = plans_->estimated_rows();
  c.actual_rows = plans_->actual_rows();
  if (parallel_ != nullptr) {
    c.sections = parallel_->pool().sections_run();
    c.tasks = parallel_->pool().tasks_executed();
    c.sliced_units = parallel_->sliced_units();
    c.slices = parallel_->slice_tasks();
    // A borrowed pool may still time sections for an earlier run; this
    // run's timings stay 0 unless it asked for them.
    if (options_.collect_timings) {
      c.match_ns = parallel_->match_ns();
      c.merge_ns = parallel_->merge_ns();
      c.busy_ns = parallel_->pool().busy_ns();
    }
  }
  return c;
}

void ParkStepper::FoldStats() const {
  const SharedCounters now = ReadSharedCounters();
  const SharedCounters& base = baseline_;
  stats_.plans_compiled = now.plans_compiled - base.plans_compiled;
  stats_.plan_cache_hits = now.cache_hits - base.cache_hits;
  stats_.plan_replans = now.replans - base.replans;
  stats_.planner_estimated_rows = now.estimated_rows - base.estimated_rows;
  stats_.planner_actual_rows = now.actual_rows - base.actual_rows;
  stats_.parallel_sections = now.sections - base.sections;
  stats_.parallel_tasks = now.tasks - base.tasks;
  stats_.parallel_sliced_units = now.sliced_units - base.sliced_units;
  stats_.parallel_slices = now.slices - base.slices;
  stats_.timings.parallel_match_ns = now.match_ns - base.match_ns;
  stats_.timings.parallel_merge_ns = now.merge_ns - base.merge_ns;
  stats_.timings.pool_busy_ns = now.busy_ns - base.busy_ns;
  if (parallel_ != nullptr) {
    stats_.parallel_max_queue_depth = parallel_->pool().max_section_tasks();
  }
  if (cancel_ != nullptr) {
    stats_.peak_memory_bytes = cancel_->peak_bytes();
    stats_.derivations_charged = cancel_->work_charged();
  }
  stats_.blocked_instances = blocked_.size();
  // The columnar footprint of the run's three stores. All three are
  // compacted by the coordinator at every batch-mode Γ step, so these
  // counters are deterministic and thread-count invariant (zero on
  // tuple-mode runs: nothing triggers a compaction).
  Database::ColumnarFootprint fp = interp_.base().ColumnarStats();
  for (const Database* marks : {&interp_.plus(), &interp_.minus()}) {
    const Database::ColumnarFootprint more = marks->ColumnarStats();
    fp.segments += more.segments;
    fp.segment_rows += more.segment_rows;
    fp.compactions += more.compactions;
    fp.dict_entries += more.dict_entries;
  }
  stats_.storage_segments = static_cast<size_t>(fp.segments);
  stats_.storage_segment_rows = static_cast<size_t>(fp.segment_rows);
  stats_.storage_compactions = static_cast<size_t>(fp.compactions);
  stats_.storage_dict_entries = static_cast<size_t>(fp.dict_entries);
  stats_.exec_batch_rows =
      exec_stats_.batch_rows.load(std::memory_order_relaxed);
  stats_.exec_probe_rows =
      exec_stats_.probe_rows.load(std::memory_order_relaxed);
  stats_.exec_merge_rows =
      exec_stats_.merge_rows.load(std::memory_order_relaxed);
}

const ParkStats& ParkStepper::stats() const {
  if (!done_) FoldStats();
  return stats_;
}

Result<GammaResult> ParkStepper::EvaluateGamma(GammaMode mode, int step) {
  const bool timed = options_.collect_timings;
  const int64_t gamma_start_ns = timed ? MonotonicNanos() : 0;
  const ExecMode exec = options_.exec_mode;
  GammaResult gamma;
  switch (mode) {
    case GammaMode::kNaive:
      gamma = ComputeGamma(program_, blocked_, interp_, *plans_, parallel_,
                           cancel_, exec, &exec_stats_);
      break;
    case GammaMode::kDeltaFiltered:
      gamma = ComputeGammaFiltered(program_, blocked_, interp_, delta_,
                                   *graph_, *plans_, parallel_, cancel_, exec,
                                   &exec_stats_);
      break;
    case GammaMode::kSemiNaive:
      gamma = ComputeGammaSemiNaive(program_, blocked_, interp_,
                                    delta_atoms_, *graph_, *plans_, parallel_,
                                    cancel_, exec, &exec_stats_);
      break;
  }
  if (timed) {
    stats_.timings.gamma_ns +=
        static_cast<uint64_t>(MonotonicNanos() - gamma_start_ns);
  }
  // A fired token makes the Γ result partial: discard it and surface the
  // cause. The input database is untouched (evaluation mutates only the
  // copy-on-write interpretation).
  if (cancel_ != nullptr) {
    // The merged derivation list lives on the coordinator until applied.
    cancel_->UpdateScope(gamma_scope_,
                         gamma.derivations.capacity() * sizeof(Derivation));
    if (cancel_->Check()) return cancel_->ToStatus();
  }
  stats_.rule_evaluations += gamma.rules_evaluated;
  stats_.sched_rules_considered += gamma.rules_considered;
  stats_.sched_rules_skipped += gamma.rules_skipped;
  stats_.sched_pipeline_stages += gamma.pipeline_stages;
  observer_.Notify([&](RunObserver& o) {
    o.OnGammaSection(GammaSectionInfo{step, gamma.rules_evaluated,
                                      gamma.derivations.size(),
                                      gamma.newly_marked, gamma.consistent});
  });
  return gamma;
}

Result<StepOutcome> ParkStepper::Step() {
  return Advance(/*render_conflicts=*/true);
}

Status ParkStepper::RunToFixpoint() {
  while (!done_) {
    PARK_RETURN_IF_ERROR(Advance(/*render_conflicts=*/false).status());
  }
  return Status::OK();
}

Result<Database> ParkStepper::Finish() {
  PARK_RETURN_IF_ERROR(RunToFixpoint());
  return interp_.Incorporate();
}

Result<StepOutcome> ParkStepper::Advance(bool render_conflicts) {
  if (done_) return StepOutcome{};  // kFixpoint
  if (steps_taken_ >= options_.max_steps) {
    return ResourceExhaustedError(StrFormat(
        "PARK evaluation exceeded max_steps=%zu", options_.max_steps));
  }
  if (cancel_ != nullptr && cancel_->Check()) return cancel_->ToStatus();
  // `step` numbers the transitions as Park() reports them: the fixpoint
  // event carries the number of the last applied step, a Γ application or
  // resolution the number after it.
  const int step = static_cast<int>(steps_taken_++);
  observer_.Notify([&](RunObserver& o) { o.OnStepStart(step); });
  const bool timed = options_.collect_timings;
  PARK_ASSIGN_OR_RETURN(GammaResult gamma,
                        EvaluateGamma(options_.gamma_mode, step));

  if (!gamma.consistent) {
    if (seeded_) {
      return FailedPreconditionError(
          "seeded closure met a conflict; conflicts need the full "
          "evaluator");
    }
    return Resolve(std::move(gamma), step, render_conflicts);
  }
  if (gamma.newly_marked == 0) {
    // Γ(P,B)(I) = I: the bi-structure is a fixpoint of Δ.
    done_ = true;
    trace_.RecordFixpoint(interp_, step);
    observer_.Notify([&](RunObserver& o) { o.OnFixpoint(step); });
    FoldStats();
    if (timed) {
      stats_.timings.total_ns =
          static_cast<uint64_t>(MonotonicNanos() - run_start_ns_);
    }
    observer_.Notify([&](RunObserver& o) { o.OnRunEnd(stats_); });
    return StepOutcome{};  // kFixpoint
  }
  StepOutcome outcome;
  outcome.kind = StepOutcome::Kind::kGamma;
  const int64_t apply_start_ns = timed ? MonotonicNanos() : 0;
  switch (options_.gamma_mode) {
    case GammaMode::kNaive:
      outcome.new_marks = ApplyDerivations(gamma.derivations, interp_);
      break;
    case GammaMode::kDeltaFiltered:
      outcome.new_marks =
          ApplyDerivationsTracked(gamma.derivations, interp_, delta_);
      break;
    case GammaMode::kSemiNaive:
      outcome.new_marks = ApplyDerivationsTrackedAtoms(
          gamma.derivations, interp_, delta_atoms_);
      break;
  }
  if (timed) {
    stats_.timings.apply_ns +=
        static_cast<uint64_t>(MonotonicNanos() - apply_start_ns);
  }
  stats_.derived_marks += outcome.new_marks;
  ++stats_.gamma_steps;
  trace_.RecordGammaStep(interp_, step + 1);
  return outcome;
}

Result<StepOutcome> ParkStepper::Resolve(GammaResult gamma, int step,
                                         bool render_conflicts) {
  // This Γ application is counted and shown as a step (the paper's traces
  // include it) but never applied; instead conflicts are resolved, B is
  // extended, and the computation restarts from I°.
  //
  // Conflict triples must be MAXIMAL (§4.2) — they need every currently
  // firable instance on each side, which a delta-driven evaluation may
  // have skipped — so recompute the full Γ before building them.
  if (options_.gamma_mode != GammaMode::kNaive) {
    PARK_ASSIGN_OR_RETURN(gamma, EvaluateGamma(GammaMode::kNaive, step));
  }
  ++step;
  const SymbolTable& symbols = *program_.symbols();
  const bool tracing = trace_.level() != TraceLevel::kNone;
  if (trace_.level() == TraceLevel::kFull) {
    trace_.RecordInconsistentStep(
        RenderWithDerivations(interp_, gamma.derivations, symbols), step);
  }
  const bool timed = options_.collect_timings;
  const int64_t conflict_start_ns = timed ? MonotonicNanos() : 0;
  std::vector<Conflict> conflicts = BuildConflicts(gamma, interp_);
  if (options_.block_granularity == BlockGranularity::kFirstConflictOnly &&
      conflicts.size() > 1) {
    conflicts.resize(1);
  }
  StepOutcome outcome;
  outcome.kind = StepOutcome::Kind::kResolution;
  if (tracing || render_conflicts) {
    for (const Conflict& c : conflicts) {
      outcome.conflicts.push_back(c.ToString(program_, symbols));
    }
    if (tracing) trace_.RecordConflict(outcome.conflicts, step);
  }

  PolicyContext context{db_, program_, interp_,
                        static_cast<int>(stats_.restarts)};
  std::vector<std::string> resolution_notes;
  for (const Conflict& conflict : conflicts) {
    ++stats_.policy_invocations;
    const int64_t policy_start_ns = timed ? MonotonicNanos() : 0;
    PARK_ASSIGN_OR_RETURN(Vote vote, policy_->Select(context, conflict));
    if (timed) {
      stats_.timings.policy_ns +=
          static_cast<uint64_t>(MonotonicNanos() - policy_start_ns);
    }
    if (vote == Vote::kAbstain) {
      return AbortedError(StrFormat(
          "policy '%s' abstained on conflict over %s; wrap it in a "
          "composite with a complete fallback (e.g. inertia)",
          std::string(policy_->name()).c_str(),
          conflict.atom.ToString(symbols).c_str()));
    }
    ++stats_.conflicts_resolved;
    observer_.Notify(
        [&](RunObserver& o) { o.OnPolicyDecision(conflict, vote); });
    const std::vector<RuleGrounding>& losing =
        vote == Vote::kInsert ? conflict.deleters : conflict.inserters;
    for (const RuleGrounding& g : losing) {
      if (blocked_.insert(g).second) ++outcome.newly_blocked;
    }
    if (tracing) {
      resolution_notes.push_back(StrFormat(
          "%s on %s: block %zu instance(s)", VoteToString(vote),
          conflict.atom.ToString(symbols).c_str(), losing.size()));
    }
  }
  observer_.Notify([&](RunObserver& o) {
    o.OnConflictRound(ConflictRoundInfo{stats_.restarts, conflicts.size(),
                                        outcome.newly_blocked});
  });
  if (timed) {
    stats_.timings.conflict_ns +=
        static_cast<uint64_t>(MonotonicNanos() - conflict_start_ns);
  }
  if (outcome.newly_blocked == 0) {
    return AbortedError(
        "conflict resolution made no progress (no new blocked "
        "instances); the policy decisions are cyclic");
  }
  trace_.RecordResolution(std::move(resolution_notes), step);
  interp_.ClearMarks();
  delta_.Reset();
  delta_atoms_.Reset();
  ++stats_.restarts;
  observer_.Notify([&](RunObserver& o) { o.OnRestart(stats_.restarts); });
  trace_.RecordRestart(step);
  trace_.RecordInitial(interp_, step);
  return outcome;
}

}  // namespace park
