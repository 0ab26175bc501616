// The diagnosis engine (paper §4.5, Figure 2, Algorithm 1).
//
// Given a buggy production trace, a profile, and a way to execute fault
// schedules, the engine searches for a schedule that reproduces the bug with
// a target replay rate, refining the fault context in three levels:
//
//   Level 1 — faults in production order, timed injection, syscall inputs.
//   Level 2 — nth-invocation sweeps for SCFs; Algorithm 1 function-chain
//             contexts for PS/ND faults, with role-specific Amplification
//             and candidate pruning.
//   Level 3 — intra-function offsets of the function immediately preceding
//             a fault, prioritized: syscall call sites, call sites, rest.
//
// Every generated schedule is executed by the caller-provided runner; a
// schedule that shows the bug is confirmed over 10 reruns (early-abandoned
// after 4 clean runs, like the paper's confirmBug).
//
// Parallel execution: diagnosis is embarrassingly parallel — every candidate
// runs in its own seeded SimWorld — so with `parallelism > 1` the engine
// speculatively executes candidates on a worker pool (Level-1 attempts as one
// batch, SCF nth-sweeps and every fault's Level-3 offsets as wave-fronts,
// Algorithm 1's function chain as windows that predict each step extends it,
// confirmBug's reruns as one batch with early-abandon cancellation) while
// consuming results strictly in generation order. Seeds are pre-assigned
// per (schedule, run-index) — never drawn from a shared stream on the
// execution path — so the engine's decisions and the returned
// DiagnosisResult are bit-for-bit identical at any parallelism level.
#ifndef SRC_DIAGNOSE_ENGINE_H_
#define SRC_DIAGNOSE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analyze/schedule_linter.h"
#include "src/causal/feasibility.h"
#include "src/common/parallel.h"
#include "src/diagnose/extract.h"
#include "src/obs/metrics.h"
#include "src/exec/executor.h"
#include "src/profile/binary_info.h"
#include "src/profile/profiler.h"
#include "src/schedule/fault_schedule.h"
#include "src/trace/event.h"

namespace rose {

struct ScheduleRunOutcome {
  bool bug = false;
  Trace trace;
  ExecutionFeedback feedback;
  SimTime virtual_duration = 0;
};

// One requested execution of a candidate schedule. `want_trace` is false for
// confirmBug reruns: only the bug verdict matters there, so the runner can
// skip dumping (and copying back) the million-event window entirely. The
// tracer must stay attached either way — its virtual-time costs are part of
// the simulated execution, and dropping them would change the run.
struct ScheduleRunRequest {
  const FaultSchedule* schedule = nullptr;
  uint64_t seed = 0;
  bool want_trace = true;
};

// The seed for one execution of one candidate schedule. Deriving seeds from
// (base_seed, canonical schedule hash, per-schedule run index) — instead of
// bumping a shared counter per run — keeps every schedule's seed stream
// stable under engine restructuring: adding or removing a probe of one
// schedule never shifts the seeds of any other, which is what makes
// speculative parallel execution reproduce the serial engine exactly.
uint64_t DeriveRunSeed(uint64_t base_seed, uint64_t schedule_hash, uint32_t run_index);

// A milestone in a running diagnosis, reported through
// DiagnosisConfig::on_progress. Observation only: the callback sees every
// level transition, candidate execution, and confirmBug rerun in the
// deterministic consumption order (it fires on the engine's consuming
// thread, never from workers), and nothing the callback does can change the
// DiagnosisResult. The serve daemon streams these to clients as progress
// frames; leave the callback empty and diagnosis is byte-identical.
struct DiagnosisProgress {
  enum class Kind : int8_t { kLevelStart = 0, kCandidate, kConfirmRun };
  Kind kind = Kind::kCandidate;
  int level = 0;               // 1..3 (0 for the final pruning-runs phase).
  int schedules_generated = 0;  // Counter snapshots at emission time.
  int total_runs = 0;
  // kConfirmRun: running replay-rate estimate over the reruns consumed so far.
  double rate = 0;
  // kCandidate: the schedule's fault summary.
  std::string detail;
};

struct DiagnosisConfig {
  double target_replay_rate = 60.0;
  int confirm_runs = 10;
  // confirmBug abandons once this many clean runs accumulate.
  int confirm_abandon_after_clean = 4;
  int max_scf_sweep = 50;
  // The paper notes schedules can be unluckily discarded after one clean run
  // (its "false negatives" limitation) and proposes multiple executions per
  // candidate; Level 1 gets this many attempts.
  int level1_attempts = 2;
  int max_schedules = 500;
  // Level 2 yields to Level 3 once this many schedules were generated, so
  // offset exploration always gets a share of the budget.
  int level2_budget = 350;
  // Longest function chain Algorithm 1 builds for one fault.
  int max_context_chain = 6;
  uint64_t base_seed = 40'000;
  // Worker threads executing candidate runs. 1 (the default) runs everything
  // inline on the caller's thread; any value produces the same
  // DiagnosisResult, provided the runner is safe to invoke concurrently
  // (see BugRunner::RunOnce).
  int parallelism = 1;
  // Server nodes (amplification targets).
  std::vector<NodeId> server_nodes;
  // Progress observer (see DiagnosisProgress); null = silent.
  std::function<void(const DiagnosisProgress&)> on_progress;
  // Level-1 order exploration: when the production order fails and more than
  // one fault was extracted, up to this many alternative injection orders
  // are enumerated (lexicographically) before Level 2. 0 disables.
  int level1_permutations = 24;
  // Ablations.
  bool enforce_fault_order = true;
  bool use_amplification = true;
  bool use_benign_filter = true;
  // Causal pruning (DESIGN.md §12): statically reject order permutations the
  // production trace's happens-before order contradicts (TB301), before any
  // run is spent on them. The rejection happens before the dedup/seed step,
  // and refinement budgets are anchored after the permutation wave, so the
  // diagnosis output is byte-identical with it on or off — only the number
  // of wasted replays changes. (Commutation-class dedup is part of the
  // enumeration itself, not of this toggle: reordering a commuting pair
  // still shifts injection times through the after_fault chain, so the
  // swapped order is a distinct execution that must be skipped identically
  // in both modes or not at all.)
  bool use_causal_pruning = true;
  // Naive-enumeration baseline for bench_causal: when false, Level-1 order
  // enumeration keeps commutation-class duplicates (TB304) instead of
  // collapsing each class to its trace-ordered representative. Measurement
  // ablation only — it changes which candidates enter the wave, so the
  // ON-vs-OFF byte-identity guarantee above does not extend to it.
  bool level1_dedup_commuted = true;
};

struct DiagnosisResult {
  bool reproduced = false;
  FaultSchedule schedule;
  double replay_rate = 0;
  int schedules_generated = 0;
  // Candidates the static linter rejected before any run was spent on them.
  int schedules_pruned_invalid = 0;
  // Candidates canonically equal to an already-executed schedule (e.g. the
  // Level-2 SCF sweep's nth=1 entry, which is the Level-1 schedule again).
  int schedules_pruned_duplicate = 0;
  // Candidates whose enforced order contradicts the production trace's
  // happens-before order (TB301) — statically rejected, never run.
  int schedules_pruned_infeasible = 0;
  // Non-representative members of a commutation class (TB304), skipped
  // during Level-1 order enumeration: the trace-ordered permutation of the
  // same concurrent faults is already in the wave. Counted identically with
  // pruning on or off — class dedup is part of the enumeration.
  int schedules_pruned_commuted = 0;
  int total_runs = 0;
  SimTime virtual_time = 0;
  double fr_percent = 0;
  int level = 0;  // 1..3, or 0 if never reproduced.
  std::string fault_summary;
};

class DiagnosisEngine {
 public:
  using ScheduleRunner = std::function<ScheduleRunOutcome(const ScheduleRunRequest&)>;

  // `production` is a non-owning view; the caller keeps the trace (and its
  // string pool) alive and unmodified for the engine's lifetime.
  DiagnosisEngine(TraceView production, const Profile* profile, const BinaryInfo* binary,
                  ScheduleRunner runner, DiagnosisConfig config);

  DiagnosisResult Run();

 private:
  struct Candidate {
    FaultSchedule schedule;
    double rate = 0;
    int level = 0;
  };

  // A candidate probe with pruning verdict and pre-assigned seed, formed in
  // generation order before any execution.
  struct PlannedProbe {
    enum class Action : int8_t {
      kRun,
      kPruneInvalid,
      kPruneDuplicate,
      kPruneInfeasible,
    };
    FaultSchedule schedule;
    uint64_t hash = 0;
    Action action = Action::kRun;
    // Whether planning inserted `hash` into executed_hashes_ (rolled back if
    // the probe is abandoned unconsumed).
    bool inserted_hash = false;
    // Speculative per-schedule run index; re-validated at consumption.
    uint32_t tentative_index = 0;
    int batch_slot = -1;
  };

  FaultSchedule BuildLevel1() const;
  ScheduledFault MakeScheduledFault(const CandidateFault& fault, int index) const;

  uint64_t SeedFor(uint64_t schedule_hash, uint32_t run_index) const {
    return DeriveRunSeed(config_.base_seed, schedule_hash, run_index);
  }

  // Reports one milestone through config_.on_progress (no-op when unset).
  void Notify(DiagnosisProgress::Kind kind, const DiagnosisResult& result, double rate,
              std::string detail) const;

  // Lints, dedups, and assigns the speculative run index for one candidate.
  // `local_counts` tracks in-wave index bumps for not-yet-committed probes.
  // With `causal_prune`, candidates the happens-before analysis proves
  // infeasible (or redundant under commutation) are rejected before the
  // hash/dedup step, leaving no mark on the engine's state.
  PlannedProbe PlanProbe(FaultSchedule schedule, bool allow_duplicate, bool causal_prune,
                         std::map<uint64_t, uint32_t>* local_counts);

  // One speculative window: probes planned in generation order, their
  // runnable ones launched as one batch. RunWave's chunks and Algorithm 1's
  // chain windows are both ProbeWindows. The tasks share ownership of the
  // probes and read nothing else of the engine but runner_, so an abandoned
  // window's batch can outlive it while its in-flight runs finish.
  struct ProbeWindow {
    std::shared_ptr<std::vector<PlannedProbe>> probes;
    std::unique_ptr<OrderedBatch<ScheduleRunOutcome>> batch;  // By batch slot.

    PlannedProbe& probe(size_t i) { return (*probes)[i]; }
    size_t size() const { return probes->size(); }
  };

  // Probes per window: twice the pool's threads, or 1 serially — where a
  // window is exactly the classic plan-run-decide step.
  size_t WindowSize() const;

  // Plans `schedules` (PlanProbe, in order) and launches the runnable ones.
  ProbeWindow LaunchWindow(std::vector<FaultSchedule> schedules, bool allow_duplicate,
                           bool causal_prune);

  // Drops every probe of `window` after the first `consumed`: unstarted runs
  // never start, landed outcomes are freed, and the dedup-hash insertions of
  // the dropped probes are rolled back, so they leave no mark on the engine's
  // state. The batch is parked in retired_ until its in-flight runs finish.
  void AbandonWindow(ProbeWindow* window, size_t consumed);

  // Consumes one planned probe in generation order: applies pruning
  // accounting, obtains the outcome (from `window` when its pre-assigned seed
  // is still the committed one, else by re-running inline), commits the run
  // counter, and confirms on a bug. Returns true when the confirmed rate
  // reaches the target.
  bool ConsumeProbe(PlannedProbe& probe, ProbeWindow* window, int level,
                    DiagnosisResult* result, ScheduleRunOutcome* outcome_out);

  // Plans and executes `schedules` as windows of independent probes,
  // consuming results in generation order. Stops on reproduction or, when
  // `budget > 0`, once result->schedules_generated reaches it; abandoned
  // probes leave no mark on the engine's state. Returns true on reproduction.
  bool RunWave(std::vector<FaultSchedule> schedules, int level, bool allow_duplicate, int budget,
               DiagnosisResult* result, bool causal_prune = false);

  // Executes one schedule (counts it) and, if the bug shows, confirms it.
  // Returns true when the confirmed rate reaches the target. Statically
  // invalid or canonically-duplicate schedules are pruned without a run;
  // `allow_duplicate` exempts intentional re-executions (Level-1 attempts).
  bool RunAndMaybeConfirm(const FaultSchedule& schedule, int level, DiagnosisResult* result,
                          ScheduleRunOutcome* outcome_out = nullptr,
                          bool allow_duplicate = false);
  double ConfirmBug(const FaultSchedule& schedule, DiagnosisResult* result);

  // Algorithm 1 for PS/ND fault at position `fault_index` in the schedule.
  bool FindContextForFault(FaultSchedule* schedule, size_t fault_index,
                           size_t candidate_index, DiagnosisResult* result);
  // Algorithm 1's candidate for `chain` (most recent function first): fault
  // `fault_index` of `schedule` conditioned on the chain, amplified or not.
  // Leaves the chain's conditions on schedule->faults[fault_index].
  FaultSchedule ChainStep(FaultSchedule* schedule, size_t fault_index,
                          const std::vector<int32_t>& chain, bool amplified) const;
  // Replicates fault `fault_index`'s (fault, context) across all nodes.
  FaultSchedule Amplify(const FaultSchedule& schedule, size_t fault_index) const;
  // (correctOrder, faultInjected) from a testing run.
  std::pair<bool, bool> ProcessTrace(const ScheduleRunOutcome& outcome, size_t fault_index,
                                     NodeId node, const std::vector<int32_t>& chain) const;

  bool Level2(FaultSchedule* schedule, const std::vector<size_t>& priority,
              DiagnosisResult* result);
  bool Level3(FaultSchedule* schedule, const std::vector<size_t>& priority,
              DiagnosisResult* result);

  TraceView production_;
  const Profile* profile_;
  const BinaryInfo* binary_;
  ScheduleRunner runner_;
  DiagnosisConfig config_;
  ExtractionResult extraction_;
  ScheduleLinter linter_;
  // Memoized FunctionsBefore over the immutable production trace.
  TraceIndex production_index_;
  // Happens-before order of the production trace and the feasibility
  // checker over it (DESIGN.md §12); the checker borrows the graph.
  CausalGraph causal_;
  FeasibilityChecker feasibility_;
  // Absolute schedule-count cutoffs for Levels 2 and 3, fixed at Level-2
  // entry as entry count + configured budget. Relative budgets keep the
  // refinement levels' behavior independent of how many Level-1 orderings
  // causal pruning removed.
  int level2_cap_ = 0;
  int level3_cap_ = 0;
  // Canonical hashes of every schedule handed to the runner so far.
  std::set<uint64_t> executed_hashes_;
  // Per-schedule committed run counts (canonical hash -> next run index).
  std::map<uint64_t, uint32_t> run_counters_;
  std::vector<Candidate> saved_candidates_;
  // Level currently being consumed, for progress reporting only.
  int notify_level_ = 0;
  // Worker pool for speculative candidate execution; null when parallelism <= 1.
  std::unique_ptr<WorkerPool> pool_;

  // rose::obs self-metrics (docs/metrics.md "engine.*"), resolved once at
  // construction. Strictly write-only: the search never branches on them —
  // that is what keeps parallel and serial diagnoses byte-identical.
  struct EngineMetrics {
    Counter* candidates_generated;
    Counter* pruned_invalid;
    Counter* pruned_duplicate;
    Counter* causal_infeasible;
    Counter* causal_commuted;
    Counter* confirmed;
    Counter* runs;
    Counter* speculation_misses;
    Counter* speculative_abandoned;
    Counter* confirm_early_abandons;
    // Indexed by level 1..3 (slot 0 unused).
    Counter* level_candidates[4];
    Counter* level_confirmed[4];
    Counter* level_causal_pruned[4];
    Histogram* wave_ns;
    Histogram* confirm_ns;
  };
  EngineMetrics metrics_;
  // Batches of abandoned windows whose in-flight runs may still be going;
  // AbandonWindow drops the idle ones. Declared last, so the engine waits
  // for those runs (which call runner_) before destroying anything they use.
  std::vector<std::unique_ptr<OrderedBatch<ScheduleRunOutcome>>> retired_;
};

}  // namespace rose

#endif  // SRC_DIAGNOSE_ENGINE_H_
