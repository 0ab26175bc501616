#include "src/diagnose/engine.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "src/common/rng.h"
#include "src/common/strings.h"

namespace rose {

uint64_t DeriveRunSeed(uint64_t base_seed, uint64_t schedule_hash, uint32_t run_index) {
  uint64_t state = base_seed;
  uint64_t seed = SplitMix64(state);
  state = seed ^ schedule_hash;
  seed = SplitMix64(state);
  state = seed ^ run_index;
  return SplitMix64(state);
}

DiagnosisEngine::DiagnosisEngine(TraceView production, const Profile* profile,
                                 const BinaryInfo* binary, ScheduleRunner runner,
                                 DiagnosisConfig config)
    : production_(production), profile_(profile), binary_(binary),
      runner_(std::move(runner)), config_(std::move(config)),
      production_index_(production), causal_(production),
      level2_cap_(config_.level2_budget), level3_cap_(config_.max_schedules) {
  feasibility_ = FeasibilityChecker(&causal_, production_);
  ExtractOptions options;
  options.use_benign_filter = config_.use_benign_filter;
  extraction_ = ExtractFaults(production_, *profile_, options);

  // The linter's known-node set: everything the production run spawned plus
  // the configured server nodes (amplification replicates onto those).
  LintOptions lint;
  for (NodeId node : config_.server_nodes) {
    lint.known_nodes.insert(node);
  }
  for (const TraceEvent& event : production_) {
    if (event.node != kNoNode) {
      lint.known_nodes.insert(event.node);
    }
  }
  linter_ = ScheduleLinter(std::move(lint));

  if (config_.parallelism > 1) {
    pool_ = std::make_unique<WorkerPool>(config_.parallelism);
  }

  MetricRegistry& reg = MetricRegistry::Global();
  metrics_.candidates_generated = reg.GetCounter("engine.candidates_generated");
  metrics_.pruned_invalid = reg.GetCounter("engine.candidates_pruned_invalid");
  metrics_.pruned_duplicate = reg.GetCounter("engine.candidates_pruned_duplicate");
  metrics_.causal_infeasible = reg.GetCounter("engine.causal_pruned_infeasible");
  metrics_.causal_commuted = reg.GetCounter("engine.causal_pruned_commuted");
  metrics_.confirmed = reg.GetCounter("engine.candidates_confirmed");
  metrics_.runs = reg.GetCounter("engine.runs");
  metrics_.speculation_misses = reg.GetCounter("engine.speculation_misses");
  metrics_.speculative_abandoned = reg.GetCounter("engine.speculative_abandoned");
  metrics_.confirm_early_abandons = reg.GetCounter("engine.confirm_early_abandons");
  for (int level = 1; level <= 3; level++) {
    const std::string prefix = "engine.level" + std::to_string(level);
    metrics_.level_candidates[level] = reg.GetCounter(prefix + ".candidates");
    metrics_.level_confirmed[level] = reg.GetCounter(prefix + ".confirmed");
    metrics_.level_causal_pruned[level] = reg.GetCounter(prefix + ".causal_pruned");
  }
  metrics_.level_candidates[0] = nullptr;  // Levels are 1..3; guarded at use.
  metrics_.level_confirmed[0] = nullptr;
  metrics_.level_causal_pruned[0] = nullptr;
  metrics_.wave_ns = reg.GetHistogram("engine.wave_ns");
  metrics_.confirm_ns = reg.GetHistogram("engine.confirm_ns");
}

ScheduledFault DiagnosisEngine::MakeScheduledFault(const CandidateFault& fault,
                                                   int index) const {
  ScheduledFault scheduled;
  scheduled.target_node = fault.node;
  if (config_.enforce_fault_order && index > 0) {
    scheduled.conditions.push_back(Condition::AfterFault(index - 1));
  }
  switch (fault.kind) {
    case FaultKind::kSyscallFailure:
      scheduled.kind = FaultKind::kSyscallFailure;
      scheduled.syscall.sys = fault.sys;
      scheduled.syscall.err = fault.err;
      scheduled.syscall.path_filter = fault.filename;
      scheduled.syscall.nth = 1;
      break;
    case FaultKind::kProcessCrash:
      scheduled.kind = FaultKind::kProcessCrash;
      scheduled.conditions.push_back(Condition::AtTime(fault.ts));
      break;
    case FaultKind::kProcessPause:
      scheduled.kind = FaultKind::kProcessPause;
      scheduled.process.pause_duration = fault.pause_duration;
      scheduled.conditions.push_back(Condition::AtTime(fault.ts));
      break;
    case FaultKind::kNetworkPartition:
      scheduled.kind = FaultKind::kNetworkPartition;
      scheduled.network.group_a = fault.group_a;
      scheduled.network.group_b = fault.group_b;
      scheduled.network.duration = fault.nd_duration;
      scheduled.conditions.push_back(Condition::AtTime(fault.ts));
      break;
  }
  return scheduled;
}

FaultSchedule DiagnosisEngine::BuildLevel1() const {
  FaultSchedule schedule;
  schedule.name = "level1";
  for (size_t i = 0; i < extraction_.faults.size(); i++) {
    schedule.faults.push_back(MakeScheduledFault(extraction_.faults[i], static_cast<int>(i)));
  }
  return schedule;
}

void DiagnosisEngine::Notify(DiagnosisProgress::Kind kind, const DiagnosisResult& result,
                             double rate, std::string detail) const {
  if (!config_.on_progress) {
    return;
  }
  DiagnosisProgress progress;
  progress.kind = kind;
  progress.level = notify_level_;
  progress.schedules_generated = result.schedules_generated;
  progress.total_runs = result.total_runs;
  progress.rate = rate;
  progress.detail = std::move(detail);
  config_.on_progress(progress);
}

double DiagnosisEngine::ConfirmBug(const FaultSchedule& schedule, DiagnosisResult* result) {
  ScopedTimer confirm_timer(metrics_.confirm_ns);
  const uint64_t hash = CanonicalHash(schedule);
  const uint32_t base_index = run_counters_[hash];
  // All reruns are independent, so they form one batch; seeds are
  // pre-assigned from the schedule's own run-index stream. Abandoning
  // in-flight work leaves the committed counter at the consumed count, so a
  // later re-confirmation of the same schedule draws fresh seeds.
  std::vector<std::function<ScheduleRunOutcome()>> tasks;
  tasks.reserve(static_cast<size_t>(config_.confirm_runs));
  for (int run = 0; run < config_.confirm_runs; run++) {
    const uint64_t seed = SeedFor(hash, base_index + static_cast<uint32_t>(run));
    // Reruns only answer "did the bug show?" — no window dump needed.
    tasks.push_back([this, &schedule, seed] {
      return runner_(ScheduleRunRequest{&schedule, seed, /*want_trace=*/false});
    });
  }
  OrderedBatch<ScheduleRunOutcome> batch(pool_.get(), std::move(tasks));

  int bug_runs = 0;
  int clean_runs = 0;
  uint32_t consumed = 0;
  for (int run = 0; run < config_.confirm_runs; run++) {
    if (clean_runs >= config_.confirm_abandon_after_clean) {
      // The target rate is already unreachable; stop early (paper line 26).
      batch.Abandon();
      metrics_.confirm_early_abandons->Inc();
      metrics_.speculative_abandoned->Inc(
          static_cast<uint64_t>(config_.confirm_runs) - consumed);
      run_counters_[hash] = base_index + consumed;
      return 0;
    }
    const ScheduleRunOutcome& outcome = batch.Get(static_cast<size_t>(run));
    consumed++;
    result->total_runs++;
    metrics_.runs->Inc();
    result->virtual_time += outcome.virtual_duration;
    if (outcome.bug) {
      bug_runs++;
    } else {
      clean_runs++;
    }
    Notify(DiagnosisProgress::Kind::kConfirmRun, *result,
           100.0 * static_cast<double>(bug_runs) / static_cast<double>(consumed), "");
  }
  run_counters_[hash] = base_index + consumed;
  return 100.0 * static_cast<double>(bug_runs) / static_cast<double>(config_.confirm_runs);
}

DiagnosisEngine::PlannedProbe DiagnosisEngine::PlanProbe(
    FaultSchedule schedule, bool allow_duplicate, bool causal_prune,
    std::map<uint64_t, uint32_t>* local_counts) {
  // Static pruning: a candidate that cannot fire as intended, or that is
  // canonically identical to one already executed, never reaches the runner.
  PlannedProbe probe;
  probe.schedule = std::move(schedule);
  if (HasErrors(linter_.Lint(probe.schedule))) {
    probe.action = PlannedProbe::Action::kPruneInvalid;
    return probe;
  }
  if (causal_prune && feasibility_.valid()) {
    // Happens-before pruning (DESIGN.md §12), before the hash/dedup step so
    // rejected candidates leave no mark on the dedup or seed state — the
    // pruned and unpruned engines stay byte-identical downstream.
    const FeasibilityReport report = feasibility_.Check(probe.schedule);
    if (report.verdict == FeasibilityVerdict::kInfeasible) {
      probe.action = PlannedProbe::Action::kPruneInfeasible;
      return probe;
    }
  }
  probe.hash = CanonicalHash(probe.schedule);
  probe.inserted_hash = executed_hashes_.insert(probe.hash).second;
  if (!probe.inserted_hash && !allow_duplicate) {
    probe.action = PlannedProbe::Action::kPruneDuplicate;
    return probe;
  }
  probe.action = PlannedProbe::Action::kRun;
  uint32_t in_wave = 0;
  if (local_counts != nullptr) {
    in_wave = (*local_counts)[probe.hash]++;
  }
  probe.tentative_index = run_counters_[probe.hash] + in_wave;
  return probe;
}

size_t DiagnosisEngine::WindowSize() const {
  return pool_ != nullptr ? static_cast<size_t>(pool_->thread_count()) * 2 : 1;
}

DiagnosisEngine::ProbeWindow DiagnosisEngine::LaunchWindow(std::vector<FaultSchedule> schedules,
                                                           bool allow_duplicate,
                                                           bool causal_prune) {
  ProbeWindow window;
  window.probes = std::make_shared<std::vector<PlannedProbe>>();
  std::vector<PlannedProbe>& probes = *window.probes;
  probes.reserve(schedules.size());
  std::map<uint64_t, uint32_t> local_counts;
  std::vector<std::function<ScheduleRunOutcome()>> tasks;
  for (FaultSchedule& schedule : schedules) {
    PlannedProbe probe =
        PlanProbe(std::move(schedule), allow_duplicate, causal_prune, &local_counts);
    if (probe.action == PlannedProbe::Action::kRun) {
      probe.batch_slot = static_cast<int>(tasks.size());
      tasks.push_back([this, planned = window.probes, index = probes.size(),
                       seed = SeedFor(probe.hash, probe.tentative_index)] {
        return runner_(ScheduleRunRequest{&(*planned)[index].schedule, seed});
      });
    }
    probes.push_back(std::move(probe));
  }
  window.batch =
      std::make_unique<OrderedBatch<ScheduleRunOutcome>>(pool_.get(), std::move(tasks));
  return window;
}

void DiagnosisEngine::AbandonWindow(ProbeWindow* window, size_t consumed) {
  if (consumed >= window->size()) {
    return;  // Nothing speculative is left.
  }
  // Abandoned probes must leave no trace: un-consumed hash insertions are
  // rolled back so later phases dedup exactly like the serial engine, which
  // never planned these candidates at all.
  window->batch->Abandon();
  metrics_.speculative_abandoned->Inc(window->size() - consumed);
  for (size_t j = consumed; j < window->size(); j++) {
    const PlannedProbe& probe = window->probe(j);
    if (probe.inserted_hash) {
      executed_hashes_.erase(probe.hash);
    }
  }
  // Park the batch until its in-flight runs finish; drop the parked batches
  // whose runs have all finished, with their probes.
  retired_.push_back(std::move(window->batch));
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const auto& batch) { return batch->Idle(); }),
                 retired_.end());
}

bool DiagnosisEngine::ConsumeProbe(PlannedProbe& probe, ProbeWindow* window, int level,
                                   DiagnosisResult* result, ScheduleRunOutcome* outcome_out) {
  if (probe.action == PlannedProbe::Action::kPruneInvalid) {
    result->schedules_pruned_invalid++;
    metrics_.pruned_invalid->Inc();
    return false;
  }
  if (probe.action == PlannedProbe::Action::kPruneDuplicate) {
    result->schedules_pruned_duplicate++;
    metrics_.pruned_duplicate->Inc();
    return false;
  }
  if (probe.action == PlannedProbe::Action::kPruneInfeasible) {
    result->schedules_pruned_infeasible++;
    metrics_.causal_infeasible->Inc();
    if (level >= 1 && level <= 3) {
      metrics_.level_causal_pruned[level]->Inc();
    }
    return false;
  }
  result->schedules_generated++;
  metrics_.candidates_generated->Inc();
  if (level >= 1 && level <= 3) {
    metrics_.level_candidates[level]->Inc();
  }
  notify_level_ = level;
  const uint32_t committed = run_counters_[probe.hash];
  ScheduleRunOutcome outcome;
  if (window != nullptr && probe.batch_slot >= 0 && committed == probe.tentative_index) {
    // Each slot is consumed exactly once, so the stored outcome can be moved
    // out instead of copying a whole trace window.
    outcome = std::move(window->batch->Get(static_cast<size_t>(probe.batch_slot)));
  } else {
    // No window (a lone probe), or the speculation missed: an intervening
    // confirmation of the same schedule advanced its run counter, so the
    // pre-assigned seed is stale. Re-run inline with the committed-index
    // seed — this is what keeps parallel results identical to serial ones.
    if (window != nullptr && probe.batch_slot >= 0) {
      metrics_.speculation_misses->Inc();
    }
    outcome = runner_(ScheduleRunRequest{&probe.schedule, SeedFor(probe.hash, committed)});
  }
  run_counters_[probe.hash] = committed + 1;
  result->total_runs++;
  metrics_.runs->Inc();
  result->virtual_time += outcome.virtual_duration;
  const bool bug = outcome.bug;
  Notify(DiagnosisProgress::Kind::kCandidate, *result, bug ? 100.0 : 0.0,
         probe.schedule.Summary());
  if (outcome_out != nullptr) {
    *outcome_out = std::move(outcome);
  }
  if (!bug) {
    return false;
  }
  const double rate = ConfirmBug(probe.schedule, result);
  if (rate >= config_.target_replay_rate) {
    result->reproduced = true;
    result->schedule = probe.schedule;
    result->replay_rate = rate;
    result->level = level;
    metrics_.confirmed->Inc();
    if (level >= 1 && level <= 3) {
      metrics_.level_confirmed[level]->Inc();
    }
    return true;
  }
  saved_candidates_.push_back(Candidate{probe.schedule, rate, level});
  return false;
}

bool DiagnosisEngine::RunWave(std::vector<FaultSchedule> schedules, int level,
                              bool allow_duplicate, int budget, DiagnosisResult* result,
                              bool causal_prune) {
  // Chunked wave-fronts: speculation never runs more than one window ahead
  // of the in-order consumer, bounding wasted runs after a stop.
  const size_t chunk = WindowSize();
  for (size_t next = 0; next < schedules.size(); next += chunk) {
    ScopedTimer wave_timer(metrics_.wave_ns);
    const auto first = schedules.begin() + static_cast<std::ptrdiff_t>(next);
    const auto last = first + static_cast<std::ptrdiff_t>(std::min(chunk, schedules.size() - next));
    ProbeWindow window = LaunchWindow(std::vector<FaultSchedule>(std::make_move_iterator(first),
                                                                 std::make_move_iterator(last)),
                                      allow_duplicate, causal_prune);
    for (size_t i = 0; i < window.size(); i++) {
      const bool reproduced = ConsumeProbe(window.probe(i), &window, level, result, nullptr);
      const bool budget_hit = budget > 0 && result->schedules_generated >= budget;
      if (reproduced || budget_hit) {
        AbandonWindow(&window, i + 1);
        return reproduced;
      }
    }
  }
  return false;
}

bool DiagnosisEngine::RunAndMaybeConfirm(const FaultSchedule& schedule, int level,
                                         DiagnosisResult* result,
                                         ScheduleRunOutcome* outcome_out,
                                         bool allow_duplicate) {
  PlannedProbe probe = PlanProbe(schedule, allow_duplicate, /*causal_prune=*/false, nullptr);
  return ConsumeProbe(probe, nullptr, level, result, outcome_out);
}

std::pair<bool, bool> DiagnosisEngine::ProcessTrace(const ScheduleRunOutcome& outcome,
                                                    size_t fault_index, NodeId node,
                                                    const std::vector<int32_t>& chain) const {
  if (fault_index >= outcome.feedback.outcomes.size()) {
    return {false, false};  // Pruned candidate: no run, no feedback.
  }
  const FaultOutcome& fault = outcome.feedback.outcomes[fault_index];
  if (!fault.injected) {
    return {false, false};
  }
  // AF functions on `node` preceding the injection in the testing run,
  // most recent first, compared against the production chain prefix.
  const std::vector<AfInfo> test_afs = outcome.trace.FunctionsBefore(node, fault.injected_at);
  bool correct_order = true;
  for (size_t i = 0; i < chain.size(); i++) {
    if (i >= test_afs.size() || test_afs[i].function_id != chain[i]) {
      correct_order = false;
      break;
    }
  }
  return {correct_order, true};
}

FaultSchedule DiagnosisEngine::Amplify(const FaultSchedule& schedule,
                                       size_t fault_index) const {
  FaultSchedule amplified = schedule;
  amplified.name += "+amp";
  const ScheduledFault& original = schedule.faults[fault_index];
  for (NodeId node : config_.server_nodes) {
    if (node == original.target_node) {
      continue;
    }
    ScheduledFault replica = original;
    replica.target_node = node;
    // Order-enforcement conditions refer to schedule positions and stay
    // valid; function conditions apply to the replica's own node.
    amplified.faults.push_back(std::move(replica));
  }
  return amplified;
}

FaultSchedule DiagnosisEngine::ChainStep(FaultSchedule* schedule, size_t fault_index,
                                         const std::vector<int32_t>& chain,
                                         bool amplified) const {
  // Rebuild the fault's conditions: keep order enforcement, replace the
  // timed trigger with the function chain (earliest condition first; the
  // most recent production function is the final, injecting condition).
  ScheduledFault& fault = schedule->faults[fault_index];
  fault.conditions.clear();
  if (config_.enforce_fault_order && fault_index > 0) {
    fault.conditions.push_back(Condition::AfterFault(static_cast<int32_t>(fault_index) - 1));
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    fault.conditions.push_back(Condition::FunctionEnter(*it));
  }
  FaultSchedule attempt = amplified ? Amplify(*schedule, fault_index) : *schedule;
  attempt.name =
      StrFormat("level2-f%zu-%s", fault_index, binary_->NameOf(chain.front()).c_str());
  return attempt;
}

bool DiagnosisEngine::FindContextForFault(FaultSchedule* schedule, size_t fault_index,
                                          size_t candidate_index, DiagnosisResult* result) {
  // Each chain extension depends on the previous run's trace, but every
  // chain Algorithm 1 can try is a prefix of one chain known up front, and
  // the run that extends it is the common case. So the chain is speculated:
  // a window plans the next steps as if each extends the chain, runs them as
  // one batch, and consumes them in order. The first outcome that does not
  // extend it (a reproduction, the Level-2 cap, no injection, or an order
  // mismatch) abandons the rest of the window, leaving no mark, and the
  // search goes on serially from the real state. Seeds are pre-assigned, so
  // this makes the same decisions as the one-run-at-a-time loop.
  const CandidateFault& candidate = extraction_.faults[candidate_index];
  // The longest chain: the unique prefix of the functions preceding the
  // fault (paper line 9), capped at max_context_chain. Most recent first, so
  // chain[0] is the injecting function; step k tries chain[0..k].
  std::vector<int32_t> longest;
  for (const AfInfo& af : production_index_.FunctionsBefore(candidate.node, candidate.ts)) {
    if (static_cast<int>(longest.size()) >= config_.max_context_chain ||
        std::find(longest.begin(), longest.end(), af.function_id) != longest.end()) {
      break;
    }
    longest.push_back(af.function_id);
  }

  const auto prefix = [&longest](size_t length) {
    return std::vector<int32_t>(longest.begin(),
                                longest.begin() + static_cast<std::ptrdiff_t>(length));
  };

  const ScheduledFault original = schedule->faults[fault_index];
  bool amplified = false;
  size_t step = 0;
  while (step < longest.size()) {
    const size_t count = std::min(WindowSize(), longest.size() - step);
    std::vector<FaultSchedule> steps;
    steps.reserve(count);
    for (size_t k = step; k < step + count; k++) {
      steps.push_back(ChainStep(schedule, fault_index, prefix(k + 1), amplified));
    }
    ProbeWindow window = LaunchWindow(std::move(steps), /*allow_duplicate=*/false,
                                      /*causal_prune=*/false);
    bool injected = true;
    bool correct_order = true;
    size_t consumed = 0;
    while (injected && correct_order && consumed < window.size()) {
      ScheduleRunOutcome outcome;
      const bool reproduced = ConsumeProbe(window.probe(consumed), &window, 2, result, &outcome);
      consumed++;
      if (reproduced) {
        AbandonWindow(&window, consumed);
        return true;
      }
      if (result->schedules_generated >= level2_cap_) {
        AbandonWindow(&window, consumed);
        schedule->faults[fault_index] = original;
        return false;
      }
      std::tie(correct_order, injected) =
          ProcessTrace(outcome, fault_index, candidate.node, prefix(step + 1));
      step++;
    }
    AbandonWindow(&window, consumed);
    if (injected && correct_order) {
      continue;  // Context not yet precise enough; extend the chain.
    }
    if (injected || !config_.use_amplification || amplified ||
        original.kind == FaultKind::kNetworkPartition) {
      break;  // Order mismatch, or amplification unavailable.
    }
    // Not injected: role-specific state. Replicate across all nodes and
    // retry the chain that was not injected.
    FaultSchedule amp = ChainStep(schedule, fault_index, prefix(step), /*amplified=*/true);
    amp.name = StrFormat("level2-f%zu-amp", fault_index);
    ScheduleRunOutcome amp_outcome;
    if (RunAndMaybeConfirm(amp, 2, result, &amp_outcome)) {
      return true;
    }
    if (result->schedules_generated >= level2_cap_) {
      break;
    }
    // Was the context function observed on any node?
    bool seen_anywhere = false;
    for (const TraceEvent& event : amp_outcome.trace.events()) {
      if (event.type == EventType::kAF && event.af().function_id == longest.front()) {
        seen_anywhere = true;
        break;
      }
    }
    if (!seen_anywhere) {
      break;  // Not role-specific either; give up on this fault.
    }
    amplified = true;  // Keep the amplified form for further refinement.
  }
  // Restore the fault's Level-1 shape before moving to the next fault.
  schedule->faults[fault_index] = original;
  return false;
}

bool DiagnosisEngine::Level2(FaultSchedule* schedule, const std::vector<size_t>& priority,
                             DiagnosisResult* result) {
  for (size_t candidate_index : priority) {
    if (result->schedules_generated >= level2_cap_) {
      return false;  // Leave budget for Level 3.
    }
    const CandidateFault& candidate = extraction_.faults[candidate_index];
    const size_t fault_index = candidate_index;  // Schedule mirrors extraction order.

    if (candidate.kind == FaultKind::kSyscallFailure) {
      const ScheduledFault original = schedule->faults[fault_index];
      // Sweep the invocation count: with inputs, 1..cap; without inputs, up
      // to the profiling-run frequency (hard cap, paper §4.5.2). Every nth is
      // an independent candidate, so the sweep executes as wave-fronts.
      int limit = config_.max_scf_sweep;
      if (candidate.filename.empty()) {
        const auto profiled = static_cast<int>(profile_->SyscallCount(candidate.sys));
        limit = std::min(config_.max_scf_sweep, std::max(profiled, 1));
      }
      std::vector<FaultSchedule> sweep;
      sweep.reserve(static_cast<size_t>(limit));
      for (int nth = 1; nth <= limit; nth++) {
        schedule->faults[fault_index].syscall.nth = nth;
        FaultSchedule attempt = *schedule;
        attempt.name = StrFormat("level2-f%zu-nth%d", fault_index, nth);
        sweep.push_back(std::move(attempt));
      }
      const bool reproduced =
          RunWave(std::move(sweep), 2, /*allow_duplicate=*/false, level2_cap_, result);
      schedule->faults[fault_index] = original;
      if (reproduced) {
        return true;
      }
    } else {
      if (FindContextForFault(schedule, fault_index, candidate_index, result)) {
        return true;
      }
    }
  }
  return false;
}

bool DiagnosisEngine::Level3(FaultSchedule* schedule, const std::vector<size_t>& priority,
                             DiagnosisResult* result) {
  // Offsets are independent candidates, across faults too: every fault's
  // offsets, faults in priority order and each fault's offsets in priority
  // order, form one wave. Level 3 can start with its budget already spent
  // only when level2_budget >= max_schedules; then the wave holds just the
  // first eligible fault's offsets, so RunWave consumes the first of them
  // (or none) and stops, as the per-fault waves did.
  const bool spent = result->schedules_generated >= level3_cap_;
  std::vector<FaultSchedule> attempts;
  for (size_t candidate_index : priority) {
    const CandidateFault& candidate = extraction_.faults[candidate_index];
    if (candidate.kind != FaultKind::kProcessCrash &&
        candidate.kind != FaultKind::kProcessPause) {
      continue;
    }
    const std::vector<AfInfo> preceding =
        production_index_.FunctionsBefore(candidate.node, candidate.ts);
    if (preceding.empty()) {
      continue;
    }
    const int32_t function_id = preceding.front().function_id;
    const size_t fault_index = candidate_index;
    const ScheduledFault original = schedule->faults[fault_index];
    for (const OffsetInfo& offset : binary_->PrioritizedOffsets(function_id)) {
      ScheduledFault& fault = schedule->faults[fault_index];
      fault.conditions.clear();
      if (config_.enforce_fault_order && fault_index > 0) {
        fault.conditions.push_back(
            Condition::AfterFault(static_cast<int32_t>(fault_index) - 1));
      }
      fault.conditions.push_back(Condition::FunctionOffset(function_id, offset.offset));
      FaultSchedule attempt = *schedule;
      attempt.name = StrFormat("level3-f%zu-%s+0x%x", fault_index,
                               binary_->NameOf(function_id).c_str(),
                               static_cast<unsigned>(offset.offset));
      attempts.push_back(std::move(attempt));
    }
    schedule->faults[fault_index] = original;
    if (spent) {
      break;
    }
  }
  return RunWave(std::move(attempts), 3, /*allow_duplicate=*/false, level3_cap_, result);
}

DiagnosisResult DiagnosisEngine::Run() {
  DiagnosisResult result;
  result.fr_percent = extraction_.fr_percent;
  if (extraction_.faults.empty()) {
    return result;
  }

  // Level 1: fault order + inputs only. The re-attempts intentionally
  // re-execute the same schedule (the paper's answer to one-clean-run false
  // negatives) — exempt from dedup, and batched as one wave.
  FaultSchedule schedule = BuildLevel1();
  std::vector<FaultSchedule> attempts(static_cast<size_t>(std::max(config_.level1_attempts, 0)),
                                      schedule);
  notify_level_ = 1;
  Notify(DiagnosisProgress::Kind::kLevelStart, result, 0, "level 1: production order");
  if (RunWave(std::move(attempts), 1, /*allow_duplicate=*/true, /*budget=*/0, &result)) {
    result.fault_summary = result.schedule.Summary();
    return result;
  }

  // Level 1, alternative orders: the production order failed, so try other
  // injection orders of the same faults before refining contexts. Orders are
  // enumerated lexicographically, keeping only one representative per
  // commutation class: an order that swaps an adjacent pair of commuting
  // concurrent faults against the trace (TB304) re-explores the class its
  // trace-ordered sibling — lexicographically smaller, hence enumerated
  // first — already covers. The class dedup runs in BOTH pruning modes (it
  // defines the wave, so the modes stay byte-identical); use_causal_pruning
  // additionally rejects orders the happens-before relation outright
  // contradicts (TB301), without a run. Skipped when order is not being
  // enforced: without after_fault conditions every ordering degenerates to
  // the same schedule.
  const size_t fault_count = extraction_.faults.size();
  if (config_.enforce_fault_order && fault_count >= 2 && config_.level1_permutations > 0) {
    std::vector<size_t> order(fault_count);
    for (size_t i = 0; i < fault_count; i++) {
      order[i] = i;
    }
    std::vector<FaultSchedule> alternates;
    alternates.reserve(static_cast<size_t>(config_.level1_permutations));
    // Bounded enumeration: large fault sets have factorially many orders,
    // most of them commutation duplicates; give up on filling the wave
    // after a fixed multiple of its size.
    int enumerated = 0;
    const int max_enumerated = config_.level1_permutations * 50;
    while (static_cast<int>(alternates.size()) < config_.level1_permutations &&
           enumerated < max_enumerated && std::next_permutation(order.begin(), order.end())) {
      enumerated++;
      FaultSchedule alternate;
      alternate.name = StrFormat("level1-order%zu", alternates.size() + 1);
      for (size_t i = 0; i < fault_count; i++) {
        alternate.faults.push_back(
            MakeScheduledFault(extraction_.faults[order[i]], static_cast<int>(i)));
      }
      if (config_.level1_dedup_commuted && feasibility_.valid() &&
          !feasibility_.Check(alternate).canonical_order) {
        result.schedules_pruned_commuted++;
        metrics_.causal_commuted->Inc();
        metrics_.level_causal_pruned[1]->Inc();
        continue;
      }
      alternates.push_back(std::move(alternate));
    }
    Notify(DiagnosisProgress::Kind::kLevelStart, result, 0, "level 1: alternative fault orders");
    if (RunWave(std::move(alternates), 1, /*allow_duplicate=*/false, /*budget=*/0, &result,
                /*causal_prune=*/config_.use_causal_pruning)) {
      result.fault_summary = result.schedule.Summary();
      return result;
    }
  }

  // Refinement budgets are relative to what Level 1 spent: pruning shrinks
  // the permutation wave, and anchoring the caps here keeps the pruned and
  // unpruned engines' Level-2/3 behavior identical.
  level2_cap_ = result.schedules_generated + config_.level2_budget;
  level3_cap_ = result.schedules_generated + config_.max_schedules;

  const std::vector<size_t> priority = PrioritizeFaults(extraction_.faults);

  // Level 2: invocation sweeps and function-chain contexts.
  notify_level_ = 2;
  Notify(DiagnosisProgress::Kind::kLevelStart, result, 0, "level 2: fault contexts");
  if (Level2(&schedule, priority, &result)) {
    result.fault_summary = result.schedule.Summary();
    return result;
  }

  // Level 3: intra-function offsets.
  notify_level_ = 3;
  Notify(DiagnosisProgress::Kind::kLevelStart, result, 0, "level 3: intra-function offsets");
  if (Level3(&schedule, priority, &result)) {
    result.fault_summary = result.schedule.Summary();
    return result;
  }

  // Pruning runs: re-examine saved candidates (paper §4.5.2).
  notify_level_ = 0;
  Notify(DiagnosisProgress::Kind::kLevelStart, result, 0, "pruning runs: saved candidates");
  const Candidate* best = nullptr;
  for (const Candidate& candidate : saved_candidates_) {
    if (best == nullptr || candidate.rate > best->rate) {
      best = &candidate;
    }
  }
  if (best != nullptr) {
    const double rate = ConfirmBug(best->schedule, &result);
    if (rate >= config_.target_replay_rate || best->rate >= config_.target_replay_rate) {
      result.reproduced = true;
      result.schedule = best->schedule;
      result.replay_rate = std::max(rate, best->rate);
      result.level = best->level;
      result.fault_summary = result.schedule.Summary();
      return result;
    }
    result.schedule = best->schedule;
    result.replay_rate = std::max(rate, best->rate);
    result.fault_summary = result.schedule.Summary();
  }
  return result;
}

}  // namespace rose
