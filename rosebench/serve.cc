// The serve-mixed workload: an open loop of submits to one DiagnosisService
// over in-process pipes. Half of the submits carry a (dump, seed) key never
// seen before and run a diagnosis; the other half repeat a key submitted at
// least kHitMinAgeS earlier and are answered from the result cache.
//
// Every result is checked byte for byte against the offline DiagnoseTrace
// answer for its key.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "rosebench/bench.h"
#include "src/common/rng.h"
#include "src/harness/bug_registry.h"
#include "src/harness/runner.h"
#include "src/net/transport.h"
#include "src/serve/client.h"
#include "src/serve/service.h"

namespace rosebench {
namespace {

// Dumps from three guests (the HDFS, Redpanda and ZooKeeper models), each
// captured at one fixed seed so that a diagnosis costs about the same
// whatever the benchmark seed. Their diagnoses cost within 30% of each other
// (about 20 ms on the reference host), so miss latencies form one cluster
// and their median does not jump between dumps.
const char* const kServeBugs[] = {"HDFS-12070", "Redpanda-3003", "Zookeeper-3157"};
constexpr uint64_t kDumpSeed = 100;
constexpr int kSetupRepeats = 15;

// The traffic model: one fixed rate; of every kMixBlock consecutive submits,
// kHitsPerBlock repeat a key (in seeded order), so misses never bunch up more
// than the mix allows.
constexpr double kRatePerS = 30;
constexpr size_t kMixBlock = 4;
constexpr size_t kHitsPerBlock = 2;
constexpr double kHitMinAgeS = 1.0;
// About twice the miss median at the reference host speed, above the
// slowest miss seen there, so that goodput falls once misses slow down.
constexpr double kLatencyLimitMs = 40;
// Keys diagnosed during set-up, so that repeats are possible from the first
// submit on, as in a service that has been running for a while.
constexpr int kWarmKeys = 12;
// Cadence of the host-speed reference blocks run by the generator thread.
// A block runs only while the service is idle (no request outstanding, no
// job queued or running), so that it never shares the core with a diagnosis
// and its time does not grow with Rose's own load, and only when no submit
// is due within kBlockGuardNs, so that it delays none.
constexpr double kBlockEveryMs = 100;
constexpr int64_t kBlockGuardNs = 5'000'000;
// Each request's times are scaled by the blocks run around its due time,
// kBlockRadius to each side.
constexpr size_t kBlockRadius = 2;

// The service runs one job at a time, one engine thread per job, and the
// whole open loop runs on one core: the generator thread sleeps while idle,
// and the host-speed blocks it runs then measure the core the diagnoses run
// on. (On a shared host each core drifts on its own, so blocks on another
// core would not track the diagnoses.)
constexpr int kJobWorkers = 1;
constexpr int kConnections = 4;
// How long the generator sleeps when an iteration found nothing to do. It
// wakes kWakeEarlyNs before a submit is due and spins until then.
constexpr int64_t kIdleSleepNs = 500'000;
constexpr int64_t kWakeEarlyNs = 100'000;
// Threads that recompute the answers offline, after the loop.
constexpr int kCheckThreads = 3;

struct Dump {
  const rose::BugSpec* spec = nullptr;
  rose::Profile profile;
  std::string profile_text;
  rose::Trace trace;
  std::string blob;
};

struct Key {
  size_t dump = 0;
  uint64_t seed = 0;
};

struct Request {
  double due_s = 0;
  size_t key = 0;
  size_t connection = 0;
  uint64_t handle = 0;
  int64_t sent_ns = 0;
  int64_t admitted_ns = 0;
  int64_t first_progress_ns = 0;
  int64_t done_ns = 0;
};

// The captured dumps and the live service with its client connections.
struct Setup {
  std::vector<Dump> dumps;
  std::vector<Key> warm_keys;
  std::unique_ptr<rose::DiagnosisService> service;
  std::vector<std::unique_ptr<rose::ServeClient>> clients;
  int64_t profile_ns = 0;
  int64_t production_ns = 0;
};

// Captures every dump, starts a service with its connections and warms its
// cache.

std::unique_ptr<Setup> RunSetup(Report* report) {
  auto setup = std::make_unique<Setup>();
  for (const char* id : kServeBugs) {
    Dump dump;
    dump.spec = rose::FindBug(id);
    if (dump.spec == nullptr) {
      report->Fail(std::string("unknown bug ") + id);
      return setup;
    }
    rose::BugRunner runner(dump.spec);
    int64_t t0 = NowNs();
    dump.profile = runner.RunProfiling(kDumpSeed);
    int64_t t1 = NowNs();
    std::optional<rose::Trace> trace = runner.ObtainProductionTrace(dump.profile, kDumpSeed + 17);
    setup->profile_ns += t1 - t0;
    setup->production_ns += NowNs() - t1;
    if (!trace.has_value()) {
      report->Fail(std::string("no production dump for ") + id);
      return setup;
    }
    dump.profile_text = rose::SerializeProfile(dump.profile);
    dump.trace = std::move(*trace);
    dump.blob = dump.trace.SerializeBinary();
    setup->dumps.push_back(std::move(dump));
  }
  rose::ServeConfig config;
  config.max_concurrent_jobs = kJobWorkers;
  config.queue_capacity = 256;
  config.cache_capacity = 1 << 16;
  config.diagnosis.parallelism = 1;
  setup->service = std::make_unique<rose::DiagnosisService>(config);
  rose::ServeClientConfig client_config;
  client_config.auto_retry_queue_full = false;
  for (int c = 0; c < kConnections; c++) {
    auto [client_end, server_end] = rose::MakePipePair();
    setup->service->Attach(server_end);
    setup->clients.push_back(
        std::make_unique<rose::ServeClient>(client_end, client_config));
  }
  std::vector<std::pair<size_t, uint64_t>> handles;
  for (int k = 0; k < kWarmKeys; k++) {
    const Key key{k % setup->dumps.size(), static_cast<uint64_t>(k + 1)};
    const Dump& dump = setup->dumps[key.dump];
    const size_t connection = static_cast<size_t>(k % kConnections);
    handles.emplace_back(connection,
                         setup->clients[connection]->SubmitBlob(
                             dump.spec->id, key.seed, "", dump.profile_text, dump.blob));
    setup->warm_keys.push_back(key);
  }
  auto all_done = [&] {
    for (const auto& [connection, handle] : handles) {
      if (!setup->clients[connection]->done(handle)) {
        return false;
      }
    }
    return true;
  };
  while (!all_done()) {
    for (auto& client : setup->clients) {
      client->Poll();
    }
    setup->service->Poll();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleSleepNs));
  }
  for (const auto& [connection, handle] : handles) {
    if (setup->clients[connection]->failed(handle)) {
      report->Fail("a set-up submit failed");
    }
  }
  return setup;
}

// The seeded traffic: due times, and for each submit either a fresh key or
// a repeat of a warm key or of one first due at least kHitMinAgeS earlier.
// `keys` starts out holding the warm keys.
std::vector<Request> PlanRequests(uint64_t seed, double seconds, size_t dumps,
                                  std::vector<Key>* keys) {
  const std::vector<double> due = ArrivalSchedule(seed, kRatePerS, seconds);
  rose::Rng rng(seed ^ 0x5eedf00dULL);
  std::set<uint64_t> used_seeds;
  std::vector<double> key_first_due(keys->size(), -kHitMinAgeS);
  for (const Key& key : *keys) {
    used_seeds.insert(key.seed);
  }
  std::vector<Request> requests;
  size_t eligible = 0;
  std::vector<char> repeat(kMixBlock, 0);
  for (size_t i = 0; i < due.size(); i++) {
    if (i % kMixBlock == 0) {
      std::fill(repeat.begin(), repeat.end(), 0);
      std::fill(repeat.begin(), repeat.begin() + kHitsPerBlock, 1);
      for (size_t j = kMixBlock; j > 1; j--) {
        std::swap(repeat[j - 1], repeat[rng.NextBelow(j)]);
      }
    }
    while (eligible < key_first_due.size() && key_first_due[eligible] <= due[i] - kHitMinAgeS) {
      eligible++;
    }
    Request request;
    request.due_s = due[i];
    request.connection = i % kConnections;
    if (eligible > 0 && repeat[i % kMixBlock]) {
      request.key = rng.NextBelow(eligible);
    } else {
      uint64_t key_seed = 0;
      do {
        key_seed = 1 + rng.NextBelow(1'000'000'000);
      } while (!used_seeds.insert(key_seed).second);
      keys->push_back(Key{keys->size() % dumps, key_seed});
      key_first_due.push_back(due[i]);
      request.key = keys->size() - 1;
    }
    requests.push_back(request);
  }
  return requests;
}

// Runs fn(0..n-1) on kCheckThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; t++) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

rose::RoseConfig ConfigFor(uint64_t seed) {
  rose::RoseConfig config;
  config.seed = seed;
  config.diagnosis.parallelism = 1;
  return config;
}

// Restricts the calling thread, and the threads it starts from now on, to
// `cpus`; returns the previous set.
cpu_set_t PinTo(const cpu_set_t& cpus) {
  cpu_set_t previous;
  CPU_ZERO(&previous);
  sched_getaffinity(0, sizeof(previous), &previous);
  sched_setaffinity(0, sizeof(cpus), &cpus);
  return previous;
}

cpu_set_t CurrentCpu() {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(std::max(0, sched_getcpu()), &one);
  return one;
}

}  // namespace

Report RunServe(const Args& args) {
  Report report;
  const cpu_set_t all_cpus = PinTo(CurrentCpu());
  // Exact wake-ups for the generator: submits leave when they are due.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<double> setup_s;
  std::vector<double> setup_blocks;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; i++) {
    setup.reset();
    setup_blocks.push_back(ReferenceBlockMs());
    const int64_t t0 = NowNs();
    setup = RunSetup(&report);
    setup_s.push_back(NsToS(NowNs() - t0));
  }
  if (!report.correct) {
    return report;
  }
  rose::DiagnosisService& service = *setup->service;
  auto& clients = setup->clients;

  std::vector<Key> keys = setup->warm_keys;
  std::vector<Request> requests =
      PlanRequests(args.seed, args.seconds, setup->dumps.size(), &keys);

  const uint64_t rejects0 = CounterValue("serve.rejects_queue_full");
  const uint64_t job_ns0 = HistogramSum("serve.job_ns");
  const uint64_t jobs0 = HistogramCount("serve.job_ns");
  std::vector<double> poll_ms;
  std::vector<double> lag_ms;
  std::vector<size_t> outstanding;
  size_t next = 0;
  size_t admitted = 0;
  uint64_t answered0 = service.stats().jobs_submitted + service.stats().rejected_queue_full +
                       service.stats().rejected_invalid;
  std::vector<double> blocks;
  std::vector<std::pair<int64_t, int64_t>> block_spans;
  const int64_t start = NowNs();
  int64_t next_block_ns = start;
  while (next < requests.size() || !outstanding.empty()) {
    int64_t now = NowNs();
    bool active = false;
    // A host-speed reference block about every kBlockEveryMs, while idle.
    if (now >= next_block_ns && next < requests.size() && outstanding.empty() &&
        service.idle() &&
        static_cast<double>(now - start) + kBlockGuardNs < requests[next].due_s * 1e9) {
      blocks.push_back(ReferenceBlockMs());
      block_spans.emplace_back(now, NowNs());
      now = block_spans.back().second;
      next_block_ns = now + static_cast<int64_t>(kBlockEveryMs * 1e6);
    }
    while (next < requests.size() &&
           static_cast<int64_t>(requests[next].due_s * 1e9) <= now - start) {
      Request& request = requests[next];
      const Key& key = keys[request.key];
      const Dump& dump = setup->dumps[key.dump];
      request.sent_ns = NowNs();
      request.handle = clients[request.connection]->SubmitBlob(
          dump.spec->id, key.seed, "", dump.profile_text, dump.blob);
      lag_ms.push_back(NsToMs(request.sent_ns - start) - request.due_s * 1e3);
      outstanding.push_back(next);
      next++;
      active = true;
    }
    for (auto& client : clients) {
      client->Poll();
    }
    const int64_t poll0 = NowNs();
    service.Poll();
    const int64_t poll1 = NowNs();
    if (args.trace) {
      poll_ms.push_back(NsToMs(poll1 - poll0));
    }
    // The service answers submissions in arrival order; each one it has
    // answered since the last poll was admitted during this one.
    const rose::ServeStats& stats = service.stats();
    const uint64_t answered = stats.jobs_submitted + stats.rejected_queue_full +
                              stats.rejected_invalid - answered0;
    while (admitted < next && admitted < answered) {
      requests[admitted++].admitted_ns = poll1;
    }
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      Request& request = requests[*it];
      rose::ServeClient& client = *clients[request.connection];
      if (request.first_progress_ns == 0 && !client.TakeProgress(request.handle).empty()) {
        request.first_progress_ns = poll1;
      }
      if (client.done(request.handle)) {
        request.done_ns = poll1;
        it = outstanding.erase(it);
        active = true;
      } else {
        ++it;
      }
    }
    if (!active) {
      int64_t wake = NowNs() + kIdleSleepNs;
      if (next < requests.size()) {
        wake = std::min(wake, start + static_cast<int64_t>(requests[next].due_s * 1e9) -
                                  kWakeEarlyNs);
      }
      if (wake > NowNs()) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(wake)));
      }
    }
  }
  const double window_s = NsToS(NowNs() - start);
  PinTo(all_cpus);

  // Offline answers, one per key, through DiagnoseTrace.
  std::vector<rose::Trace> parsed_traces;
  std::vector<rose::Profile> parsed_profiles;
  for (const Dump& dump : setup->dumps) {
    parsed_traces.push_back(rose::Trace::ParseBinary(dump.blob));
    rose::Profile profile;
    rose::ParseProfile(dump.profile_text, &profile);
    parsed_profiles.push_back(std::move(profile));
  }
  std::vector<std::string> expected(keys.size());
  std::vector<double> key_ms(keys.size());
  const int64_t offline0 = NowNs();
  ParallelFor(keys.size(), [&](size_t k) {
    const int64_t t0 = NowNs();
    const Dump& dump = setup->dumps[keys[k].dump];
    expected[k] = rose::DiagnoseTrace(*dump.spec, parsed_profiles[keys[k].dump],
                                      parsed_traces[keys[k].dump], ConfigFor(keys[k].seed))
                      .schedule.ToYaml();
    key_ms[k] = NsToMs(NowNs() - t0);
  });
  const double offline_s = NsToS(NowNs() - offline0);
  for (size_t d = 0; d < setup->dumps.size(); d++) {
    std::vector<double> ms;
    for (size_t k = d; k < keys.size(); k += setup->dumps.size()) {
      ms.push_back(key_ms[k]);
    }
    report.Detail(setup->dumps[d].spec->id + ": offline diagnosis p50 " +
                  std::to_string(Summarize(ms).p50) + " ms over " + std::to_string(ms.size()) +
                  " keys");
  }

  std::vector<double> miss_ms;
  std::vector<double> hit_ms;
  std::vector<double> admit_ms;
  std::vector<double> queue_wait_ms;
  double job_s = 0;
  int runs = 0;
  size_t within_limit = 0;
  int64_t last_done = start;
  std::vector<double> raw_miss_ms;
  std::vector<double> raw_hit_ms;
  std::map<int, int> runs_per_miss;
  report.attempted = requests.size();
  for (const Request& request : requests) {
    const rose::ServeClient& client = *clients[request.connection];
    const double latency_ms = NsToMs(request.done_ns - start) - request.due_s * 1e3;
    // Times are scaled to the reference host speed around the request.
    const int64_t due_ns = start + static_cast<int64_t>(request.due_s * 1e9);
    const size_t block = static_cast<size_t>(
        std::upper_bound(block_spans.begin(), block_spans.end(), std::make_pair(due_ns, due_ns)) -
        block_spans.begin());
    const double factor = LocalSpeedFactor(blocks, block > 0 ? block - 1 : 0, kBlockRadius);
    last_done = std::max(last_done, request.done_ns);
    if (client.failed(request.handle)) {
      report.failed++;
      continue;
    }
    const rose::ServeJobResult& result = client.result(request.handle);
    if (result.schedule_yaml != expected[request.key]) {
      report.failed++;
      report.Fail("key " + std::to_string(request.key) + " served a schedule that differs from "
                  "the offline DiagnoseTrace answer");
      continue;
    }
    within_limit += latency_ms * factor <= kLatencyLimitMs ? 1 : 0;
    admit_ms.push_back(NsToMs(request.admitted_ns - request.sent_ns));
    const rose::AcceptKind kind = client.accept_kind(request.handle);
    if (ClassifyAccept(kind) == RequestClass::kHit) {
      hit_ms.push_back(latency_ms * factor);
      raw_hit_ms.push_back(latency_ms);
      continue;
    }
    miss_ms.push_back(latency_ms * factor);
    raw_miss_ms.push_back(latency_ms);
    // The last block that began before this request was done must have
    // ended before it was sent.
    const auto after = std::upper_bound(block_spans.begin(), block_spans.end(),
                                        std::make_pair(request.done_ns, int64_t{0}));
    if (after != block_spans.begin() && std::prev(after)->second > request.sent_ns) {
      report.Fail("a host-speed block ran while a diagnosis was in flight");
    }
    if (kind == rose::AcceptKind::kQueued) {
      runs_per_miss[result.runs]++;
      runs += result.runs;
      job_s += NsToS(request.done_ns - request.first_progress_ns) * factor;
      queue_wait_ms.push_back(NsToMs(request.first_progress_ns - request.admitted_ns));
    }
  }
  if (report.failed > 0) {
    report.Fail(std::to_string(report.failed) + " of " + std::to_string(requests.size()) +
                " submits failed or were answered wrongly");
  }
  const double served_s = NsToS(last_done - start);
  const Summary slow = Summarize(miss_ms);
  const Summary fast = Summarize(hit_ms);
  const Summary lag = Summarize(lag_ms);
  report.Detail("serve-mixed: " + std::to_string(requests.size()) + " submits, " +
                std::to_string(miss_ms.size()) + " misses, " + std::to_string(hit_ms.size()) +
                " hits, " + std::to_string(keys.size()) + " keys; window " +
                std::to_string(window_s) + " s; offline check " + std::to_string(offline_s) +
                " s");
  std::string runs_histogram;
  for (const auto& [miss_runs, count] : runs_per_miss) {
    runs_histogram += " " + std::to_string(miss_runs) + "x" + std::to_string(count);
  }
  report.Detail("runs per diagnosed miss:" + runs_histogram);
  report.Detail(TimingLine("misses, due to result, at reference host speed", slow));
  report.Detail(TimingLine("hits, due to result, at reference host speed", fast));
  report.Detail(TimingLine("generator lag", lag));

  if (!args.trace) {
    report.Set("setup_s", Median(setup_s) * SpeedFactor(setup_blocks), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("slow_ms", slow.p50, "ms");
    report.Set("fast_ms", fast.p50, "ms");
    report.Set("goodput_per_s", static_cast<double>(within_limit) / served_s, "1/s");
    report.Set("sim_runs_per_s", job_s > 0 ? runs / job_s : 0, "1/s");
    report.Detail("host speed factor " + std::to_string(SpeedFactor(blocks)) + " from " +
                  std::to_string(blocks.size()) + " reference blocks; setup_s raw " +
                  std::to_string(Median(setup_s)));
    report.Detail(TimingLine("misses, raw", Summarize(raw_miss_ms)));
    report.Detail(TimingLine("hits, raw", Summarize(raw_hit_ms)));
    return report;
  }

  // Traced: the serve layers from the loop, the engine layers from the same
  // diagnoses recomputed offline through the seam.
  SpanRecorder spans;
  for (size_t i = 0; i < requests.size(); i++) {
    const Request& request = requests[i];
    const int64_t due_ns = start + static_cast<int64_t>(request.due_s * 1e9);
    const int root = spans.Add("serve.request", i, -1, due_ns, request.done_ns);
    spans.Add("serve.admit", i, root, request.sent_ns, request.admitted_ns);
    if (request.first_progress_ns != 0) {
      spans.Add("serve.queue_wait", i, root, request.admitted_ns, request.first_progress_ns);
      spans.Add("serve.job", i, root, request.first_progress_ns, request.done_ns);
    }
  }
  RunSeam seam(&spans);
  std::vector<rose::DiagnosisResult> results(keys.size());
  const RegistryTally before = RegistryTally::Now();
  const int64_t traced0 = NowNs();
  ParallelFor(keys.size(), [&](size_t k) {
    const Dump& dump = setup->dumps[keys[k].dump];
    ScopedSpan root(&spans, "reference", k, -1);
    results[k] =
        DiagnoseWithSeam(*dump.spec, parsed_profiles[keys[k].dump], parsed_traces[keys[k].dump],
                         ConfigFor(keys[k].seed), &seam, &spans, k, root.index());
  });
  const double traced_offline_s = NsToS(NowNs() - traced0);
  seam.deltas = RegistryTally::Now() - before;
  int runs_reported = 0;
  int schedules = 0;
  int causal_pruned = 0;
  std::vector<Captured> captured(setup->dumps.size());
  for (size_t k = 0; k < keys.size(); k++) {
    const rose::DiagnosisResult& result = results[k];
    if (result.schedule.ToYaml() != expected[k]) {
      report.Fail("key " + std::to_string(k) + ": the seam pipeline differs from DiagnoseTrace");
    }
    runs_reported += result.total_runs;
    schedules += result.schedules_generated;
    causal_pruned += result.schedules_pruned_infeasible + result.schedules_pruned_commuted;
    Captured& slot = captured[keys[k].dump];
    if (slot.spec == nullptr) {
      slot = Captured{setup->dumps[keys[k].dump].spec, parsed_profiles[keys[k].dump],
                      parsed_traces[keys[k].dump], result};
    }
  }
  // Every engine here runs at parallelism 1, so the seam must have counted
  // exactly the runs the results report.
  if (seam.calls() != static_cast<size_t>(runs_reported)) {
    report.Fail("the seam counted " + std::to_string(seam.calls()) +
                " runs at parallelism 1, the results report " + std::to_string(runs_reported));
  }
  const std::vector<Span> all_spans = spans.spans();
  std::map<std::string, int64_t> self = SelfTimeByName(all_spans);
  int64_t reference_ns = 0;
  for (const Span& span : all_spans) {
    reference_ns += span.name == "reference" ? span.end_ns - span.start_ns : 0;
  }

  ReportSeamLayers(seam, &report);
  ReportAnalysisLayers(captured, &report);
  const double executed = static_cast<double>(seam.calls());
  report.Set("harness.profile_s", NsToS(setup->profile_ns), "s");
  report.Set("harness.production_s", NsToS(setup->production_ns), "s");
  report.Set("diagnose.self_s", NsToS(self["diagnose"]), "s");
  report.Set("diagnose.runs_reported", runs_reported, "count");
  report.Set("diagnose.run_yield", executed > 0 ? runs_reported / executed : 0, "ratio");
  report.Set("diagnose.schedules", schedules, "count");
  report.Set("causal.pruned", causal_pruned, "count");
  report.Set("obs.engine_runs_gap",
             static_cast<double>(runs_reported) - static_cast<double>(seam.deltas.engine_runs),
             "count");
  report.Set("obs.layer_sum_residual",
             1.0 - static_cast<double>(self["harness.deploy"] + self["harness.run"] +
                                       self["diagnose"]) /
                       static_cast<double>(reference_ns),
             "ratio");
  report.Set("obs.tracing_overhead_s", traced_offline_s - offline_s, "s");
  const uint64_t jobs = HistogramCount("serve.job_ns") - jobs0;
  report.Set("serve.poll_ms_tail", Summarize(poll_ms).tail, "ms");
  report.Set("serve.admit_ms", Median(admit_ms), "ms");
  report.Set("serve.queue_wait_ms", Median(queue_wait_ms), "ms");
  report.Set("serve.job_ms",
             jobs > 0 ? NsToMs(static_cast<int64_t>(HistogramSum("serve.job_ns") - job_ns0)) /
                            static_cast<double>(jobs)
                      : 0,
             "ms");
  report.Set("serve.hit_ratio",
             static_cast<double>(hit_ms.size()) /
                 static_cast<double>(std::max<size_t>(1, hit_ms.size() + miss_ms.size())),
             "ratio");
  report.Set("serve.rejects_queue_full",
             static_cast<double>(CounterValue("serve.rejects_queue_full") - rejects0), "count");
  report.Set("serve.generator_lag_ms_tail", lag.tail, "ms");
  spans.Write(args.out_dir + "/spans-serve-mixed-" + std::to_string(args.seed) + ".jsonl");
  return report;
}

}  // namespace rosebench
