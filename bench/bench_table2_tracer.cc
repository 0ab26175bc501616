// Table 2 — Cost of the Rose tracer versus the Full and IO-content
// alternatives.
//
// A 3-node RaftKV cluster (the mini Redis stand-in) runs a YCSB-A style
// 50/50 read/update workload for 60 virtual seconds under each tracer mode
// plus a no-tracer baseline. Reported per mode: events matching the tracer
// criteria, events saved in the window, window memory, trace processing time
// (real host seconds for the dump post-processing), and application-level
// overhead (throughput degradation vs the baseline). A second table gives
// each mode's host wall time for the 60 virtual seconds (best of five), so
// the tracer's cost can be read in host time as well as in virtual time.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/apps/raftkv/raftkv.h"
#include "src/harness/world.h"
#include "src/trace/tracer.h"
#include "src/workload/kv_client.h"

namespace {

using namespace rose;

struct ModeResult {
  uint64_t events_seen = 0;
  uint64_t events_saved = 0;
  int64_t memory_bytes = 0;
  double processing_seconds = 0;
  uint64_t ops_completed = 0;
  uint64_t syscalls = 0;
  SimTime virtual_overhead = 0;
  double host_seconds = 0;  // Wall time of the 60 virtual seconds.
};

ModeResult RunMode(bool with_tracer, TracerMode mode, uint64_t seed) {
  SimWorld world(seed);
  static const BinaryInfo binary = BuildRaftKvBinary();
  ClusterConfig config;
  config.seed = seed;
  Cluster cluster(&world.kernel, &world.network, &binary, config);
  RaftKvOptions options;
  options.cluster_size = 3;
  for (int i = 0; i < options.cluster_size; i++) {
    cluster.AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<RaftKvNode>(c, id, options);
    });
  }
  KvClientOptions client_options;
  client_options.server_count = options.cluster_size;
  client_options.op_interval = Millis(10);  // YCSB-style load.
  client_options.read_fraction = 0.5;       // Workload A: 50% reads, 50% updates.
  client_options.zipfian_keys = true;       // YCSB zipfian request distribution.
  std::vector<NodeId> clients;
  for (int i = 0; i < 4; i++) {
    clients.push_back(cluster.AddNode([client_options](Cluster* c, NodeId id) {
      return std::make_unique<KvClient>(c, id, client_options);
    }));
  }

  std::optional<Tracer> tracer;
  if (with_tracer) {
    TracerConfig tracer_config;
    tracer_config.mode = mode;
    tracer.emplace(&world.kernel, &world.network, tracer_config);
    tracer->Attach();
  }
  const auto start = std::chrono::steady_clock::now();
  cluster.Start();
  world.loop.RunUntil(Seconds(60));
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ModeResult result;
  result.host_seconds = host_seconds;
  for (NodeId id : clients) {
    result.ops_completed += dynamic_cast<KvClient*>(cluster.node(id))->ops_completed();
  }
  if (tracer.has_value()) {
    tracer->Dump();
    const TracerStats stats = tracer->stats();
    result.events_seen = stats.events_seen;
    result.events_saved = stats.events_saved;
    result.memory_bytes = stats.memory_bytes;
    result.processing_seconds = stats.dump_processing_seconds;
    result.syscalls = stats.syscalls_observed;
    result.virtual_overhead = stats.virtual_overhead;
  }
  return result;
}

// Runs a mode five times (each run is identical in virtual time) and keeps
// the fastest host time, which is the least disturbed by other load.
ModeResult RunModeBestOfFive(bool with_tracer, TracerMode mode, uint64_t seed) {
  ModeResult best = RunMode(with_tracer, mode, seed);
  for (int i = 0; i < 4; i++) {
    best.host_seconds =
        std::min(best.host_seconds, RunMode(with_tracer, mode, seed).host_seconds);
  }
  return best;
}

std::string Human(int64_t bytes) {
  char buffer[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buffer, sizeof(buffer), "%.0f MB", static_cast<double>(bytes) / 1048576.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f KB", static_cast<double>(bytes) / 1024.0);
  }
  return buffer;
}

}  // namespace

int main() {
  std::printf("=== Table 2: cost of the Rose tracer vs alternatives ===\n");
  std::printf("(3-node RaftKV cluster, YCSB-A style 50/50 workload, 60 virtual seconds)\n\n");

  const uint64_t seed = 7;
  const ModeResult baseline = RunModeBestOfFive(false, TracerMode::kRose, seed);
  const ModeResult rose_mode = RunModeBestOfFive(true, TracerMode::kRose, seed);
  const ModeResult full = RunModeBestOfFive(true, TracerMode::kFull, seed);
  const ModeResult io_content = RunModeBestOfFive(true, TracerMode::kIoContent, seed);

  // The paper measures Redis throughput degradation; Redis is syscall-bound,
  // so the equivalent in the simulator is the tracer's added time relative to
  // the kernel-boundary time it instruments (the workload here is paced by
  // virtual network latency, which the tracer cannot slow down).
  auto overhead = [&](const ModeResult& result) {
    const double kernel_time =
        static_cast<double>(result.syscalls) * static_cast<double>(Micros(2));
    if (kernel_time <= 0) {
      return 0.0;
    }
    return 100.0 * static_cast<double>(result.virtual_overhead) /
           (kernel_time + static_cast<double>(result.virtual_overhead));
  };

  std::printf("%-11s | %10s | %10s | %8s | %8s | %s\n", "Approach", "Events", "Saved",
              "Memory", "Time(s)", "Overhead");
  std::printf("------------+------------+------------+----------+----------+---------\n");
  std::printf("%-11s | %10llu | %10llu | %8s | %8.3f | %5.1f%%\n", "rose",
              static_cast<unsigned long long>(rose_mode.events_seen),
              static_cast<unsigned long long>(rose_mode.events_saved),
              Human(rose_mode.memory_bytes).c_str(), rose_mode.processing_seconds,
              overhead(rose_mode));
  std::printf("%-11s | %10llu | %10llu | %8s | %8.3f | %5.1f%%\n", "full",
              static_cast<unsigned long long>(full.events_seen),
              static_cast<unsigned long long>(full.events_saved),
              Human(full.memory_bytes).c_str(), full.processing_seconds, overhead(full));
  std::printf("%-11s | %10llu | %10llu | %8s | %8.3f | %5.1f%%\n", "io-content",
              static_cast<unsigned long long>(io_content.events_seen),
              static_cast<unsigned long long>(io_content.events_saved),
              Human(io_content.memory_bytes).c_str(), io_content.processing_seconds,
              overhead(io_content));

  std::printf("\npaper:      |      5,444 |      5,444 |   712 KB |     0.06 |   2.6%%\n");
  std::printf("paper full: |        14M |  1,048,576 |   151 MB |    17    |   3.9%%\n");
  std::printf("paper io:   |         9M |  1,048,576 |   281 MB |    17    |   4.9%%\n");
  std::printf("\nbaseline throughput: %llu ops; rose %llu, full %llu, io-content %llu\n",
              static_cast<unsigned long long>(baseline.ops_completed),
              static_cast<unsigned long long>(rose_mode.ops_completed),
              static_cast<unsigned long long>(full.ops_completed),
              static_cast<unsigned long long>(io_content.ops_completed));

  // Host time: the same 60 virtual seconds on this machine, per mode, with
  // the added wall time relative to running without a tracer. Virtual
  // overhead above is deterministic; these figures vary with the host.
  std::printf("\nhost wall time for the 60 virtual seconds (best of 5):\n");
  std::printf("%-11s | %9s | %s\n", "Approach", "Host(s)", "vs no tracer");
  std::printf("------------+-----------+-------------\n");
  std::printf("%-11s | %9.3f | %s\n", "none", baseline.host_seconds, "-");
  for (const auto& [name, result] : {std::pair<const char*, const ModeResult*>{"rose", &rose_mode},
                                     {"full", &full},
                                     {"io-content", &io_content}}) {
    std::printf("%-11s | %9.3f | %+6.1f%%\n", name, result->host_seconds,
                100.0 * (result->host_seconds - baseline.host_seconds) /
                    baseline.host_seconds);
  }

  // Shape checks: rose sees orders of magnitude fewer events and costs less
  // than full, which costs less than io-content.
  const bool shape_holds = rose_mode.events_seen * 10 < full.events_seen &&
                           overhead(rose_mode) < overhead(full) &&
                           overhead(full) <= overhead(io_content) + 0.5;
  std::printf("\nshape (rose << full <= io-content): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
