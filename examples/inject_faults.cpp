// inject_faults — hand-author a YAML fault schedule and execute it.
//
// Shows the executor half of Rose in isolation: a schedule written as YAML
// (the format the analyzer emits) is parsed and injected with precision into
// a live MiniZk cluster. The schedule crashes the leader exactly when it
// enters takeSnapshot — a condition no amount of timing luck can replicate.
//
// Usage: ./build/examples/inject_faults
//
// Exit codes: 0 every fault was injected, 1 some fault was not, 2 the
// schedule does not parse.
#include <cstdio>

#include "src/apps/minizk/minizk.h"
#include "src/common/strings.h"
#include "src/exec/executor.h"
#include "src/harness/world.h"
#include "src/workload/kv_client.h"

int main() {
  using namespace rose;

  const BinaryInfo binary = BuildMiniZkBinary();
  const int32_t take_snapshot = binary.FindByName("takeSnapshot")->id;

  // A schedule as the analyzer would emit it. Fault 0 fails the 3rd write to
  // the txn log; fault 1 crashes node 0 at its next takeSnapshot entry, but
  // only after fault 0 was injected (production fault order).
  const std::string yaml = StrFormat(R"(schedule:
  name: hand-authored-demo
  faults:
    - kind: syscall
      node: 1
      sys: write
      errno: EIO
      path: /data/txnlog
      nth: 3
      persistent: false
    - kind: crash
      node: 0
      conditions:
        - type: after_fault
          fault: 0
        - type: function
          fid: %d
)",
                                     take_snapshot);
  FaultSchedule schedule;
  std::string error;
  if (!FaultSchedule::FromYaml(yaml, &schedule, &error)) {
    std::fprintf(stderr, "inject_faults: cannot parse the schedule: %s\n", error.c_str());
    return 2;
  }
  std::printf("parsed schedule '%s': %s\n\n", schedule.name.c_str(),
              schedule.Summary().c_str());

  SimWorld world(99);
  ClusterConfig config;
  config.seed = 99;
  Cluster cluster(&world.kernel, &world.network, &binary, config);
  MiniZkOptions options;
  for (int i = 0; i < options.cluster_size; i++) {
    cluster.AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniZkNode>(c, id, options);
    });
  }
  KvClientOptions client_options;
  client_options.server_count = options.cluster_size;
  for (int i = 0; i < 2; i++) {
    cluster.AddNode([client_options](Cluster* c, NodeId id) {
      return std::make_unique<KvClient>(c, id, client_options);
    });
  }

  Executor executor(&world.kernel, &world.network, schedule);
  executor.Attach();
  cluster.Start();
  world.loop.RunUntil(Seconds(20));

  const ExecutionFeedback feedback = executor.Feedback();
  for (size_t i = 0; i < feedback.outcomes.size(); i++) {
    const FaultOutcome& outcome = feedback.outcomes[i];
    std::printf("fault %zu (%s): %s", i, schedule.faults[i].Label().c_str(),
                outcome.injected ? "injected" : "NOT injected");
    if (outcome.injected) {
      std::printf(" at t=%.6fs", ToSeconds(outcome.injected_at));
    }
    std::printf("\n");
  }
  std::printf("\ncluster log tail:\n");
  const auto& log = cluster.LogsOf(0);
  for (size_t i = log.size() > 6 ? log.size() - 6 : 0; i < log.size(); i++) {
    std::printf("  %s\n", log[i].c_str());
  }
  return feedback.AllInjected() ? 0 : 1;
}
