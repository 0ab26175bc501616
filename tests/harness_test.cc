// Harness-layer tests: the run orchestration (oracle-triggered dumps, early
// halt), the nemesis, messages, workload clients, and cross-cutting
// determinism properties of the whole stack.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>

#include "src/analyze/trace_validator.h"
#include "src/apps/framework/message.h"
#include "src/common/strings.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/obs/metrics.h"
#include "src/workload/kv_client.h"
#include "src/workload/nemesis.h"

namespace rose {
namespace {

TEST(MessageTest, FieldAccessors) {
  Message msg("Ping", 1, 2);
  msg.SetInt("n", -42);
  msg.SetStr("s", "hello");
  EXPECT_EQ(msg.IntField("n"), -42);
  EXPECT_EQ(msg.IntField("missing", 7), 7);
  EXPECT_EQ(msg.StrField("s"), "hello");
  EXPECT_EQ(msg.StrField("missing", "dflt"), "dflt");
  EXPECT_TRUE(msg.HasField("n"));
  EXPECT_FALSE(msg.HasField("q"));
  EXPECT_GT(msg.ByteSize(), 0);
  EXPECT_TRUE(Contains(msg.DebugString(), "Ping"));
}

TEST(MessageTest, ByteSizeGrowsWithPayload) {
  Message small("T", 0, 1);
  Message large("T", 0, 1);
  large.SetStr("data", std::string(500, 'x'));
  EXPECT_GT(large.ByteSize(), small.ByteSize() + 400);
}

TEST(MessageTest, ByteSizeCountsDecimalDigitsOfIntFields) {
  // type + 8 header bytes, then key + value + 2 per field, where an int
  // value counts as its decimal text.
  const auto size_with = [](int64_t value) {
    Message msg("T", 0, 1);
    msg.SetInt("k", value);
    return msg.ByteSize();
  };
  EXPECT_EQ(size_with(0), 1 + 8 + 1 + 1 + 2);
  EXPECT_EQ(size_with(-1), 1 + 8 + 1 + 2 + 2);
  EXPECT_EQ(size_with(10), 1 + 8 + 1 + 2 + 2);
  EXPECT_EQ(size_with(std::numeric_limits<int64_t>::min()), 1 + 8 + 1 + 20 + 2);
  EXPECT_EQ(size_with(std::numeric_limits<int64_t>::max()), 1 + 8 + 1 + 19 + 2);

  Message mixed("Append", 0, 1);
  mixed.SetStr("key", "abc");
  mixed.SetInt("term", 12345);
  mixed.SetStr("empty", "");
  EXPECT_EQ(mixed.ByteSize(), 6 + 8 + (3 + 3 + 2) + (4 + 5 + 2) + (5 + 0 + 2));
}

TEST(MessageTest, IntFieldFallsBackOnUnparsableStrings) {
  Message msg("T", 0, 1);
  msg.SetStr("word", "abc");
  msg.SetStr("overflow", "99999999999999999999");
  msg.SetStr("number", "-17");
  EXPECT_EQ(msg.IntField("word", 5), 5);
  EXPECT_EQ(msg.IntField("overflow", 6), 6);
  EXPECT_EQ(msg.IntField("number", 7), -17);
}

TEST(MessageTest, StrFieldOnIntFieldIsItsDecimalText) {
  Message msg("T", 0, 1);
  msg.SetInt("n", -42);
  msg.SetInt("big", std::numeric_limits<int64_t>::min());
  EXPECT_EQ(msg.StrField("n"), "-42");
  EXPECT_EQ(msg.StrField("big"), "-9223372036854775808");
}

TEST(MessageTest, ResettingAKeyWithTheOtherTypeReplacesIt) {
  Message msg("T", 0, 1);
  msg.SetInt("k", 123);
  msg.SetStr("k", "abc");
  EXPECT_EQ(msg.StrField("k"), "abc");
  EXPECT_EQ(msg.IntField("k", 9), 9);
  EXPECT_EQ(msg.ByteSize(), 1 + 8 + 1 + 3 + 2);

  msg.SetInt("k", 7);
  EXPECT_EQ(msg.StrField("k"), "7");
  EXPECT_EQ(msg.IntField("k"), 7);
  EXPECT_EQ(msg.ByteSize(), 1 + 8 + 1 + 1 + 2);
  EXPECT_EQ(msg.DebugString(), "T(0->1 k=7)");
}

TEST(RunnerTest, OracleTriggeredHaltShortensRun) {
  // RedisRaft-42's manual-style trigger: the bug fires early, so the run
  // must halt well before the 35 s horizon and report the halt time.
  const BugSpec* spec = FindBug("RedisRaft-42");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(2);
  FaultSchedule schedule;
  ScheduledFault crash;
  crash.kind = FaultKind::kProcessCrash;
  crash.target_node = 1;
  crash.conditions.push_back(Condition::AtTime(Seconds(5)));
  schedule.faults.push_back(crash);
  RunOptions options;
  options.seed = 2;
  options.duration = spec->run_duration;
  options.schedule = &schedule;
  options.profile = &profile;
  const RunOutcome outcome = runner.RunOnce(options);
  ASSERT_TRUE(outcome.bug);
  EXPECT_LT(outcome.virtual_duration, Seconds(15));
  EXPECT_GT(outcome.virtual_duration, Seconds(5));
}

TEST(RunnerTest, CleanRunGoesToHorizon) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  RunOptions options;
  options.seed = 3;
  options.duration = Seconds(20);
  const RunOutcome outcome = runner.RunOnce(options);
  EXPECT_FALSE(outcome.bug);
  EXPECT_EQ(outcome.virtual_duration, Seconds(20));
  EXPECT_GT(outcome.client_ops_completed, 0u);
}

TEST(RunnerTest, TraceComesBackEmptyWithoutTracer) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  RunOptions options;
  options.seed = 3;
  options.duration = Seconds(10);
  options.with_tracer = false;
  const RunOutcome outcome = runner.RunOnce(options);
  EXPECT_TRUE(outcome.trace.empty());
}

TEST(NemesisTest, InjectsFaultsOfConfiguredTypes) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  SimWorld world(5);
  Deployment deployment = spec->deploy(world, 5);
  NemesisOptions options;
  options.server_count = 5;
  options.p_crash = 1.0;
  options.p_pause = 0.0;
  options.p_partition = 0.0;
  options.start_after = Seconds(1);
  Nemesis nemesis(deployment.cluster.get(), options, deployment.leader_probe);
  nemesis.Start();
  deployment.cluster->Start();
  world.loop.RunUntil(Seconds(10));
  ASSERT_FALSE(nemesis.actions().empty());
  for (const std::string& action : nemesis.actions()) {
    EXPECT_TRUE(Contains(action, "crash")) << action;
  }
}

TEST(NemesisTest, StopHaltsFurtherStrikes) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  SimWorld world(6);
  Deployment deployment = spec->deploy(world, 6);
  NemesisOptions options;
  options.server_count = 5;
  options.start_after = Seconds(1);
  Nemesis nemesis(deployment.cluster.get(), options, nullptr);
  nemesis.Start();
  deployment.cluster->Start();
  world.loop.RunUntil(Seconds(3));
  const size_t actions_at_stop = nemesis.actions().size();
  nemesis.Stop();
  world.loop.RunUntil(Seconds(15));
  EXPECT_EQ(nemesis.actions().size(), actions_at_stop);
}

TEST(NemesisTest, DeterministicPerSeed) {
  auto actions_for = [&](uint64_t seed) {
    const BugSpec* spec = FindBug("RedisRaft-42");
    SimWorld world(seed);
    Deployment deployment = spec->deploy(world, seed);
    NemesisOptions options;
    options.server_count = 5;
    options.seed = seed;
    Nemesis nemesis(deployment.cluster.get(), options, deployment.leader_probe);
    nemesis.Start();
    deployment.cluster->Start();
    world.loop.RunUntil(Seconds(15));
    return nemesis.actions();
  };
  EXPECT_EQ(actions_for(9), actions_for(9));
  EXPECT_NE(actions_for(9), actions_for(10));
}

TEST(KvClientTest, ZipfianKeysSkewTowardHotKeys) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  SimWorld world(8);
  ClusterConfig config;
  config.seed = 8;
  static const BinaryInfo binary;  // Client-only cluster needs no uprobes.
  Cluster cluster(&world.kernel, &world.network, &binary, config);
  KvClientOptions options;
  options.server_count = 1;
  options.zipfian_keys = true;
  options.key_space = 100;
  options.op_interval = Millis(5);
  options.retry_timeout = Millis(50);
  // A trivially-acking server so the client keeps issuing fresh ops.
  const NodeId sink = cluster.AddNode([](Cluster* c, NodeId id) {
    struct AckServer : GuestNode {
      AckServer(Cluster* cl, NodeId nid) : GuestNode(cl, nid, "ack") {}
      void OnStart() override {}
      void OnMessage(const Message& msg) override {
        if (msg.type == "ClientPut" || msg.type == "ClientGet") {
          Message reply(msg.type == "ClientPut" ? "ClientPutOk" : "ClientGetOk", id(),
                        msg.from);
          reply.SetStr("op", msg.StrField("op"));
          Send(msg.from, std::move(reply));
        }
      }
    };
    return std::make_unique<AckServer>(c, id);
  });
  (void)sink;
  const NodeId client_id = cluster.AddNode([options](Cluster* c, NodeId id) {
    return std::make_unique<KvClient>(c, id, options);
  });
  cluster.Start();
  world.loop.RunUntil(Seconds(30));
  auto* client = dynamic_cast<KvClient*>(cluster.node(client_id));
  std::map<std::string, int> counts;
  for (const OpRecord& record : client->history()) {
    counts[record.key]++;
  }
  ASSERT_GT(client->history().size(), 50u);
  // The hottest key should dominate a mid-tail key.
  EXPECT_GT(counts["key-0"], counts["key-50"]);
}

// Property: the entire pipeline is deterministic — same seed, same report.
class PipelineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineDeterminism, SameSeedSameDiagnosis) {
  const BugSpec* spec = FindBug(GetParam());
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 11;
  const RoseReport first = ReproduceBug(*spec, config);
  const RoseReport second = ReproduceBug(*spec, config);
  EXPECT_EQ(first.reproduced(), second.reproduced());
  EXPECT_EQ(first.schedules(), second.schedules());
  EXPECT_EQ(first.runs(), second.runs());
  EXPECT_EQ(first.diagnosis.fault_summary, second.diagnosis.fault_summary);
  EXPECT_EQ(first.diagnosis.schedule.ToYaml(), second.diagnosis.schedule.ToYaml());
}

INSTANTIATE_TEST_SUITE_P(FastBugs, PipelineDeterminism,
                         ::testing::Values("Zookeeper-3006", "Zookeeper-3157",
                                           "HBASE-19608", "Tendermint-5839",
                                           "Kafka-12508"));

// Golden guard for the simulation substrate: for every Table-1 bug at
// seed 42, the canonical hash of the production trace and the profiling
// run's tracer tallies are pinned. A change to the event loop, kernel,
// network, message or tracer representation must leave every simulated
// run bit-for-bit the same; these values were captured before such a change
// and must not be re-captured to make a change pass.
struct SubstrateGolden {
  const char* bug;
  uint64_t production_hash;
  uint64_t profiling_syscalls;
  uint64_t profiling_events;
};

constexpr SubstrateGolden kSubstrateGolden[] = {
    {"RedisRaft-42", 0xc5c0ae0a6f0498a5ULL, 15922, 535},
    {"RedisRaft-43", 0x3dddf11884c6a1f6ULL, 15682, 535},
    {"RedisRaft-51", 0x6d997e274e0c4823ULL, 15682, 535},
    {"RedisRaft-NEW", 0x14954714f186012cULL, 15912, 535},
    {"RedisRaft-NEW2", 0x6b72b33057bb7e0cULL, 15182, 535},
    {"Redpanda-3003", 0x5c50d8c3c6e6c8aeULL, 4027, 177},
    {"Redpanda-3039", 0xc1a4a6a33f7acd67ULL, 4027, 177},
    {"Zookeeper-2247", 0xee1c34132e9372b0ULL, 19865, 194},
    {"Zookeeper-3006", 0x0e7d866623ada49eULL, 19865, 194},
    {"Zookeeper-3157", 0x2c6c830fbbcd22f4ULL, 19865, 194},
    {"Zookeeper-4203", 0x6aa597c43aa4dd17ULL, 18580, 194},
    {"HDFS-4233", 0x87771080f5a9b6f0ULL, 3635, 240},
    {"HDFS-12070", 0x6422d9e28af914d7ULL, 3635, 240},
    {"HDFS-15032", 0x122d5cc9cdcd5929ULL, 3635, 240},
    {"HDFS-16332", 0x8504734162d716bdULL, 3635, 240},
    {"Kafka-12508", 0xf5befa09d48b117dULL, 1111, 98},
    {"HBASE-19608", 0xe5c31701fb028b20ULL, 389, 147},
    {"MongoDB-2.4.3", 0x83feb0b11063fb60ULL, 20599, 207},
    {"MongoDB-3.2.10", 0xc028f026544010deULL, 20599, 207},
    {"Tendermint-5839", 0x327b756435439e57ULL, 586, 196},
};

void PrintTo(const SubstrateGolden& golden, std::ostream* os) { *os << golden.bug; }

class SubstrateGoldenTest : public ::testing::TestWithParam<SubstrateGolden> {};

TEST_P(SubstrateGoldenTest, SeedFortyTwoRunsMatchPinnedValues) {
  if (!ROSE_OBS_ENABLED) {
    GTEST_SKIP() << "the profiling tallies are read from rose::obs counters";
  }
  const SubstrateGolden& golden = GetParam();
  const BugSpec* spec = FindBug(golden.bug);
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  constexpr uint64_t kSeed = 42;

  // The same profiling and production calls ReproduceBug makes at seed 42.
  Counter* syscalls = MetricRegistry::Global().GetCounter("tracer.syscalls_observed");
  Counter* events = MetricRegistry::Global().GetCounter("tracer.events_captured");
  const uint64_t syscalls_before = syscalls->value();
  const uint64_t events_before = events->value();
  const Profile profile = runner.RunProfiling(kSeed);
  const uint64_t profiling_syscalls = syscalls->value() - syscalls_before;
  const uint64_t profiling_events = events->value() - events_before;

  const std::optional<Trace> production = runner.ObtainProductionTrace(profile, kSeed + 17);
  ASSERT_TRUE(production.has_value());
  const uint64_t production_hash = CanonicalTraceHash(*production);

  EXPECT_EQ(production_hash, golden.production_hash);
  EXPECT_EQ(profiling_syscalls, golden.profiling_syscalls);
  EXPECT_EQ(profiling_events, golden.profiling_events);
  // Paste-ready row for kSubstrateGolden when a bug is added.
  if (HasFailure()) {
    std::printf("    {\"%s\", 0x%016llxULL, %llu, %llu},\n", golden.bug,
                static_cast<unsigned long long>(production_hash),
                static_cast<unsigned long long>(profiling_syscalls),
                static_cast<unsigned long long>(profiling_events));
  }
}

TEST(SubstrateGoldenTest, CoversEveryRegisteredBug) {
  ASSERT_EQ(AllBugs().size(), std::size(kSubstrateGolden));
  for (size_t i = 0; i < AllBugs().size(); i++) {
    EXPECT_EQ(AllBugs()[i]->id, kSubstrateGolden[i].bug);
  }
}

std::string SubstrateGoldenName(const ::testing::TestParamInfo<SubstrateGolden>& info) {
  std::string name = info.param.bug;
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Table1, SubstrateGoldenTest, ::testing::ValuesIn(kSubstrateGolden),
                         SubstrateGoldenName);

// Documented limitation (paper §8, "Unsupported operations"): state changed
// without crossing the syscall boundary — the simulated analogue of
// memory-mapped I/O — is invisible to the tracer.
TEST(LimitationTest, MmapStyleWritesAreABlindSpot) {
  SimWorld world(13);
  world.kernel.RegisterNode(0, "10.0.0.1");
  world.kernel.Spawn(0, "p");
  TracerConfig config;
  Tracer tracer(&world.kernel, &world.network, config);
  tracer.Attach();
  // Direct disk mutation: the mmap analogue bypasses every hook.
  world.kernel.DiskOf(0).WriteAll("/data/mapped-region", std::string(4096, 'x'));
  world.kernel.DiskOf(0).WriteAt("/data/mapped-region", 128, "corrupted");
  const Trace trace = tracer.Dump();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(tracer.stats().syscalls_observed, 0u);
}

}  // namespace
}  // namespace rose
