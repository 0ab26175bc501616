// End-to-end pipeline tests: profiling -> production trace -> diagnosis ->
// reproduction, on the fast Table-1 bugs, plus workflow invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "src/analyze/schedule_linter.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/harness/runner.h"
#include "src/trace/mapped_trace.h"
#include "src/trace/trace_io.h"

namespace rose {
namespace {

TEST(RegistryTest, AllTwentyBugsRegistered) {
  EXPECT_EQ(AllBugs().size(), 20u);
  EXPECT_NE(FindBug("RedisRaft-43"), nullptr);
  EXPECT_NE(FindBug("Zookeeper-3006"), nullptr);
  EXPECT_NE(FindBug("Tendermint-5839"), nullptr);
  EXPECT_EQ(FindBug("NotABug"), nullptr);
}

TEST(RegistryTest, EverySpecIsComplete) {
  for (const BugSpec* spec : AllBugs()) {
    EXPECT_FALSE(spec->id.empty());
    EXPECT_FALSE(spec->description.empty());
    EXPECT_NE(spec->binary, nullptr) << spec->id;
    EXPECT_TRUE(spec->deploy != nullptr) << spec->id;
    EXPECT_FALSE(spec->relevant_files.empty()) << spec->id;
    EXPECT_GT(spec->run_duration, Seconds(5)) << spec->id;
    if (!spec->production_via_nemesis) {
      EXPECT_TRUE(spec->manual_production.has_value()) << spec->id;
    }
  }
}

TEST(PipelineTest, ProfilingLearnsBenignFaultsAndMonitoringSites) {
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(5);
  EXPECT_FALSE(profile.monitored_functions.empty());
  EXPECT_FALSE(profile.benign_scf_signatures.empty());
  EXPECT_GT(profile.SyscallCount(Sys::kWrite), 0u);
  EXPECT_GT(profile.duration, Seconds(20));
}

TEST(PipelineTest, ProductionTraceContainsInjectedFault) {
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(5);
  int attempts = 0;
  const auto trace = runner.ObtainProductionTrace(profile, 5, &attempts);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(attempts, 1);
  bool found = false;
  for (const TraceEvent& event : trace->events()) {
    if (event.type == EventType::kSCF && trace->str(event.scf().filename) == "/data/snapshot.0" &&
        event.scf().err == Err::kEIO) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipelineTest, EndToEndZookeeper3006ReproducesAtLevelOne) {
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 5;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.trace_obtained);
  ASSERT_TRUE(report.reproduced());
  EXPECT_EQ(report.diagnosis.level, 1);
  EXPECT_GE(report.replay_rate(), 60.0);
  // The winning schedule names the snapshot read, like the paper's case study.
  bool names_snapshot = false;
  for (const auto& fault : report.diagnosis.schedule.faults) {
    if (fault.kind == FaultKind::kSyscallFailure &&
        fault.syscall.path_filter == "/data/snapshot.0") {
      names_snapshot = true;
    }
  }
  EXPECT_TRUE(names_snapshot);
}

// The worker-pool engine must be bit-for-bit identical to the serial one on
// the real pipeline (profiling, production trace, diagnosis), not just on
// synthetic runners.
void ExpectParallelMatchesSerial(const char* id, uint64_t seed) {
  SCOPED_TRACE(id);
  const BugSpec* spec = FindBug(id);
  ASSERT_NE(spec, nullptr);
  RoseConfig serial_config;
  serial_config.seed = seed;
  const RoseReport serial = ReproduceBug(*spec, serial_config);

  RoseConfig parallel_config;
  parallel_config.seed = seed;
  parallel_config.diagnosis.parallelism = 4;
  const RoseReport parallel = ReproduceBug(*spec, parallel_config);

  ASSERT_TRUE(serial.reproduced());
  EXPECT_EQ(parallel.reproduced(), serial.reproduced());
  EXPECT_EQ(CanonicalHash(parallel.diagnosis.schedule), CanonicalHash(serial.diagnosis.schedule));
  EXPECT_EQ(parallel.diagnosis.fault_summary, serial.diagnosis.fault_summary);
  EXPECT_EQ(parallel.replay_rate(), serial.replay_rate());
  EXPECT_EQ(parallel.diagnosis.level, serial.diagnosis.level);
  EXPECT_EQ(parallel.schedules(), serial.schedules());
  EXPECT_EQ(parallel.diagnosis.schedules_pruned_invalid,
            serial.diagnosis.schedules_pruned_invalid);
  EXPECT_EQ(parallel.diagnosis.schedules_pruned_duplicate,
            serial.diagnosis.schedules_pruned_duplicate);
  EXPECT_EQ(parallel.runs(), serial.runs());
  EXPECT_EQ(parallel.diagnosis.virtual_time, serial.diagnosis.virtual_time);
  EXPECT_EQ(parallel.fr_percent(), serial.fr_percent());
}

TEST(PipelineTest, ParallelDiagnosisMatchesSerialOnRealBugs) {
  ExpectParallelMatchesSerial("Zookeeper-3006", 5);
  ExpectParallelMatchesSerial("Zookeeper-3157", 3);
}

TEST(PipelineTest, ParallelDiagnosisMatchesSerialOnLevelTwoBug) {
  // RedisRaft-43 reaches Level 2: Algorithm 1's chain windows and
  // amplification run on real traces.
  ExpectParallelMatchesSerial("RedisRaft-43", 42);
}

TEST(ZeroCopyPipelineTest, MmapLoadDiagnosesLikeInMemoryWindow) {
  // The zero-copy acceptance bar (DESIGN.md §13): diagnosing a saved dump
  // through the mmap-backed external-arena view must be byte-for-byte
  // identical — confirmed-schedule YAML included — to diagnosing the
  // in-memory production window that was never saved.
  struct Case {
    const char* id;
    uint64_t seed;
  };
  for (const Case& c : {Case{"Zookeeper-3006", 5}, Case{"RedisRaft-42", 42}}) {
    const BugSpec* spec = FindBug(c.id);
    ASSERT_NE(spec, nullptr) << c.id;
    BugRunner runner(spec);
    const Profile profile = runner.RunProfiling(c.seed);
    std::optional<Trace> production = runner.ObtainProductionTrace(profile, c.seed + 17);
    ASSERT_TRUE(production.has_value()) << c.id;

    const std::string path =
        (std::filesystem::path(testing::TempDir()) / (std::string(c.id) + ".trc")).string();
    ASSERT_TRUE(SaveTraceFile(path, *production)) << c.id;

    const MappedTrace mapped = MappedTrace::OpenFile(path);
    ASSERT_TRUE(mapped.valid()) << c.id;
    ASSERT_FALSE(HasErrors(mapped.diagnostics())) << c.id;
    ASSERT_TRUE(TraceEquals(mapped.view(), *production)) << c.id;

    RoseConfig config;
    config.seed = c.seed;
    const DiagnosisResult via_mmap = DiagnoseTrace(*spec, profile, mapped.view(), config);
    const DiagnosisResult in_memory = DiagnoseTrace(*spec, profile, *production, config);
    ASSERT_TRUE(in_memory.reproduced) << c.id;
    EXPECT_EQ(via_mmap.reproduced, in_memory.reproduced) << c.id;
    EXPECT_EQ(via_mmap.schedule.ToYaml(), in_memory.schedule.ToYaml()) << c.id;
    EXPECT_EQ(via_mmap.fault_summary, in_memory.fault_summary) << c.id;
    EXPECT_DOUBLE_EQ(via_mmap.replay_rate, in_memory.replay_rate) << c.id;
    EXPECT_EQ(via_mmap.level, in_memory.level) << c.id;
    EXPECT_EQ(via_mmap.schedules_generated, in_memory.schedules_generated) << c.id;
    EXPECT_EQ(via_mmap.total_runs, in_memory.total_runs) << c.id;
    EXPECT_EQ(via_mmap.virtual_time, in_memory.virtual_time) << c.id;
    std::remove(path.c_str());
  }
}

TEST(PipelineTest, EndToEndTendermintReproduces) {
  const BugSpec* spec = FindBug("Tendermint-5839");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 9;
  const RoseReport report = ReproduceBugRobust(*spec, config);
  ASSERT_TRUE(report.reproduced());
  EXPECT_EQ(report.diagnosis.level, 1);
}

TEST(PipelineTest, EndToEndRedisRaft42ReproducesViaNemesis) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 42;
  const RoseReport report = ReproduceBugRobust(*spec, config);
  ASSERT_TRUE(report.trace_obtained);
  ASSERT_TRUE(report.reproduced());
  EXPECT_EQ(report.diagnosis.level, 1);
  EXPECT_GE(report.replay_rate(), 60.0);
}

TEST(PipelineTest, WinningScheduleSurvivesYamlRoundTrip) {
  const BugSpec* spec = FindBug("Zookeeper-3157");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 3;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.reproduced());
  // The analyzer emits YAML; the executor parses it back (paper §5.3): the
  // parsed schedule must reproduce as well.
  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(report.diagnosis.schedule.ToYaml(), &parsed));
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(3);
  RunOptions options;
  options.seed = 77;
  options.duration = spec->run_duration;
  options.schedule = &parsed;
  options.profile = &profile;
  EXPECT_TRUE(runner.RunOnce(options).bug);
}

TEST(PipelineTest, CleanRunsNeverTriggerOracles) {
  // Deploy each guest with its defect flag on but no faults: the oracle must
  // stay silent (no false positives in 30 virtual seconds).
  for (const char* id : {"RedisRaft-42", "Zookeeper-2247", "HDFS-4233", "Kafka-12508",
                         "HBASE-19608", "Tendermint-5839", "MongoDB-2.4.3"}) {
    const BugSpec* spec = FindBug(id);
    ASSERT_NE(spec, nullptr) << id;
    BugRunner runner(spec);
    RunOptions options;
    options.seed = 123;
    options.duration = Seconds(30);
    const RunOutcome outcome = runner.RunOnce(options);
    EXPECT_FALSE(outcome.bug) << id << " oracle fired without any fault";
  }
}

TEST(PipelineTest, ReplayRateIsMeaningfulAcrossSeeds) {
  // Run the winning ZK-3157 schedule under 10 fresh seeds by hand and check
  // it reproduces every time (the bug is input-pinned, so RR should be 100%).
  const BugSpec* spec = FindBug("Zookeeper-3157");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 3;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.reproduced());
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(3);
  int hits = 0;
  for (uint64_t seed = 500; seed < 510; seed++) {
    RunOptions options;
    options.seed = seed;
    options.duration = spec->run_duration;
    options.schedule = &report.diagnosis.schedule;
    options.profile = &profile;
    if (runner.RunOnce(options).bug) {
      hits++;
    }
  }
  EXPECT_EQ(hits, 10);
}

}  // namespace
}  // namespace rose
