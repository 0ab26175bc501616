// Static-analysis tests: seeded malformed schedules and traces must produce
// exactly the expected diagnostic codes, and the canonical-form hash must
// identify equivalent schedules while separating distinct ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/analyze/schedule_linter.h"
#include "src/analyze/trace_validator.h"

namespace rose {
namespace {

ScheduledFault CrashFault(NodeId node) {
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = node;
  return fault;
}

ScheduledFault ScfFault(NodeId node, Sys sys = Sys::kWrite,
                        const std::string& path = "/data/log", int32_t nth = 1) {
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = node;
  fault.syscall.sys = sys;
  fault.syscall.err = Err::kEIO;
  fault.syscall.path_filter = path;
  fault.syscall.nth = nth;
  return fault;
}

bool HasCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  return !OfCode(diags, code).empty();
}

// --- Table of seeded malformed schedules ------------------------------------

struct LintCase {
  const char* name;
  std::function<FaultSchedule()> make;
  DiagCode expected;
  Severity severity;
};

std::vector<LintCase> MalformedScheduleCases() {
  return {
      {"after_fault_out_of_range",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::AfterFault(5));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kAfterFaultMissing, Severity::kError},
      {"after_fault_negative",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::AfterFault(-3));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kAfterFaultMissing, Severity::kError},
      {"after_fault_self_cycle",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::AfterFault(0));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kAfterFaultCycle, Severity::kError},
      {"after_fault_two_cycle",
       [] {
         FaultSchedule s;
         ScheduledFault f0 = CrashFault(0);
         f0.conditions.push_back(Condition::AfterFault(1));
         ScheduledFault f1 = CrashFault(1);
         f1.conditions.push_back(Condition::AfterFault(0));
         s.faults.push_back(f0);
         s.faults.push_back(f1);
         return s;
       },
       DiagCode::kAfterFaultCycle, Severity::kError},
      {"after_fault_forward_reference",
       [] {
         FaultSchedule s;
         ScheduledFault f0 = CrashFault(0);
         f0.conditions.push_back(Condition::AfterFault(1));
         s.faults.push_back(f0);
         s.faults.push_back(CrashFault(1));  // No conditions: satisfiable, inverted.
         return s;
       },
       DiagCode::kAfterFaultForward, Severity::kWarning},
      {"offset_without_enter",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::FunctionOffset(7, 0x10));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kOffsetWithoutEnter, Severity::kWarning},
      {"duplicate_syscall_count",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::SyscallCount(Sys::kOpen, "/snap", 2));
         f.conditions.push_back(Condition::SyscallCount(Sys::kOpen, "/snap", 2));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kDuplicateSyscallCount, Severity::kWarning},
      {"persistent_shadow",
       [] {
         FaultSchedule s;
         ScheduledFault first = ScfFault(0, Sys::kWrite, "", 1);
         first.syscall.persistent = true;  // Empty filter: shadows everything.
         s.faults.push_back(first);
         s.faults.push_back(ScfFault(0, Sys::kWrite, "/data/log", 1));
         return s;
       },
       DiagCode::kPersistentShadow, Severity::kWarning},
      {"bad_nth",
       [] {
         FaultSchedule s;
         s.faults.push_back(ScfFault(0, Sys::kWrite, "/data/log", 0));
         return s;
       },
       DiagCode::kBadNth, Severity::kError},
      {"bad_count",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::SyscallCount(Sys::kOpen, "", 0));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kBadCount, Severity::kError},
      {"bad_function_id",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::FunctionEnter(-4));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kBadFunctionId, Severity::kError},
      {"bad_offset",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::FunctionEnter(7));
         f.conditions.push_back(Condition::FunctionOffset(7, -8));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kBadOffset, Severity::kError},
      {"empty_partition_group",
       [] {
         FaultSchedule s;
         ScheduledFault f;
         f.kind = FaultKind::kNetworkPartition;
         f.target_node = 0;
         f.network.group_a = {"10.0.0.1"};
         f.network.group_b = {};
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kEmptyPartitionGroup, Severity::kWarning},
      {"no_target_node",
       [] {
         FaultSchedule s;
         s.faults.push_back(CrashFault(kNoNode));
         return s;
       },
       DiagCode::kNoTargetNode, Severity::kWarning},
      {"negative_at_time",
       [] {
         FaultSchedule s;
         ScheduledFault f = CrashFault(0);
         f.conditions.push_back(Condition::AtTime(-Seconds(1)));
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kBadTime, Severity::kError},
      {"ok_errno",
       [] {
         FaultSchedule s;
         ScheduledFault f;
         f.kind = FaultKind::kSyscallFailure;
         f.target_node = 0;
         f.syscall.sys = Sys::kWrite;
         f.syscall.err = Err::kOk;
         s.faults.push_back(f);
         return s;
       },
       DiagCode::kSyscallFaultOkErrno, Severity::kError},
  };
}

TEST(ScheduleLinterTest, FlagsEverySeededMalformedSchedule) {
  ScheduleLinter linter;
  for (const LintCase& test : MalformedScheduleCases()) {
    SCOPED_TRACE(test.name);
    const std::vector<Diagnostic> diags = linter.Lint(test.make());
    const std::vector<Diagnostic> matching = OfCode(diags, test.expected);
    ASSERT_FALSE(matching.empty()) << "expected " << DiagCodeName(test.expected);
    EXPECT_EQ(matching.front().severity, test.severity);
    EXPECT_GE(matching.front().fault_index, 0);
    EXPECT_FALSE(matching.front().message.empty());
    EXPECT_FALSE(matching.front().hint.empty());
  }
}

TEST(ScheduleLinterTest, UnknownNodeRequiresKnownNodeSet) {
  FaultSchedule schedule;
  schedule.faults.push_back(CrashFault(9));

  // Without a known-node set the check is disabled.
  EXPECT_FALSE(HasCode(ScheduleLinter().Lint(schedule), DiagCode::kUnknownNode));

  LintOptions options;
  options.known_nodes = {0, 1, 2};
  const std::vector<Diagnostic> diags = ScheduleLinter(options).Lint(schedule);
  ASSERT_TRUE(HasCode(diags, DiagCode::kUnknownNode));
  EXPECT_TRUE(HasErrors(diags));
}

TEST(ScheduleLinterTest, UnknownFunctionRequiresBinary) {
  FaultSchedule schedule;
  ScheduledFault fault = CrashFault(0);
  fault.conditions.push_back(Condition::FunctionEnter(99));
  schedule.faults.push_back(fault);

  EXPECT_FALSE(HasCode(ScheduleLinter().Lint(schedule), DiagCode::kUnknownFunction));

  BinaryInfo binary;
  binary.RegisterFunction("applyEntry", "raft.c");
  LintOptions options;
  options.binary = &binary;
  const std::vector<Diagnostic> diags = ScheduleLinter(options).Lint(schedule);
  ASSERT_TRUE(HasCode(diags, DiagCode::kUnknownFunction));
  // Membership misses are warnings: the id may come from a different build.
  EXPECT_FALSE(HasErrors(diags));
}

TEST(ScheduleLinterTest, AcceptsSchedulesTheEngineGenerates) {
  // Level-1 shape: ordered faults, AtTime triggers, syscall inputs.
  FaultSchedule level1;
  {
    ScheduledFault scf = ScfFault(0);
    level1.faults.push_back(scf);
    ScheduledFault crash = CrashFault(1);
    crash.conditions.push_back(Condition::AfterFault(0));
    crash.conditions.push_back(Condition::AtTime(Seconds(5)));
    level1.faults.push_back(crash);
  }
  // Level-2 shape: function-chain context.
  FaultSchedule level2;
  {
    ScheduledFault crash = CrashFault(0);
    crash.conditions.push_back(Condition::FunctionEnter(3));
    crash.conditions.push_back(Condition::FunctionEnter(7));
    level2.faults.push_back(crash);
  }
  // Level-3 shape: bare intra-function offset (executable; warning only).
  FaultSchedule level3;
  {
    ScheduledFault crash = CrashFault(0);
    crash.conditions.push_back(Condition::FunctionOffset(7, 0x10));
    level3.faults.push_back(crash);
  }
  LintOptions options;
  options.known_nodes = {0, 1, 2};
  ScheduleLinter linter(options);
  EXPECT_FALSE(HasErrors(linter.Lint(level1)));
  EXPECT_FALSE(HasErrors(linter.Lint(level2)));
  EXPECT_FALSE(HasErrors(linter.Lint(level3)));
  EXPECT_TRUE(linter.Lint(level1).empty());
  EXPECT_TRUE(linter.Lint(level2).empty());
}

// --- Canonical form / hash ---------------------------------------------------

TEST(CanonicalHashTest, NameIsIgnored) {
  FaultSchedule a;
  a.name = "level1";
  a.faults.push_back(ScfFault(0));
  FaultSchedule b = a;
  b.name = "level2-f0-nth1";
  EXPECT_EQ(CanonicalHash(a), CanonicalHash(b));
  EXPECT_EQ(CanonicalForm(a), CanonicalForm(b));
}

TEST(CanonicalHashTest, SemanticFieldsSeparateSchedules) {
  FaultSchedule base;
  base.faults.push_back(ScfFault(0, Sys::kWrite, "/data/log", 1));

  FaultSchedule nth = base;
  nth.faults[0].syscall.nth = 2;
  EXPECT_NE(CanonicalHash(base), CanonicalHash(nth));

  FaultSchedule node = base;
  node.faults[0].target_node = 1;
  EXPECT_NE(CanonicalHash(base), CanonicalHash(node));

  FaultSchedule cond = base;
  cond.faults[0].conditions.push_back(Condition::FunctionEnter(3));
  EXPECT_NE(CanonicalHash(base), CanonicalHash(cond));
}

TEST(CanonicalHashTest, PartitionGroupsAreUnorderedSets) {
  FaultSchedule a;
  {
    ScheduledFault f;
    f.kind = FaultKind::kNetworkPartition;
    f.target_node = 0;
    f.network.group_a = {"10.0.0.2", "10.0.0.1"};
    f.network.group_b = {"10.0.0.3"};
    a.faults.push_back(f);
  }
  FaultSchedule b;
  {
    ScheduledFault f;
    f.kind = FaultKind::kNetworkPartition;
    f.target_node = 0;
    f.network.group_a = {"10.0.0.3"};  // Swapped sides, reordered members.
    f.network.group_b = {"10.0.0.1", "10.0.0.2"};
    b.faults.push_back(f);
  }
  EXPECT_EQ(CanonicalHash(a), CanonicalHash(b));
}

// --- Trace validator ---------------------------------------------------------

TraceEvent ScfEvent(Trace& trace, SimTime ts, NodeId node, Pid pid, Err err) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kSCF;
  event.info = ScfInfo{pid, Sys::kWrite, 3, trace.Intern("/data/log"), err};
  return event;
}

TraceEvent AfEvent(SimTime ts, NodeId node, Pid pid, int32_t fid) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kAF;
  event.info = AfInfo{pid, fid};
  return event;
}

TEST(TraceValidatorTest, CleanTracePasses) {
  Trace trace;
  trace.Append(ScfEvent(trace,Seconds(1), 0, 100, Err::kEIO));
  trace.Append(AfEvent(Seconds(2), 0, 100, 7));
  EXPECT_TRUE(TraceValidator().Validate(trace).empty());
}

TEST(TraceValidatorTest, FlagsNonMonotonicTimestamps) {
  Trace trace;
  trace.Append(ScfEvent(trace,Seconds(5), 0, 100, Err::kEIO));
  trace.Append(ScfEvent(trace,Seconds(2), 0, 100, Err::kEIO));  // Goes backwards.
  const std::vector<Diagnostic> diags = TraceValidator().Validate(trace);
  const std::vector<Diagnostic> matching =
      OfCode(diags, DiagCode::kNonMonotonicTimestamp);
  ASSERT_EQ(matching.size(), 1u);
  EXPECT_EQ(matching.front().event_index, 1);
  EXPECT_EQ(matching.front().severity, Severity::kError);
}

TEST(TraceValidatorTest, FlagsOrphanPids) {
  Trace trace;
  trace.Append(ScfEvent(trace,Seconds(1), 0, kNoPid, Err::kEIO));  // Structurally bad.
  trace.Append(ScfEvent(trace,Seconds(2), 0, 999, Err::kEIO));     // Never spawned.
  TraceValidateOptions options;
  options.known_pids = {100, 101};
  const std::vector<Diagnostic> diags = TraceValidator(options).Validate(trace);
  EXPECT_EQ(OfCode(diags, DiagCode::kOrphanPid).size(), 2u);

  // Without a known-pid set only the negative pid is an orphan.
  EXPECT_EQ(OfCode(TraceValidator().Validate(trace), DiagCode::kOrphanPid).size(), 1u);
}

TEST(TraceValidatorTest, FlagsScfWithOkErrno) {
  Trace trace;
  trace.Append(ScfEvent(trace,Seconds(1), 0, 100, Err::kOk));
  const std::vector<Diagnostic> diags = TraceValidator().Validate(trace);
  ASSERT_TRUE(HasCode(diags, DiagCode::kScfWithOkErrno));
  EXPECT_TRUE(HasErrors(diags));
}

TEST(TraceValidatorTest, FlagsAfFunctionsAbsentFromProfile) {
  Profile profile;
  profile.monitored_functions = {7};
  Trace trace;
  trace.Append(AfEvent(Seconds(1), 0, 100, 7));   // Known.
  trace.Append(AfEvent(Seconds(2), 0, 100, 42));  // Never profiled.
  TraceValidateOptions options;
  options.profile = &profile;
  const std::vector<Diagnostic> diags = TraceValidator(options).Validate(trace);
  const std::vector<Diagnostic> matching = OfCode(diags, DiagCode::kUnknownAfFunction);
  ASSERT_EQ(matching.size(), 1u);
  EXPECT_EQ(matching.front().event_index, 1);
  EXPECT_EQ(matching.front().severity, Severity::kWarning);
}

// --- Diagnostic plumbing -----------------------------------------------------

TEST(DiagnosticTest, CodeNamesAreStable) {
  EXPECT_EQ(DiagCodeName(DiagCode::kAfterFaultMissing), "SL001");
  EXPECT_EQ(DiagCodeName(DiagCode::kOffsetWithoutEnter), "SL004");
  EXPECT_EQ(DiagCodeName(DiagCode::kPersistentShadow), "SL007");
  EXPECT_EQ(DiagCodeName(DiagCode::kNonMonotonicTimestamp), "TV101");
  EXPECT_EQ(DiagCodeName(DiagCode::kUnknownAfFunction), "TV104");
}

TEST(DiagnosticTest, ToStringCarriesCodeSeverityLocationAndHint) {
  Diagnostic diag;
  diag.code = DiagCode::kBadNth;
  diag.severity = Severity::kError;
  diag.fault_index = 2;
  diag.message = "nth=0 can never match";
  diag.hint = "use nth >= 1";
  const std::string line = diag.ToString();
  EXPECT_NE(line.find("SL008"), std::string::npos);
  EXPECT_NE(line.find("error"), std::string::npos);
  EXPECT_NE(line.find("fault#2"), std::string::npos);
  EXPECT_NE(line.find("use nth >= 1"), std::string::npos);
}

TEST(DiagnosticTest, CodesOfSeededTableAreAllDistinctlyNamed) {
  // Guard against two codes accidentally mapping to one printable name.
  std::vector<std::string> names;
  for (const LintCase& test : MalformedScheduleCases()) {
    names.emplace_back(DiagCodeName(test.expected));
  }
  std::sort(names.begin(), names.end());
  // The table holds two kAfterFaultMissing and two kAfterFaultCycle seeds.
  names.erase(std::unique(names.begin(), names.end()), names.end());
  EXPECT_GE(names.size(), 11u);
}

}  // namespace
}  // namespace rose
