#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/schedule/fault_schedule.h"

namespace rose {
namespace {

FaultSchedule MakeRichSchedule() {
  FaultSchedule schedule;
  schedule.name = "rich";
  {
    ScheduledFault fault;
    fault.kind = FaultKind::kSyscallFailure;
    fault.target_node = 2;
    fault.syscall.sys = Sys::kWrite;
    fault.syscall.err = Err::kEIO;
    fault.syscall.path_filter = "/data/txnlog";
    fault.syscall.nth = 3;
    fault.syscall.persistent = true;
    fault.conditions.push_back(Condition::AtTime(Seconds(2)));
    schedule.faults.push_back(fault);
  }
  {
    ScheduledFault fault;
    fault.kind = FaultKind::kProcessCrash;
    fault.target_node = 1;
    fault.conditions.push_back(Condition::AfterFault(0));
    fault.conditions.push_back(Condition::FunctionEnter(7));
    fault.conditions.push_back(Condition::FunctionOffset(7, 0x10));
    schedule.faults.push_back(fault);
  }
  {
    ScheduledFault fault;
    fault.kind = FaultKind::kProcessPause;
    fault.target_node = 0;
    fault.process.pause_duration = Millis(4200);
    fault.conditions.push_back(Condition::SyscallCount(Sys::kOpen, "/data/snapshot", 5));
    schedule.faults.push_back(fault);
  }
  {
    ScheduledFault fault;
    fault.kind = FaultKind::kNetworkPartition;
    fault.target_node = 0;
    fault.network.group_a = {"10.0.0.1"};
    fault.network.group_b = {"10.0.0.2", "10.0.0.3"};
    fault.network.duration = Seconds(8);
    schedule.faults.push_back(fault);
  }
  return schedule;
}

TEST(FaultScheduleTest, YamlRoundTripPreservesEverything) {
  const FaultSchedule original = MakeRichSchedule();
  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(original.ToYaml(), &parsed));
  ASSERT_EQ(parsed.faults.size(), original.faults.size());
  EXPECT_EQ(parsed.name, "rich");

  const ScheduledFault& scf = parsed.faults[0];
  EXPECT_EQ(scf.kind, FaultKind::kSyscallFailure);
  EXPECT_EQ(scf.target_node, 2);
  EXPECT_EQ(scf.syscall.sys, Sys::kWrite);
  EXPECT_EQ(scf.syscall.err, Err::kEIO);
  EXPECT_EQ(scf.syscall.path_filter, "/data/txnlog");
  EXPECT_EQ(scf.syscall.nth, 3);
  EXPECT_TRUE(scf.syscall.persistent);
  ASSERT_EQ(scf.conditions.size(), 1u);
  EXPECT_EQ(scf.conditions[0].kind, Condition::Kind::kAtTime);
  EXPECT_EQ(scf.conditions[0].at_time, Seconds(2));

  const ScheduledFault& crash = parsed.faults[1];
  EXPECT_EQ(crash.kind, FaultKind::kProcessCrash);
  ASSERT_EQ(crash.conditions.size(), 3u);
  EXPECT_EQ(crash.conditions[0].kind, Condition::Kind::kAfterFault);
  EXPECT_EQ(crash.conditions[0].fault_index, 0);
  EXPECT_EQ(crash.conditions[1].kind, Condition::Kind::kFunctionEnter);
  EXPECT_EQ(crash.conditions[1].function_id, 7);
  EXPECT_EQ(crash.conditions[2].kind, Condition::Kind::kFunctionOffset);
  EXPECT_EQ(crash.conditions[2].offset, 0x10);

  const ScheduledFault& pause = parsed.faults[2];
  EXPECT_EQ(pause.kind, FaultKind::kProcessPause);
  EXPECT_EQ(pause.process.pause_duration, Millis(4200));
  ASSERT_EQ(pause.conditions.size(), 1u);
  EXPECT_EQ(pause.conditions[0].kind, Condition::Kind::kSyscallCount);
  EXPECT_EQ(pause.conditions[0].sys, Sys::kOpen);
  EXPECT_EQ(pause.conditions[0].path_filter, "/data/snapshot");
  EXPECT_EQ(pause.conditions[0].count, 5);

  const ScheduledFault& partition = parsed.faults[3];
  EXPECT_EQ(partition.kind, FaultKind::kNetworkPartition);
  EXPECT_EQ(partition.network.group_a, (std::vector<std::string>{"10.0.0.1"}));
  EXPECT_EQ(partition.network.group_b, (std::vector<std::string>{"10.0.0.2", "10.0.0.3"}));
  EXPECT_EQ(partition.network.duration, Seconds(8));
}

TEST(FaultScheduleTest, SummaryCollapsesRuns) {
  FaultSchedule schedule;
  for (int i = 0; i < 3; i++) {
    ScheduledFault fault;
    fault.kind = FaultKind::kProcessCrash;
    schedule.faults.push_back(fault);
  }
  ScheduledFault partition;
  partition.kind = FaultKind::kNetworkPartition;
  schedule.faults.push_back(partition);
  ScheduledFault crash;
  crash.kind = FaultKind::kProcessCrash;
  schedule.faults.push_back(crash);
  EXPECT_EQ(schedule.Summary(), "PS(Crash)*3 + ND + PS(Crash)");
}

TEST(FaultScheduleTest, LabelsMatchPaperNotation) {
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.syscall.sys = Sys::kOpenAt;
  EXPECT_EQ(fault.Label(), "SCF(openat)");
  fault.kind = FaultKind::kProcessPause;
  EXPECT_EQ(fault.Label(), "PS(Pause)");
  fault.kind = FaultKind::kNetworkPartition;
  EXPECT_EQ(fault.Label(), "ND");
}

TEST(FaultScheduleTest, FromYamlRejectsGarbage) {
  FaultSchedule parsed;
  EXPECT_FALSE(FaultSchedule::FromYaml("schedule:\n  faults:\n    - kind: martian\n", &parsed));
  EXPECT_FALSE(FaultSchedule::FromYaml("random text without colon-lines at all", &parsed));
  // A hand-written execution-indexed condition: the schedule must fail to
  // parse rather than load with its targeting silently dropped.
  EXPECT_FALSE(FaultSchedule::FromYaml(R"(schedule:
  name: indexed
  faults:
    - kind: syscall
      node: 1
      sys: write
      errno: EIO
      path: /data/txnlog
      nth: 1
      persistent: false
      conditions:
        - type: exec_index
          sys: write
          ctx: deadbeefcafef00d
          count: 4
          path: /data/txnlog
)",
                                       &parsed));
}

TEST(FaultScheduleTest, EmptyScheduleRoundTrips) {
  FaultSchedule schedule;
  schedule.name = "empty";
  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(schedule.ToYaml(), &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_EQ(parsed.name, "empty");
}

TEST(ConditionTest, ToStringIsInformative) {
  EXPECT_EQ(Condition::AfterFault(2).ToString(), "after_fault(2)");
  EXPECT_EQ(Condition::FunctionEnter(5).ToString(), "function(5)");
  EXPECT_EQ(Condition::FunctionOffset(5, 16).ToString(), "offset(5+16)");
}

// Property: random schedules survive a YAML round trip bit-for-bit in the
// fields the executor consumes.
class ScheduleYamlProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleYamlProperty, RandomScheduleRoundTrips) {
  Rng rng(GetParam());
  FaultSchedule schedule;
  schedule.name = "prop";
  const int n = static_cast<int>(rng.NextBelow(6)) + 1;
  for (int i = 0; i < n; i++) {
    ScheduledFault fault;
    fault.target_node = static_cast<NodeId>(rng.NextBelow(5));
    switch (rng.NextBelow(4)) {
      case 0:
        fault.kind = FaultKind::kSyscallFailure;
        fault.syscall.sys = static_cast<Sys>(rng.NextBelow(kNumSyscalls));
        fault.syscall.err = Err::kEIO;
        fault.syscall.nth = static_cast<int32_t>(rng.NextBelow(50)) + 1;
        break;
      case 1:
        fault.kind = FaultKind::kProcessCrash;
        break;
      case 2:
        fault.kind = FaultKind::kProcessPause;
        fault.process.pause_duration = static_cast<SimTime>(rng.NextBelow(Seconds(10)));
        break;
      default:
        fault.kind = FaultKind::kNetworkPartition;
        fault.network.group_a = {"10.0.0.1"};
        fault.network.group_b = {"10.0.0.2"};
        fault.network.duration = static_cast<SimTime>(rng.NextBelow(Seconds(10))) + 1;
        break;
    }
    if (i > 0 && rng.NextBool(0.5)) {
      fault.conditions.push_back(Condition::AfterFault(i - 1));
    }
    if (rng.NextBool(0.5)) {
      fault.conditions.push_back(
          Condition::FunctionEnter(static_cast<int32_t>(rng.NextBelow(20))));
    }
    schedule.faults.push_back(fault);
  }
  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(schedule.ToYaml(), &parsed));
  ASSERT_EQ(parsed.faults.size(), schedule.faults.size());
  for (size_t i = 0; i < schedule.faults.size(); i++) {
    const ScheduledFault& a = schedule.faults[i];
    const ScheduledFault& b = parsed.faults[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.target_node, b.target_node);
    ASSERT_EQ(a.conditions.size(), b.conditions.size());
    for (size_t c = 0; c < a.conditions.size(); c++) {
      EXPECT_EQ(a.conditions[c].kind, b.conditions[c].kind);
      EXPECT_EQ(a.conditions[c].function_id, b.conditions[c].function_id);
      EXPECT_EQ(a.conditions[c].fault_index, b.conditions[c].fault_index);
      EXPECT_EQ(a.conditions[c].sys, b.conditions[c].sys);
      EXPECT_EQ(a.conditions[c].count, b.conditions[c].count);
      EXPECT_EQ(a.conditions[c].path_filter, b.conditions[c].path_filter);
    }
    if (a.kind == FaultKind::kSyscallFailure) {
      EXPECT_EQ(a.syscall.sys, b.syscall.sys);
      EXPECT_EQ(a.syscall.nth, b.syscall.nth);
    }
    if (a.kind == FaultKind::kProcessPause) {
      EXPECT_EQ(a.process.pause_duration, b.process.pause_duration);
    }
    if (a.kind == FaultKind::kNetworkPartition) {
      EXPECT_EQ(a.network.duration, b.network.duration);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleYamlProperty, ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace rose
