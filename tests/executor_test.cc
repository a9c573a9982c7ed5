#include <gtest/gtest.h>

#include <ostream>

#include "src/exec/executor.h"
#include "src/exec/pid_tracker.h"
#include "src/harness/world.h"

namespace rose {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : world_(1) {
    world_.kernel.RegisterNode(0, "10.0.0.1");
    world_.kernel.RegisterNode(1, "10.0.0.2");
  }

  SimWorld world_;
};

TEST_F(ExecutorTest, SyscallFaultFailsNthMatchingInvocation) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 0;
  fault.syscall.sys = Sys::kWrite;
  fault.syscall.err = Err::kENOSPC;
  fault.syscall.path_filter = "/data/log";
  fault.syscall.nth = 3;
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  SimKernel::OpenFlags flags;
  flags.create = true;
  const auto fd = static_cast<int32_t>(world_.kernel.Open(pid, "/data/log", flags).value);
  EXPECT_TRUE(world_.kernel.Write(pid, fd, "1").ok());
  EXPECT_TRUE(world_.kernel.Write(pid, fd, "2").ok());
  EXPECT_EQ(world_.kernel.Write(pid, fd, "3").err, Err::kENOSPC);  // The 3rd.
  EXPECT_TRUE(world_.kernel.Write(pid, fd, "4").ok());  // Transient: only once.
  EXPECT_TRUE(executor.Feedback().outcomes[0].injected);
}

TEST_F(ExecutorTest, PersistentSyscallFaultKeepsFailing) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 0;
  fault.syscall.sys = Sys::kStat;
  fault.syscall.err = Err::kEIO;
  fault.syscall.persistent = true;
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  world_.kernel.DiskOf(0).WriteAll("/x", "data");
  EXPECT_EQ(world_.kernel.Stat(pid, "/x").err, Err::kEIO);
  EXPECT_EQ(world_.kernel.Stat(pid, "/x").err, Err::kEIO);
}

TEST_F(ExecutorTest, PathFilterRestrictsMatches) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 0;
  fault.syscall.sys = Sys::kOpen;
  fault.syscall.err = Err::kEIO;
  fault.syscall.path_filter = "/data/target";
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  SimKernel::OpenFlags flags;
  flags.create = true;
  EXPECT_TRUE(world_.kernel.Open(pid, "/data/other", flags).ok());
  EXPECT_EQ(world_.kernel.Open(pid, "/data/target", flags).err, Err::kEIO);
}

TEST_F(ExecutorTest, FaultOnlyAppliesToTargetNode) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 1;
  fault.syscall.sys = Sys::kStat;
  fault.syscall.err = Err::kEIO;
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid p0 = world_.kernel.Spawn(0, "a");
  const Pid p1 = world_.kernel.Spawn(1, "b");
  world_.kernel.DiskOf(0).WriteAll("/x", "1");
  world_.kernel.DiskOf(1).WriteAll("/x", "1");
  EXPECT_TRUE(world_.kernel.Stat(p0, "/x").ok());
  EXPECT_EQ(world_.kernel.Stat(p1, "/x").err, Err::kEIO);
}

TEST_F(ExecutorTest, AtTimeConditionDelaysArming) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::AtTime(Seconds(5)));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  world_.loop.RunUntil(Seconds(4));
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  world_.loop.RunUntil(Seconds(6));
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kCrashed);
  EXPECT_EQ(executor.Feedback().outcomes[0].injected_at, Seconds(5));
}

TEST_F(ExecutorTest, FunctionConditionInjectsCrashAtEntry) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::FunctionEnter(42));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  world_.kernel.FunctionEnter(pid, 41);  // Different function: nothing.
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  EXPECT_THROW(world_.kernel.FunctionEnter(pid, 42), ProcessInterrupted);
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kCrashed);
}

TEST_F(ExecutorTest, FunctionChainRequiresOrderedObservation) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::FunctionEnter(1));
  fault.conditions.push_back(Condition::FunctionEnter(2));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  world_.kernel.FunctionEnter(pid, 2);  // Out of order: condition 1 first.
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  world_.kernel.FunctionEnter(pid, 1);
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  EXPECT_THROW(world_.kernel.FunctionEnter(pid, 2), ProcessInterrupted);
}

TEST_F(ExecutorTest, FunctionOffsetConditionIsPreciseToOffset) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::FunctionOffset(7, 0x10));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  world_.kernel.FunctionOffset(pid, 7, 0x08);  // Wrong offset.
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  EXPECT_THROW(world_.kernel.FunctionOffset(pid, 7, 0x10), ProcessInterrupted);
}

TEST_F(ExecutorTest, SyscallCountConditionWithPathFilter) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessPause;
  fault.target_node = 0;
  fault.process.pause_duration = Seconds(1);
  fault.conditions.push_back(Condition::SyscallCount(Sys::kOpen, "/data/snap", 2));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid pid = world_.kernel.Spawn(0, "p");
  SimKernel::OpenFlags flags;
  flags.create = true;
  world_.kernel.Open(pid, "/data/other", flags);
  world_.kernel.Open(pid, "/data/snap", flags);
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  world_.kernel.Open(pid, "/data/snap", flags);  // Second matching open.
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kPaused);
}

TEST_F(ExecutorTest, AfterFaultEnforcesProductionOrder) {
  FaultSchedule schedule;
  {
    ScheduledFault first;
    first.kind = FaultKind::kProcessCrash;
    first.target_node = 1;
    first.conditions.push_back(Condition::AtTime(Seconds(3)));
    schedule.faults.push_back(first);
  }
  {
    ScheduledFault second;
    second.kind = FaultKind::kProcessCrash;
    second.target_node = 0;
    second.conditions.push_back(Condition::AfterFault(0));
    second.conditions.push_back(Condition::FunctionEnter(9));
    schedule.faults.push_back(second);
  }
  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid p0 = world_.kernel.Spawn(0, "a");
  world_.kernel.Spawn(1, "b");
  // The function fires BEFORE fault 0 is injected: must not trigger.
  world_.kernel.FunctionEnter(p0, 9);
  EXPECT_EQ(world_.kernel.StateOf(p0), ProcState::kRunning);
  world_.loop.RunUntil(Seconds(4));  // Fault 0 injected at 3 s.
  EXPECT_TRUE(executor.Feedback().outcomes[0].injected);
  EXPECT_FALSE(executor.Feedback().outcomes[1].injected);
  EXPECT_THROW(world_.kernel.FunctionEnter(p0, 9), ProcessInterrupted);
  EXPECT_TRUE(executor.Feedback().outcomes[1].injected);
}

// What gates the second fault in ConditionCurrentOnlyAfterDependencyStillFires:
// a condition of one kernel hook, or (kOverride) arming an SCF, which
// MaybeOverride then fires.
enum class Gated { kSyscallCount, kFunctionEnter, kFunctionOffset, kOverride };

void PrintTo(Gated gated, std::ostream* os) {
  constexpr const char* kNames[] = {"SyscallCount", "FunctionEnter", "FunctionOffset",
                                    "Override"};
  *os << kNames[static_cast<int>(gated)];
}

class ExecutorHookTest : public ExecutorTest, public ::testing::WithParamInterface<Gated> {};

// Hooks skip their scan while no fault waits on them, so a fault must be
// counted the moment its after_fault dependency injects.
TEST_P(ExecutorHookTest, ConditionCurrentOnlyAfterDependencyStillFires) {
  FaultSchedule schedule;
  ScheduledFault first;
  first.kind = FaultKind::kProcessCrash;
  first.target_node = 1;
  first.conditions.push_back(Condition::AtTime(Seconds(3)));
  schedule.faults.push_back(first);
  ScheduledFault second;
  second.kind = FaultKind::kProcessCrash;
  second.target_node = 0;
  second.conditions.push_back(Condition::AfterFault(0));
  switch (GetParam()) {
    case Gated::kSyscallCount:
      second.conditions.push_back(Condition::SyscallCount(Sys::kStat, "/x", 1));
      break;
    case Gated::kFunctionEnter:
      second.conditions.push_back(Condition::FunctionEnter(9));
      break;
    case Gated::kFunctionOffset:
      second.conditions.push_back(Condition::FunctionOffset(9, 0x10));
      break;
    case Gated::kOverride:
      second.kind = FaultKind::kSyscallFailure;
      second.syscall.sys = Sys::kStat;
      second.syscall.err = Err::kEIO;
      break;
  }
  schedule.faults.push_back(second);
  Executor executor(&world_.kernel, &world_.network, schedule);
  ASSERT_TRUE(executor.Attach());
  const Pid pid = world_.kernel.Spawn(0, "a");
  world_.kernel.Spawn(1, "b");
  world_.kernel.DiskOf(0).WriteAll("/x", "1");
  // Drives the hook the second fault waits on; true once it injected.
  auto poke = [&] {
    try {
      switch (GetParam()) {
        case Gated::kSyscallCount:
        case Gated::kOverride:
          world_.kernel.Stat(pid, "/x");
          break;
        case Gated::kFunctionEnter:
          world_.kernel.FunctionEnter(pid, 9);
          break;
        case Gated::kFunctionOffset:
          world_.kernel.FunctionOffset(pid, 9, 0x10);
          break;
      }
    } catch (const ProcessInterrupted&) {
    }
    return executor.Feedback().outcomes[1].injected;
  };
  EXPECT_FALSE(poke());  // Fault 0 has not injected yet.
  world_.loop.RunUntil(Seconds(4));
  ASSERT_TRUE(executor.Feedback().outcomes[0].injected);
  EXPECT_TRUE(poke());
  EXPECT_EQ(world_.kernel.StateOf(pid),
            GetParam() == Gated::kOverride ? ProcState::kRunning : ProcState::kCrashed);
}

INSTANTIATE_TEST_SUITE_P(EachHook, ExecutorHookTest,
                         ::testing::Values(Gated::kSyscallCount, Gated::kFunctionEnter,
                                           Gated::kFunctionOffset, Gated::kOverride),
                         ::testing::PrintToStringParamName());

TEST_F(ExecutorTest, PartitionFaultInstallsDropRules) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kNetworkPartition;
  fault.target_node = 0;
  fault.network.group_a = {"10.0.0.1"};
  fault.network.group_b = {"10.0.0.2"};
  fault.network.duration = Seconds(5);
  fault.conditions.push_back(Condition::AtTime(Seconds(1)));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  world_.loop.RunUntil(Seconds(2));
  EXPECT_FALSE(world_.network.IsReachable("10.0.0.1", "10.0.0.2"));
  world_.loop.RunUntil(Seconds(7));
  EXPECT_TRUE(world_.network.IsReachable("10.0.0.1", "10.0.0.2"));
}

TEST_F(ExecutorTest, CrashTargetsCurrentMainAfterRestart) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::AtTime(Seconds(10)));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  executor.Attach();
  const Pid original = world_.kernel.Spawn(0, "main");
  world_.kernel.Kill(original);  // Crash outside the schedule.
  const Pid restarted = world_.kernel.Spawn(0, "main");  // Supervisor restart.
  world_.loop.RunUntil(Seconds(11));
  // The injection landed on the restarted pid, not the dead original.
  EXPECT_EQ(world_.kernel.StateOf(restarted), ProcState::kCrashed);
}

TEST_F(ExecutorTest, MalformedScheduleIsRejectedUpFrontWithDiagnostics) {
  // A self-referencing after_fault chain can never fire; previously the
  // executor attached anyway and the fault just silently never injected.
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::AfterFault(0));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  EXPECT_FALSE(executor.schedule_valid());
  EXPECT_FALSE(executor.Attach());
  ASSERT_FALSE(executor.diagnostics().empty());
  EXPECT_EQ(executor.diagnostics().front().code, DiagCode::kAfterFaultCycle);
  EXPECT_EQ(executor.diagnostics().front().severity, Severity::kError);

  // Nothing was installed: the target process runs untouched.
  const Pid pid = world_.kernel.Spawn(0, "p");
  world_.loop.RunUntil(Seconds(5));
  EXPECT_EQ(world_.kernel.StateOf(pid), ProcState::kRunning);
  EXPECT_FALSE(executor.Feedback().outcomes[0].injected);
}

TEST_F(ExecutorTest, ValidScheduleAttachReportsSuccessAndCleanDiagnostics) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kProcessCrash;
  fault.target_node = 0;
  fault.conditions.push_back(Condition::AtTime(Seconds(1)));
  schedule.faults.push_back(fault);

  Executor executor(&world_.kernel, &world_.network, schedule);
  EXPECT_TRUE(executor.schedule_valid());
  EXPECT_TRUE(executor.diagnostics().empty());
  EXPECT_TRUE(executor.Attach());
}

TEST(PidTrackerTest, ChildrenMapToScheduleParent) {
  PidTracker tracker;
  tracker.OnSpawn(100, 0, kNoPid);
  tracker.OnSpawn(101, 0, 100);
  tracker.OnSpawn(102, 0, 101);  // Grandchild.
  EXPECT_EQ(tracker.RootOf(100), 100);
  EXPECT_EQ(tracker.RootOf(101), 100);
  EXPECT_EQ(tracker.RootOf(102), 100);
}

TEST(PidTrackerTest, RestartsMapBackToOriginal) {
  PidTracker tracker;
  tracker.OnSpawn(100, 0, kNoPid);
  tracker.OnSpawn(200, 0, kNoPid);  // Restart of node 0.
  EXPECT_EQ(tracker.RootOf(200), 100);
  EXPECT_EQ(tracker.OriginalMain(0), 100);
  EXPECT_EQ(tracker.CurrentMain(0), 200);
}

TEST(PidTrackerTest, NodesAreIndependent) {
  PidTracker tracker;
  tracker.OnSpawn(100, 0, kNoPid);
  tracker.OnSpawn(110, 1, kNoPid);
  tracker.OnSpawn(120, 1, kNoPid);  // Restart of node 1.
  EXPECT_EQ(tracker.CurrentMain(0), 100);
  EXPECT_EQ(tracker.CurrentMain(1), 120);
  EXPECT_EQ(tracker.RootOf(120), 110);
  EXPECT_EQ(tracker.NodeOfRoot(110), 1);
  EXPECT_EQ(tracker.CurrentMain(7), kNoPid);
}

}  // namespace
}  // namespace rose
