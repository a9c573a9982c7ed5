// Execution-index tests (DESIGN.md §14): the calling-context tracker's
// digest/seq semantics, the schedule-level condition round-trip, the TB4xx
// lint rules, and — the invariant everything else rests on — capture/replay
// parity: an address the tracer records re-resolves to the very same
// invocation inside the executor.
#include <gtest/gtest.h>

#include <vector>

#include "src/analyze/schedule_linter.h"
#include "src/exec/executor.h"
#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/schedule/fault_schedule.h"
#include "src/trace/execution_index.h"
#include "src/trace/tracer.h"

namespace rose {
namespace {

TEST(ExecutionIndexTrackerTest, EmptyContextDigestsToZero) {
  ExecutionIndexTracker tracker;
  EXPECT_EQ(tracker.DigestOf(100), 0u);
}

TEST(ExecutionIndexTrackerTest, DigestReflectsEnterChain) {
  ExecutionIndexTracker tracker;
  tracker.OnFunctionEnter(100, 5);
  const uint64_t after_one = tracker.DigestOf(100);
  EXPECT_NE(after_one, 0u);
  tracker.OnFunctionEnter(100, 6);
  const uint64_t after_two = tracker.DigestOf(100);
  EXPECT_NE(after_two, after_one);
  // Another pid with the same chain digests identically; chains are
  // per-pid but content-addressed.
  tracker.OnFunctionEnter(200, 5);
  tracker.OnFunctionEnter(200, 6);
  EXPECT_EQ(tracker.DigestOf(200), after_two);
  // A different chain (same ids, different order) digests differently.
  tracker.OnFunctionEnter(300, 6);
  tracker.OnFunctionEnter(300, 5);
  EXPECT_NE(tracker.DigestOf(300), after_two);
}

TEST(ExecutionIndexTrackerTest, RingKeepsOnlyLastKEnters) {
  // Two pids whose last kExecutionContextDepth enters agree must digest
  // equal, no matter what preceded them.
  ExecutionIndexTracker tracker;
  for (int32_t id = 1; id <= static_cast<int32_t>(kExecutionContextDepth); id++) {
    tracker.OnFunctionEnter(100, id);
  }
  tracker.OnFunctionEnter(200, 999);  // Falls off the ring below.
  for (int32_t id = 1; id <= static_cast<int32_t>(kExecutionContextDepth); id++) {
    tracker.OnFunctionEnter(200, id);
  }
  EXPECT_EQ(tracker.DigestOf(100), tracker.DigestOf(200));
}

TEST(ExecutionIndexTrackerTest, NextSeqCountsPerContextAndInput) {
  ExecutionIndexTracker tracker;
  tracker.OnFunctionEnter(100, 7);
  const uint64_t digest = tracker.DigestOf(100);
  EXPECT_EQ(tracker.NextSeq(0, digest, Sys::kOpen, "/a"), 1u);
  EXPECT_EQ(tracker.NextSeq(0, digest, Sys::kOpen, "/a"), 2u);
  // Any key component change starts an independent counter.
  EXPECT_EQ(tracker.NextSeq(0, digest, Sys::kOpen, "/b"), 1u);
  EXPECT_EQ(tracker.NextSeq(0, digest, Sys::kWrite, "/a"), 1u);
  EXPECT_EQ(tracker.NextSeq(1, digest, Sys::kOpen, "/a"), 1u);
  EXPECT_EQ(tracker.NextSeq(0, 0, Sys::kOpen, "/a"), 1u);
  // Reset forgets chains and counters alike.
  tracker.Reset();
  EXPECT_EQ(tracker.DigestOf(100), 0u);
  EXPECT_EQ(tracker.NextSeq(0, digest, Sys::kOpen, "/a"), 1u);
}

TEST(ExecutionIndexTest, IndexInputUsesImmediateArgumentsOnly) {
  SyscallInvocation inv;
  inv.sys = Sys::kOpen;
  inv.path = "/data/log";
  EXPECT_EQ(IndexInputOf(inv), "/data/log");
  inv = SyscallInvocation{};
  inv.sys = Sys::kConnect;
  inv.remote_ip = "10.0.0.2";
  EXPECT_EQ(IndexInputOf(inv), "sock:10.0.0.2");
  inv = SyscallInvocation{};
  inv.sys = Sys::kWrite;
  inv.fd = 3;  // Fd-only invocations index with an empty input: the tracer
               // resolves fds at Dump time, far too late for online parity.
  EXPECT_EQ(IndexInputOf(inv), "");
}

TEST(ExecutionIndexTest, InPlaceInputHashKeysLikeIndexInputOf) {
  // NextSeq(node, digest, inv) must count under the same key as NextSeq over
  // the materialized IndexInputOf(inv): the second call then sees seq 2.
  std::vector<SyscallInvocation> invs(4);
  invs[0].sys = Sys::kOpen;
  invs[0].path = "/data/raft.log.tmp";
  invs[1].sys = Sys::kConnect;
  invs[1].remote_ip = "10.0.0.2";
  invs[2].sys = Sys::kWrite;
  invs[2].fd = 5;
  invs[3].sys = Sys::kStat;  // Path-based with an empty path.
  for (const SyscallInvocation& inv : invs) {
    ExecutionIndexTracker tracker;
    EXPECT_EQ(tracker.NextSeq(2, 77, inv), 1u);
    EXPECT_EQ(tracker.NextSeq(2, 77, inv.sys, IndexInputOf(inv)), 2u) << SysName(inv.sys);
  }
}

TEST(ExecutionIndexConditionTest, YamlRoundTripPreservesAddress) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 1;
  fault.syscall.sys = Sys::kWrite;
  fault.syscall.err = Err::kEIO;
  fault.syscall.path_filter = "/data/txnlog";
  fault.conditions.push_back(
      Condition::ExecutionIndex(Sys::kWrite, 0xDEADBEEFCAFEF00DULL, 4, "/data/txnlog"));
  schedule.faults.push_back(fault);

  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(schedule.ToYaml(), &parsed));
  ASSERT_EQ(parsed.faults.size(), 1u);
  ASSERT_EQ(parsed.faults[0].conditions.size(), 1u);
  const Condition& cond = parsed.faults[0].conditions[0];
  EXPECT_EQ(cond.kind, Condition::Kind::kExecutionIndex);
  EXPECT_EQ(cond.sys, Sys::kWrite);
  EXPECT_EQ(cond.ctx_digest, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(cond.count, 4);
  EXPECT_EQ(cond.path_filter, "/data/txnlog");
}

bool HasCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  for (const Diagnostic& diag : diags) {
    if (diag.code == code) {
      return true;
    }
  }
  return false;
}

TEST(ExecutionIndexLintTest, RejectsNonPositiveSeq) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.syscall.sys = Sys::kOpen;
  fault.syscall.err = Err::kEIO;
  fault.conditions.push_back(Condition::ExecutionIndex(Sys::kOpen, 0x1234, 0));
  schedule.faults.push_back(fault);
  const std::vector<Diagnostic> diags = ScheduleLinter().Lint(schedule);
  EXPECT_TRUE(HasCode(diags, DiagCode::kBadIndexSeq));
  EXPECT_TRUE(HasErrors(diags));
}

TEST(ExecutionIndexLintTest, RejectsEmptyContextDigest) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.syscall.sys = Sys::kOpen;
  fault.syscall.err = Err::kEIO;
  fault.conditions.push_back(Condition::ExecutionIndex(Sys::kOpen, 0, 1));
  schedule.faults.push_back(fault);
  const std::vector<Diagnostic> diags = ScheduleLinter().Lint(schedule);
  EXPECT_TRUE(HasCode(diags, DiagCode::kEmptyIndexContext));
  EXPECT_TRUE(HasErrors(diags));
}

TEST(ExecutionIndexLintTest, AcceptsWellFormedIndexCondition) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.syscall.sys = Sys::kOpen;
  fault.syscall.err = Err::kEIO;
  fault.conditions.push_back(Condition::ExecutionIndex(Sys::kOpen, 0x1234, 1));
  schedule.faults.push_back(fault);
  EXPECT_FALSE(HasErrors(ScheduleLinter().Lint(schedule)));
}

// The tentpole invariant: a (digest, seq) address recorded by the tracer in
// the capture run resolves — in a fresh world, through the executor's own
// online tracker — to exactly the invocation it was recorded from.
class IndexParityTest : public ::testing::Test {
 protected:
  // Three failing opens of the same path under three distinct calling
  // contexts. A flat counter can only tell them apart by position (nth=3);
  // the execution index names each one outright.
  template <typename Kernel>
  static void RunWorkload(Kernel& kernel, Pid pid) {
    kernel.FunctionEnter(pid, 11);
    kernel.Open(pid, "/missing", {});  // ENOENT — context [11].
    kernel.FunctionEnter(pid, 11);
    kernel.Open(pid, "/missing", {});  // ENOENT — context [11, 11].
    kernel.FunctionEnter(pid, 12);
    kernel.Open(pid, "/missing", {});  // ENOENT — context [11, 11, 12].
  }
};

TEST_F(IndexParityTest, RecordedAddressResolvesToSameInvocationInExecutor) {
  // Capture run: the tracer stamps each SCF with its execution index.
  Trace production;
  {
    EventLoop loop;
    SimKernel kernel(&loop);
    Network network(&loop, 1);
    kernel.RegisterNode(0, "10.0.0.1");
    const Pid pid = kernel.Spawn(0, "main");
    Tracer tracer(&kernel, &network, {});
    tracer.Attach();
    RunWorkload(kernel, pid);
    production = tracer.Dump();
  }
  ASSERT_EQ(production.size(), 3u);
  for (const TraceEvent& event : production.events()) {
    ASSERT_EQ(event.type, EventType::kSCF);
    EXPECT_NE(event.scf().ctx_digest, 0u);
  }
  // Distinct contexts, so distinct digests — and each address is first of
  // its own (context, syscall, input) stream.
  EXPECT_NE(production[0].scf().ctx_digest, production[2].scf().ctx_digest);
  EXPECT_NE(production[1].scf().ctx_digest, production[2].scf().ctx_digest);
  EXPECT_EQ(production[2].scf().ctx_seq, 1u);

  // Replay run: target the third open by its recorded address. The injected
  // errno (EIO) differs from the natural failure (ENOENT), so the assertion
  // below can tell exactly which invocation the executor overrode.
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 0;
  fault.syscall.sys = Sys::kOpen;
  fault.syscall.err = Err::kEIO;
  fault.syscall.path_filter = "/missing";
  fault.conditions.push_back(Condition::ExecutionIndex(
      Sys::kOpen, production[2].scf().ctx_digest,
      static_cast<int32_t>(production[2].scf().ctx_seq), "/missing"));
  schedule.faults.push_back(fault);

  EventLoop loop;
  SimKernel kernel(&loop);
  Network network(&loop, 1);
  kernel.RegisterNode(0, "10.0.0.1");
  Executor executor(&kernel, &network, schedule);
  ASSERT_TRUE(executor.Attach());
  const Pid pid = kernel.Spawn(0, "main");
  kernel.FunctionEnter(pid, 11);
  EXPECT_EQ(kernel.Open(pid, "/missing", {}).err, Err::kENOENT);
  kernel.FunctionEnter(pid, 11);
  EXPECT_EQ(kernel.Open(pid, "/missing", {}).err, Err::kENOENT);
  kernel.FunctionEnter(pid, 12);
  EXPECT_EQ(kernel.Open(pid, "/missing", {}).err, Err::kEIO);  // Injected.
  EXPECT_TRUE(executor.Feedback().outcomes[0].injected);
}

TEST_F(IndexParityTest, WrongSeqNeverFires) {
  FaultSchedule schedule;
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 0;
  fault.syscall.sys = Sys::kOpen;
  fault.syscall.err = Err::kEIO;
  // Compute the context-[11] digest the same way the tracer would, then ask
  // for its second occurrence — the workload only produces one.
  ExecutionIndexTracker probe;
  probe.OnFunctionEnter(1, 11);
  fault.conditions.push_back(
      Condition::ExecutionIndex(Sys::kOpen, probe.DigestOf(1), 2, "/missing"));
  schedule.faults.push_back(fault);

  EventLoop loop;
  SimKernel kernel(&loop);
  Network network(&loop, 1);
  kernel.RegisterNode(0, "10.0.0.1");
  Executor executor(&kernel, &network, schedule);
  ASSERT_TRUE(executor.Attach());
  const Pid pid = kernel.Spawn(0, "main");
  RunWorkload(kernel, pid);
  EXPECT_FALSE(executor.Feedback().outcomes[0].injected);
}

}  // namespace
}  // namespace rose
