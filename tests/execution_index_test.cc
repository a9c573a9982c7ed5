// Execution-index tests (DESIGN.md §14): the calling-context tracker's
// digest/seq semantics and the tracer's stamping of SCF events with them.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/network.h"
#include "src/os/kernel.h"
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

// The tracer stamps each failed syscall with its calling-context address.
// Three failing opens of the same path under three distinct calling
// contexts: a flat counter tells them apart only by position, while each
// gets its own digest and is the first invocation of its own context.
TEST(ExecutionIndexCaptureTest, TracerStampsEachContextWithItsOwnDigest) {
  EventLoop loop;
  SimKernel kernel(&loop);
  Network network(&loop, 1);
  kernel.RegisterNode(0, "10.0.0.1");
  const Pid pid = kernel.Spawn(0, "main");
  Tracer tracer(&kernel, &network, {});
  tracer.Attach();
  kernel.FunctionEnter(pid, 11);
  kernel.Open(pid, "/missing", {});  // ENOENT — context [11].
  kernel.FunctionEnter(pid, 11);
  kernel.Open(pid, "/missing", {});  // ENOENT — context [11, 11].
  kernel.FunctionEnter(pid, 12);
  kernel.Open(pid, "/missing", {});  // ENOENT — context [11, 11, 12].
  const Trace trace = tracer.Dump();

  ASSERT_EQ(trace.size(), 3u);
  for (const TraceEvent& event : trace.events()) {
    ASSERT_EQ(event.type, EventType::kSCF);
    EXPECT_NE(event.scf().ctx_digest, 0u);
  }
  EXPECT_NE(trace[0].scf().ctx_digest, trace[1].scf().ctx_digest);
  EXPECT_NE(trace[0].scf().ctx_digest, trace[2].scf().ctx_digest);
  EXPECT_NE(trace[1].scf().ctx_digest, trace[2].scf().ctx_digest);
  EXPECT_EQ(trace[2].scf().ctx_seq, 1u);
}

}  // namespace
}  // namespace rose
