#include <gtest/gtest.h>

#include <vector>

#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/trace/tracer.h"

namespace rose {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  TracerTest() : kernel_(&loop_), network_(&loop_, 1) {
    kernel_.RegisterNode(0, "10.0.0.1");
    kernel_.RegisterNode(1, "10.0.0.2");
    pid_ = kernel_.Spawn(0, "main");
  }

  Tracer MakeTracer(TracerConfig config = {}) { return Tracer(&kernel_, &network_, config); }

  EventLoop loop_;
  SimKernel kernel_;
  Network network_;
  Pid pid_;
};

TEST_F(TracerTest, RoseModeRecordsOnlyFailures) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  SimKernel::OpenFlags flags;
  flags.create = true;
  kernel_.Open(pid_, "/f", flags);        // Success: not recorded.
  kernel_.Open(pid_, "/missing", {});     // ENOENT: recorded.
  kernel_.Stat(pid_, "/also-missing");    // ENOENT: recorded.
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].scf().err, Err::kENOENT);
  EXPECT_EQ(tracer.stats().syscalls_observed, 3u);
  EXPECT_EQ(tracer.stats().events_seen, 2u);
}

TEST_F(TracerTest, FullModeRecordsEverything) {
  TracerConfig config;
  config.mode = TracerMode::kFull;
  Tracer tracer = MakeTracer(config);
  tracer.Attach();
  SimKernel::OpenFlags flags;
  flags.create = true;
  kernel_.Open(pid_, "/f", flags);
  kernel_.Open(pid_, "/missing", {});
  EXPECT_EQ(tracer.Dump().size(), 2u);
}

TEST_F(TracerTest, IoContentModeCopiesCappedBytes) {
  TracerConfig config;
  config.mode = TracerMode::kIoContent;
  config.io_content_cap = 128;
  Tracer tracer = MakeTracer(config);
  tracer.Attach();
  SimKernel::OpenFlags flags;
  flags.create = true;
  const SyscallResult fd = kernel_.Open(pid_, "/f", flags);
  kernel_.Write(pid_, static_cast<int32_t>(fd.value), std::string(500, 'x'));
  kernel_.Write(pid_, static_cast<int32_t>(fd.value), "tiny");
  EXPECT_EQ(tracer.stats().bytes_copied, 128u + 4u);
  // Both writes recorded even though they succeeded.
  EXPECT_EQ(tracer.Dump().size(), 2u);
}

TEST_F(TracerTest, FdResolutionInDumpPostProcessing) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  SimKernel::OpenFlags flags;
  flags.create = true;
  flags.readonly = false;
  const SyscallResult fd = kernel_.Open(pid_, "/data/journal", flags);
  kernel_.Close(pid_, static_cast<int32_t>(fd.value));
  // Re-open readonly and fail a write on it (EBADF), an fd-based failure.
  SimKernel::OpenFlags ro;
  ro.readonly = true;
  const SyscallResult fd2 = kernel_.Open(pid_, "/data/journal", ro);
  kernel_.Write(pid_, static_cast<int32_t>(fd2.value), "x");
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].scf().sys, Sys::kWrite);
  EXPECT_EQ(trace.str(trace[0].scf().filename), "/data/journal");  // Resolved from the fd map.
}

TEST_F(TracerTest, FdFailureBeforeItsBindingResolvesToEmpty) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  SimKernel::OpenFlags flags;
  flags.create = true;
  const auto first = static_cast<int32_t>(kernel_.Open(pid_, "/data/a", flags).value);
  kernel_.Fsync(pid_, first + 1);  // EBADF: nothing holds first + 1 yet.
  ASSERT_EQ(kernel_.Open(pid_, "/data/b", flags).value, first + 1);
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].scf().fd, first + 1);
  EXPECT_EQ(trace.str(trace[0].scf().filename), "");  // /data/b was bound later.
}

TEST_F(TracerTest, SocketAndDupFdsResolveThroughTheirBindings) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  const auto out = static_cast<int32_t>(kernel_.Connect(pid_, "10.0.0.2").value);
  const auto in = static_cast<int32_t>(kernel_.Accept(pid_, "10.0.0.3").value);
  kernel_.DiskOf(0).WriteAll("/data/a", "x");
  SimKernel::OpenFlags ro;
  ro.readonly = true;
  const auto file = static_cast<int32_t>(kernel_.Open(pid_, "/data/a", ro).value);
  const auto copy = static_cast<int32_t>(kernel_.Dup(pid_, file).value);
  kernel_.Close(pid_, out);
  kernel_.Close(pid_, out);        // EBADF on the closed connect fd.
  kernel_.Close(pid_, in);
  kernel_.Close(pid_, in);         // EBADF on the closed accept fd.
  kernel_.Write(pid_, copy, "x");  // EBADF: the dup is read-only too.
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.str(trace[0].scf().filename), "sock:10.0.0.2");
  EXPECT_EQ(trace.str(trace[1].scf().filename), "sock:10.0.0.3");
  EXPECT_EQ(trace[2].scf().fd, copy);
  EXPECT_EQ(trace.str(trace[2].scf().filename), "/data/a");
}

TEST_F(TracerTest, StreamDeltaResolvesFdsLikeDump) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  kernel_.DiskOf(0).WriteAll("/data/a", "x");
  kernel_.DiskOf(0).WriteAll("/data/b", "x");
  SimKernel::OpenFlags ro;
  ro.readonly = true;
  std::vector<TraceEvent> streamed;
  const auto a = static_cast<int32_t>(kernel_.Open(pid_, "/data/a", ro).value);
  kernel_.Write(pid_, a, "x");  // EBADF on /data/a.
  EXPECT_EQ(tracer.TakeStreamDelta(&streamed), 0u);
  kernel_.Close(pid_, a);
  const auto b = static_cast<int32_t>(kernel_.Open(pid_, "/data/b", ro).value);
  kernel_.Write(pid_, b, "x");  // EBADF on /data/b.
  kernel_.Write(pid_, a, "x");  // EBADF on the closed fd, still /data/a.
  EXPECT_EQ(tracer.TakeStreamDelta(&streamed), 0u);
  const Trace dumped = tracer.Dump();
  ASSERT_EQ(dumped.size(), 3u);
  ASSERT_EQ(streamed.size(), dumped.size());
  const char* expected[] = {"/data/a", "/data/b", "/data/a"};
  for (size_t i = 0; i < dumped.size(); i++) {
    EXPECT_EQ(tracer.stream_pool().View(streamed[i].scf().filename),
              dumped.str(dumped[i].scf().filename))
        << i;
    EXPECT_EQ(dumped.str(dumped[i].scf().filename), expected[i]) << i;
  }
}

TEST_F(TracerTest, FailuresCarryNoExecutionIndexStamp) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  kernel_.FunctionEnter(pid_, 11);
  kernel_.FunctionEnter(pid_, 12);
  kernel_.FunctionEnter(pid_, 11);
  kernel_.Open(pid_, "/missing", {});  // ENOENT.
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 1u);
  ASSERT_EQ(trace[0].type, EventType::kSCF);
  // The paper's five SCF fields and nothing else, whatever ran before.
  const std::string line = trace[0].ToLine(trace.pool());
  EXPECT_EQ(line.substr(line.find(' ')), " SCF node=0 pid=" + std::to_string(pid_) +
                                             " sys=open fd=-1 file=/missing errno=ENOENT");
  if constexpr (sizeof(void*) == 8) {
    // ts, node, type, then a variant sized by ND's 24 bytes plus its index.
    EXPECT_EQ(sizeof(TraceEvent), 48u);
  }
}

TEST_F(TracerTest, MonitoredFunctionsProduceAfEvents) {
  TracerConfig config;
  config.monitored_functions = {0, 7};
  Tracer tracer = MakeTracer(config);
  tracer.Attach();
  for (int32_t id : {-1, 0, 7, 8, 1000}) {  // Only 0 and 7 are monitored.
    kernel_.FunctionEnter(pid_, id);
  }
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].type, EventType::kAF);
  EXPECT_EQ(trace[0].af().function_id, 0);
  EXPECT_EQ(trace[1].type, EventType::kAF);
  EXPECT_EQ(trace[1].af().function_id, 7);
  EXPECT_EQ(tracer.stats().function_probe_hits, 2u);
}

TEST_F(TracerTest, NdDetectedWhenEstablishedFlowGoesSilent) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  // Establish a chatty flow for 3 seconds.
  for (int i = 0; i < 30; i++) {
    loop_.ScheduleAt(Millis(100) * i, [this] {
      network_.Send("10.0.0.1", "10.0.0.2", 64, [] {});
    });
  }
  // Silence for 8 s, then one more packet (the partition healing).
  loop_.ScheduleAt(Seconds(3) + Seconds(8), [this] {
    network_.Send("10.0.0.1", "10.0.0.2", 64, [] {});
  });
  loop_.RunUntil(Seconds(12));  // The PS poller reschedules forever.
  const Trace trace = tracer.Dump();
  const auto nds = trace.OfType(EventType::kND);
  ASSERT_EQ(nds.size(), 1u);
  EXPECT_NEAR(ToSeconds(nds[0].nd().duration), 8.0, 0.2);
  EXPECT_EQ(trace.str(nds[0].nd().src_ip), "10.0.0.1");
}

TEST_F(TracerTest, ShortBurstConnectionsDoNotProduceNd) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  // Five packets in a burst, then a long gap, then one more.
  for (int i = 0; i < 5; i++) {
    loop_.ScheduleAt(Millis(10) * i, [this] {
      network_.Send("10.0.0.1", "10.0.0.2", 64, [] {});
    });
  }
  loop_.ScheduleAt(Seconds(10), [this] {
    network_.Send("10.0.0.1", "10.0.0.2", 64, [] {});
  });
  loop_.RunUntil(Seconds(11));
  EXPECT_EQ(tracer.Dump().OfType(EventType::kND).size(), 0u);
}

TEST_F(TracerTest, OngoingSilenceFlushedAtDump) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  for (int i = 0; i < 40; i++) {
    loop_.ScheduleAt(Millis(100) * i, [this] {
      network_.Send("10.0.0.1", "10.0.0.2", 64, [] {});
    });
  }
  loop_.RunUntil(Seconds(11));  // 4 s of traffic, then ~7 s of silence.
  const Trace trace = tracer.Dump();
  const auto nds = trace.OfType(EventType::kND);
  ASSERT_EQ(nds.size(), 1u);
  EXPECT_GT(nds[0].nd().duration, Seconds(6));
}

TEST_F(TracerTest, SilentFlowsFromLaterAddressesFlushInIpOrder) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  // Both sources are interned only now, the later one sorting first.
  for (int i = 0; i < 40; i++) {
    loop_.ScheduleAt(Millis(100) * i, [this] {
      network_.Send("10.0.0.9", "10.0.0.1", 64, [] {});
      network_.Send("10.0.0.10", "10.0.0.1", 64, [] {});
    });
  }
  loop_.RunUntil(Seconds(11));  // 4 s of traffic, then ~7 s of silence.
  const Trace trace = tracer.Dump();
  const auto nds = trace.OfType(EventType::kND);
  ASSERT_EQ(nds.size(), 2u);
  EXPECT_EQ(trace.str(nds[0].nd().src_ip), "10.0.0.10");
  EXPECT_EQ(trace.str(nds[1].nd().src_ip), "10.0.0.9");
  EXPECT_EQ(trace.str(nds[1].nd().dst_ip), "10.0.0.1");
}

TEST_F(TracerTest, PsPollerReportsCrashesOnce) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  loop_.ScheduleAt(Seconds(2), [this] { kernel_.Kill(pid_); });
  loop_.RunUntil(Seconds(5));
  const Trace trace = tracer.Dump();
  const auto crashes = trace.OfType(EventType::kPS);
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].ps().state, ProcState::kCrashed);
  EXPECT_EQ(crashes[0].ts, Seconds(2));
}

TEST_F(TracerTest, PsPollerReportsLongPausesWithDuration) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  loop_.ScheduleAt(Seconds(1), [this] { kernel_.Pause(pid_, Seconds(4)); });
  loop_.RunUntil(Seconds(8));
  const auto pauses = tracer.Dump().OfType(EventType::kPS);
  ASSERT_EQ(pauses.size(), 1u);
  EXPECT_EQ(pauses[0].ps().state, ProcState::kPaused);
  EXPECT_EQ(pauses[0].ps().duration, Seconds(4));
}

TEST_F(TracerTest, ShortPausesAreNotReported) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  loop_.ScheduleAt(Seconds(1), [this] { kernel_.Pause(pid_, Seconds(1)); });
  loop_.RunUntil(Seconds(5));
  EXPECT_EQ(tracer.Dump().OfType(EventType::kPS).size(), 0u);
}

TEST_F(TracerTest, OngoingPauseFlushedAtDump) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  loop_.ScheduleAt(Seconds(1), [this] { kernel_.Pause(pid_, Seconds(60)); });
  loop_.RunUntil(Seconds(6));
  const auto pauses = tracer.Dump().OfType(EventType::kPS);
  ASSERT_EQ(pauses.size(), 1u);
  EXPECT_NEAR(ToSeconds(pauses[0].ps().duration), 5.0, 0.1);
}

TEST_F(TracerTest, WindowBoundsEventCount) {
  TracerConfig config;
  config.window_size = 10;
  Tracer tracer = MakeTracer(config);
  tracer.Attach();
  for (int i = 0; i < 50; i++) {
    kernel_.Stat(pid_, "/missing");  // 50 failures.
  }
  EXPECT_EQ(tracer.Dump().size(), 10u);
  EXPECT_EQ(tracer.stats().events_seen, 50u);
  EXPECT_EQ(tracer.stats().events_saved, 10u);
}

TEST_F(TracerTest, VirtualOverheadGrowsWithMode) {
  auto measure = [&](TracerMode mode) {
    EventLoop loop;
    SimKernel kernel(&loop);
    kernel.RegisterNode(0, "10.0.0.1");
    const Pid pid = kernel.Spawn(0, "p");
    TracerConfig config;
    config.mode = mode;
    Tracer tracer(&kernel, nullptr, config);
    tracer.Attach();
    SimKernel::OpenFlags flags;
    flags.create = true;
    const SyscallResult fd = kernel.Open(pid, "/f", flags);
    for (int i = 0; i < 1000; i++) {
      kernel.Write(pid, static_cast<int32_t>(fd.value), std::string(100, 'x'));
    }
    return tracer.stats().virtual_overhead;
  };
  const SimTime rose = measure(TracerMode::kRose);
  const SimTime full = measure(TracerMode::kFull);
  const SimTime io_content = measure(TracerMode::kIoContent);
  EXPECT_LT(rose, full);
  EXPECT_LT(full, io_content);
}

TEST_F(TracerTest, DetachStopsObservation) {
  Tracer tracer = MakeTracer();
  tracer.Attach();
  kernel_.Stat(pid_, "/missing");
  tracer.Detach();
  kernel_.Stat(pid_, "/missing");
  EXPECT_EQ(tracer.stats().events_seen, 1u);
}

}  // namespace
}  // namespace rose
