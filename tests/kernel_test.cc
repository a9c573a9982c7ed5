#include <gtest/gtest.h>

#include "src/os/kernel.h"
#include "src/sim/event_loop.h"

namespace rose {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(&loop_) {
    kernel_.RegisterNode(0, "10.0.0.1");
    kernel_.RegisterNode(1, "10.0.0.2");
    pid_ = kernel_.Spawn(0, "main");
  }

  EventLoop loop_;
  SimKernel kernel_;
  Pid pid_;
};

TEST_F(KernelTest, OpenCreateWriteReadClose) {
  SimKernel::OpenFlags flags;
  flags.create = true;
  const SyscallResult fd = kernel_.Open(pid_, "/f", flags);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(kernel_.Write(pid_, static_cast<int32_t>(fd.value), "hello").ok());
  EXPECT_TRUE(kernel_.Close(pid_, static_cast<int32_t>(fd.value)).ok());

  SimKernel::OpenFlags ro;
  ro.readonly = true;
  const SyscallResult fd2 = kernel_.Open(pid_, "/f", ro);
  ASSERT_TRUE(fd2.ok());
  std::string out;
  const SyscallResult got = kernel_.Read(pid_, static_cast<int32_t>(fd2.value), 100, &out);
  EXPECT_EQ(got.value, 5);
  EXPECT_EQ(out, "hello");
}

TEST_F(KernelTest, OpenMissingWithoutCreateFails) {
  const SyscallResult result = kernel_.Open(pid_, "/missing", {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.err, Err::kENOENT);
}

TEST_F(KernelTest, AppendModePositionsAtEnd) {
  kernel_.DiskOf(0).WriteAll("/log", "AAA");
  SimKernel::OpenFlags flags;
  flags.append = true;
  const SyscallResult fd = kernel_.Open(pid_, "/log", flags);
  ASSERT_TRUE(fd.ok());
  kernel_.Write(pid_, static_cast<int32_t>(fd.value), "BB");
  EXPECT_EQ(*kernel_.DiskOf(0).ReadAll("/log"), "AAABB");
}

TEST_F(KernelTest, ReadOnlyFdRejectsWrites) {
  kernel_.DiskOf(0).WriteAll("/f", "x");
  SimKernel::OpenFlags ro;
  ro.readonly = true;
  const SyscallResult fd = kernel_.Open(pid_, "/f", ro);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(kernel_.Write(pid_, static_cast<int32_t>(fd.value), "y").err, Err::kEBADF);
}

TEST_F(KernelTest, BadFdFails) {
  EXPECT_EQ(kernel_.Read(pid_, 99, 10).err, Err::kEBADF);
  EXPECT_EQ(kernel_.Close(pid_, 99).err, Err::kEBADF);
  EXPECT_EQ(kernel_.Fsync(pid_, 99).err, Err::kEBADF);
}

// The fd table relies on this: fds are never reused, so every open appends
// past the newest fd, and a closed fd stays dead for every syscall.
TEST_F(KernelTest, ClosedFdIsNeverReused) {
  SimKernel::OpenFlags flags;
  flags.create = true;
  int32_t fds[3];
  for (int i = 0; i < 3; i++) {
    const SyscallResult opened = kernel_.Open(pid_, "/f" + std::to_string(i), flags);
    ASSERT_TRUE(opened.ok());
    fds[i] = static_cast<int32_t>(opened.value);
  }
  ASSERT_TRUE(kernel_.Close(pid_, fds[1]).ok());
  const SyscallResult reopened = kernel_.Open(pid_, "/f1", flags);
  ASSERT_TRUE(reopened.ok());
  for (const int32_t fd : fds) {
    EXPECT_GT(reopened.value, fd);
  }

  const int32_t closed = fds[1];
  EXPECT_EQ(kernel_.Close(pid_, closed).err, Err::kEBADF);
  EXPECT_EQ(kernel_.Read(pid_, closed, 10).err, Err::kEBADF);
  EXPECT_EQ(kernel_.Write(pid_, closed, "x").err, Err::kEBADF);
  EXPECT_EQ(kernel_.Dup(pid_, closed).err, Err::kEBADF);
  EXPECT_EQ(kernel_.Fstat(pid_, closed).err, Err::kEBADF);
  EXPECT_EQ(kernel_.PathOfFd(pid_, closed), "");
  // The neighbours of the closed fd are untouched.
  EXPECT_EQ(kernel_.PathOfFd(pid_, fds[0]), "/f0");
  EXPECT_EQ(kernel_.PathOfFd(pid_, fds[2]), "/f2");
  EXPECT_EQ(kernel_.PathOfFd(pid_, static_cast<int32_t>(reopened.value)), "/f1");
}

TEST_F(KernelTest, EaccesOnProtectedFile) {
  kernel_.DiskOf(0).WriteAll("/key", "secret");
  kernel_.DiskOf(0).Chmod("/key", 0000);
  SimKernel::OpenFlags ro;
  ro.readonly = true;
  EXPECT_EQ(kernel_.Open(pid_, "/key", ro).err, Err::kEACCES);
}

TEST_F(KernelTest, DupSharesPath) {
  SimKernel::OpenFlags flags;
  flags.create = true;
  const SyscallResult fd = kernel_.Open(pid_, "/f", flags);
  const SyscallResult dup = kernel_.Dup(pid_, static_cast<int32_t>(fd.value));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(kernel_.PathOfFd(pid_, static_cast<int32_t>(dup.value)), "/f");
}

TEST_F(KernelTest, PerNodeDisksAreIsolated) {
  const Pid other = kernel_.Spawn(1, "other");
  SimKernel::OpenFlags flags;
  flags.create = true;
  kernel_.Open(pid_, "/f", flags);
  EXPECT_TRUE(kernel_.DiskOf(0).Exists("/f"));
  EXPECT_FALSE(kernel_.DiskOf(1).Exists("/f"));
  EXPECT_EQ(kernel_.Open(other, "/f", {}).err, Err::kENOENT);
}

TEST_F(KernelTest, SyscallsAdvanceVirtualTime) {
  const SimTime before = kernel_.now();
  kernel_.Stat(pid_, "/nope");
  EXPECT_GT(kernel_.now(), before);
}

TEST_F(KernelTest, KillDeliversInterruptAtNextBoundary) {
  kernel_.Kill(pid_);
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kCrashed);
  EXPECT_THROW(kernel_.Stat(pid_, "/x"), ProcessInterrupted);
  // The interrupt is consumed: a further syscall does not throw again.
  EXPECT_NO_THROW(kernel_.Stat(pid_, "/x"));
}

TEST_F(KernelTest, CrashClearsFdTable) {
  SimKernel::OpenFlags flags;
  flags.create = true;
  const SyscallResult fd = kernel_.Open(pid_, "/f", flags);
  ASSERT_TRUE(fd.ok());
  kernel_.Kill(pid_);
  EXPECT_TRUE(kernel_.FindProcess(pid_)->fds.empty());
}

TEST_F(KernelTest, PauseAutoResumesAndRecordsInterval) {
  kernel_.Pause(pid_, Seconds(4));
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kPaused);
  loop_.RunToCompletion();
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kRunning);
  const Process* proc = kernel_.FindProcess(pid_);
  ASSERT_EQ(proc->pauses.size(), 1u);
  EXPECT_EQ(proc->pauses[0].end - proc->pauses[0].start, Seconds(4));
}

TEST_F(KernelTest, KillDuringPauseClosesPauseRecord) {
  kernel_.Pause(pid_, Seconds(10));
  loop_.RunUntil(Seconds(2));
  kernel_.Kill(pid_);
  const Process* proc = kernel_.FindProcess(pid_);
  ASSERT_EQ(proc->pauses.size(), 1u);
  EXPECT_GT(proc->pauses[0].end, 0);
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kCrashed);
}

TEST_F(KernelTest, ExitIsTerminal) {
  kernel_.Exit(pid_);
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kExited);
  EXPECT_FALSE(kernel_.IsAlive(pid_));
  kernel_.Kill(pid_);  // No-op on exited processes.
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kExited);
}

class FailingInterposer : public SyscallInterposer {
 public:
  std::optional<SyscallResult> MaybeOverride(const SyscallInvocation& inv) override {
    calls++;
    if (inv.sys == Sys::kWrite) {
      return SyscallResult::Fail(Err::kEIO);
    }
    return std::nullopt;
  }
  int calls = 0;
};

TEST_F(KernelTest, InterposerOverridesAndSkipsBody) {
  FailingInterposer interposer;
  kernel_.AddInterposer(&interposer);
  SimKernel::OpenFlags flags;
  flags.create = true;
  const SyscallResult fd = kernel_.Open(pid_, "/f", flags);
  const SyscallResult written = kernel_.Write(pid_, static_cast<int32_t>(fd.value), "data");
  EXPECT_EQ(written.err, Err::kEIO);
  // The body was skipped: nothing reached the disk.
  EXPECT_EQ(kernel_.DiskOf(0).SizeOf("/f"), 0);
  kernel_.RemoveInterposer(&interposer);
  EXPECT_TRUE(kernel_.Write(pid_, static_cast<int32_t>(fd.value), "data").ok());
}

class RecordingObserver : public KernelObserver {
 public:
  void OnSyscallEnter(SimTime, const SyscallInvocation&) override { enters++; }
  void OnSyscallExit(SimTime, const SyscallInvocation&, const SyscallResult& result) override {
    exits++;
    if (!result.ok()) {
      failures++;
    }
  }
  void OnFunctionEnter(SimTime, Pid, int32_t) override { functions++; }
  void OnProcessSpawned(SimTime, Pid, NodeId, Pid) override { spawns++; }
  void OnProcessStateChange(SimTime, Pid, ProcState, ProcState) override { transitions++; }
  int enters = 0, exits = 0, failures = 0, functions = 0, spawns = 0, transitions = 0;
};

TEST_F(KernelTest, ObserversSeeAllBoundaryEvents) {
  RecordingObserver observer;
  kernel_.AddObserver(&observer);
  kernel_.Stat(pid_, "/missing");  // Failure.
  SimKernel::OpenFlags flags;
  flags.create = true;
  kernel_.Open(pid_, "/f", flags);  // Success.
  kernel_.FunctionEnter(pid_, 7);
  kernel_.Spawn(0, "child", pid_);
  kernel_.Pause(pid_, Millis(10));
  EXPECT_EQ(observer.enters, 2);
  EXPECT_EQ(observer.exits, 2);
  EXPECT_EQ(observer.failures, 1);
  EXPECT_EQ(observer.functions, 1);
  EXPECT_EQ(observer.spawns, 1);
  EXPECT_GE(observer.transitions, 1);
  kernel_.RemoveObserver(&observer);
}

class CrashAtFunctionObserver : public KernelObserver {
 public:
  explicit CrashAtFunctionObserver(SimKernel* kernel) : kernel_(kernel) {}
  void OnFunctionEnter(SimTime /*now*/, Pid pid, int32_t fid) override {
    if (fid == 42) {
      kernel_->Kill(pid);
    }
  }

 private:
  SimKernel* kernel_;
};

TEST_F(KernelTest, CrashInjectedAtFunctionEntryUnwindsImmediately) {
  CrashAtFunctionObserver observer(&kernel_);
  kernel_.AddObserver(&observer);
  kernel_.FunctionEnter(pid_, 1);  // Not the trigger.
  EXPECT_THROW(kernel_.FunctionEnter(pid_, 42), ProcessInterrupted);
  EXPECT_EQ(kernel_.StateOf(pid_), ProcState::kCrashed);
  kernel_.RemoveObserver(&observer);
}

TEST_F(KernelTest, ConnectChecksReachability) {
  class Unreachable : public NetReachability {
   public:
    bool IsReachable(const std::string&, const std::string&) override { return false; }
  } unreachable;
  kernel_.set_reachability(&unreachable);
  EXPECT_EQ(kernel_.Connect(pid_, "10.0.0.2").err, Err::kETIMEDOUT);
  kernel_.set_reachability(nullptr);
  const SyscallResult conn = kernel_.Connect(pid_, "10.0.0.2");
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(kernel_.PathOfFd(pid_, static_cast<int32_t>(conn.value)), "sock:10.0.0.2");
}

TEST_F(KernelTest, SocketReadsDrainRequestedBytes) {
  const SyscallResult conn = kernel_.Connect(pid_, "10.0.0.2");
  ASSERT_TRUE(conn.ok());
  const SyscallResult got = kernel_.Read(pid_, static_cast<int32_t>(conn.value), 128);
  EXPECT_EQ(got.value, 128);
  const SyscallResult sent = kernel_.SendTo(pid_, static_cast<int32_t>(conn.value), 64);
  EXPECT_EQ(sent.value, 64);
}

TEST_F(KernelTest, IpNodeMapping) {
  EXPECT_EQ(kernel_.IpOf(0), "10.0.0.1");
  EXPECT_EQ(kernel_.NodeOfIp("10.0.0.2"), 1);
  EXPECT_EQ(kernel_.NodeOfIp("1.2.3.4"), kNoNode);
}

TEST_F(KernelTest, ReadlinkModelsBenignFailures) {
  EXPECT_EQ(kernel_.Readlink(pid_, "/missing").err, Err::kENOENT);
  kernel_.DiskOf(0).WriteAll("/exists", "x");
  EXPECT_EQ(kernel_.Readlink(pid_, "/exists").err, Err::kEINVAL);
}

}  // namespace
}  // namespace rose
