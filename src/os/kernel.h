// The simulated kernel: syscall boundary, processes, per-node disks.
//
// This is the substrate standing in for Linux + eBPF in the paper:
//  - KernelObserver::OnSyscallEnter/Exit  ~ sys_enter / sys_exit tracepoints
//  - SyscallInterposer::MaybeOverride     ~ kprobe + bpf_override_return
//  - KernelObserver::OnFunctionEnter/Offset ~ uprobes at symbol / offset
//  - Kill / Pause                          ~ bpf_send_signal from kernel space
//
// All guest I/O flows through DoSyscall(), which runs the hook chain in a
// fixed order: enter-observers, interposers (first override wins), the
// syscall body (skipped when overridden), exit-observers, then interrupt
// delivery. Crash signals injected by an observer during the exit hook
// therefore land at exactly the same execution point every run — the paper's
// precise-injection property.
#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/os/fs.h"
#include "src/os/process.h"
#include "src/os/syscall.h"
#include "src/sim/event_loop.h"

namespace rose {

// Observation interface (tracers, executors). All methods have no-op defaults.
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  virtual void OnSyscallEnter(SimTime /*now*/, const SyscallInvocation& /*inv*/) {}
  virtual void OnSyscallExit(SimTime /*now*/, const SyscallInvocation& /*inv*/,
                             const SyscallResult& /*result*/) {}
  virtual void OnFunctionEnter(SimTime /*now*/, Pid /*pid*/, int32_t /*function_id*/) {}
  virtual void OnFunctionOffset(SimTime /*now*/, Pid /*pid*/, int32_t /*function_id*/,
                                int32_t /*offset*/) {}
  virtual void OnProcessSpawned(SimTime /*now*/, Pid /*pid*/, NodeId /*node*/, Pid /*parent*/) {}
  virtual void OnProcessStateChange(SimTime /*now*/, Pid /*pid*/, ProcState /*from*/,
                                    ProcState /*to*/) {}
};

// Return-value override interface (the bpf_override_return analogue).
class SyscallInterposer {
 public:
  virtual ~SyscallInterposer() = default;
  // Returning a result fails the syscall at entry: the body never runs.
  virtual std::optional<SyscallResult> MaybeOverride(const SyscallInvocation& inv) = 0;
};

// Reachability oracle used by connect(); implemented by the network module.
class NetReachability {
 public:
  virtual ~NetReachability() = default;
  virtual bool IsReachable(const std::string& src_ip, const std::string& dst_ip) = 0;
};

class SimKernel {
  static constexpr Pid kFirstPid = 100;

 public:
  explicit SimKernel(EventLoop* loop);
  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  EventLoop& loop() { return *loop_; }
  SimTime now() const { return loop_->now(); }

  // --- Topology -------------------------------------------------------------
  void RegisterNode(NodeId node, const std::string& ip);
  const std::string& IpOf(NodeId node) const;
  NodeId NodeOfIp(const std::string& ip) const;
  InMemoryFileSystem& DiskOf(NodeId node);

  void set_reachability(NetReachability* reachability) { reachability_ = reachability; }

  // --- Instrumentation ------------------------------------------------------
  void AddObserver(KernelObserver* observer);
  void RemoveObserver(KernelObserver* observer);
  void AddInterposer(SyscallInterposer* interposer);
  void RemoveInterposer(SyscallInterposer* interposer);

  // --- Process management ---------------------------------------------------
  Pid Spawn(NodeId node, const std::string& name, Pid parent = kNoPid);
  // Crash signal from kernel space; delivered at the victim's next (or
  // current) kernel boundary.
  void Kill(Pid pid);
  // Stop signal; the process resumes automatically after `duration`.
  void Pause(Pid pid, SimTime duration);
  void Resume(Pid pid);
  void Exit(Pid pid);

  bool IsAlive(Pid pid) const;
  ProcState StateOf(Pid pid) const;
  const Process* FindProcess(Pid pid) const {
    if (pid < kFirstPid || static_cast<size_t>(pid - kFirstPid) >= processes_.size()) {
      return nullptr;
    }
    return processes_[static_cast<size_t>(pid - kFirstPid)].get();
  }
  // Pids of all processes ever spawned (the procfs analogue), ascending.
  std::vector<Pid> AllPids() const;

  // --- Syscalls (invoked by guest code) --------------------------------------
  struct OpenFlags {
    bool create = false;
    bool truncate = false;
    bool readonly = false;
    bool append = false;
  };
  SyscallResult Open(Pid pid, const std::string& path, OpenFlags flags);
  // openat: identical semantics, distinct syscall id (matches the bugs that
  // key on openat specifically).
  SyscallResult OpenAt(Pid pid, const std::string& path, OpenFlags flags);
  SyscallResult Close(Pid pid, int32_t fd);
  SyscallResult Read(Pid pid, int32_t fd, int64_t count, std::string* out = nullptr);
  SyscallResult Write(Pid pid, int32_t fd, std::string_view data);
  SyscallResult PRead(Pid pid, int32_t fd, int64_t offset, int64_t count,
                      std::string* out = nullptr);
  SyscallResult PWrite(Pid pid, int32_t fd, int64_t offset, std::string_view data);
  SyscallResult Fsync(Pid pid, int32_t fd);
  SyscallResult Stat(Pid pid, const std::string& path, FileStat* out = nullptr);
  SyscallResult Fstat(Pid pid, int32_t fd, FileStat* out = nullptr);
  SyscallResult Unlink(Pid pid, const std::string& path);
  SyscallResult Rename(Pid pid, const std::string& from, const std::string& to);
  SyscallResult Mkdir(Pid pid, const std::string& path);
  SyscallResult Readlink(Pid pid, const std::string& path);
  SyscallResult Dup(Pid pid, int32_t fd);
  SyscallResult SocketOpen(Pid pid);
  SyscallResult Connect(Pid pid, const std::string& dst_ip);
  SyscallResult Accept(Pid pid, const std::string& remote_ip);
  // send() on a connected socket fd. The byte payload itself is delivered by
  // the network fabric above the kernel; the syscall models the boundary
  // crossing (and is the injection point for send failures).
  SyscallResult SendTo(Pid pid, int32_t fd, int64_t length);

  // Path of an open fd (empty when unknown) — used by tests and the executor.
  std::string PathOfFd(Pid pid, int32_t fd) const;

  // --- Uprobe boundary (called by the guest framework) -----------------------
  void FunctionEnter(Pid pid, int32_t function_id);
  void FunctionOffset(Pid pid, int32_t function_id, int32_t offset);

  // Throws ProcessInterrupted if a crash signal is pending for `pid`.
  void CheckInterrupt(Pid pid);

  // Virtual cost accounting: each syscall advances the clock a little so
  // handlers occupy nonzero time and traces have realistic spacing.
  void set_syscall_cost(SimTime cost) { syscall_cost_ = cost; }

 private:
  Process& Proc(Pid pid);
  const Process& Proc(Pid pid) const;
  // Runs the hook chain around `body` (a `SyscallResult()` callable).
  template <typename Body>
  SyscallResult DoSyscall(const SyscallInvocation& inv, Body&& body);
  SyscallResult OpenPath(Pid pid, Sys sys, const std::string& path, OpenFlags flags);
  int32_t AllocFd(Process& proc, OpenFile file);
  void SetState(Pid pid, ProcState state);

  EventLoop* loop_;
  NetReachability* reachability_ = nullptr;
  SimTime syscall_cost_ = Micros(2);
  // Pid kFirstPid + i lives at processes_[i], each at a stable address
  // while later spawns append.
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::string> node_ips_;  // Indexed by NodeId.
  // (ip, node) in registration order; the latest registration of an ip wins.
  std::vector<std::pair<std::string, NodeId>> ip_nodes_;
  std::vector<std::unique_ptr<InMemoryFileSystem>> disks_;  // Indexed by NodeId.
  std::vector<KernelObserver*> observers_;
  std::vector<SyscallInterposer*> interposers_;
};

}  // namespace rose

#endif  // SRC_OS_KERNEL_H_
