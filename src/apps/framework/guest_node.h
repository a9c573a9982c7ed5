// Base class for guest-system nodes.
//
// Subclasses implement OnStart / OnMessage / OnTimer and interact with the
// world exclusively through the protected helpers, all of which cross the
// simulated kernel boundary (and can therefore be observed and manipulated
// by Rose). EnterFunction/AtOffset are the uprobe announcement points: real
// binaries expose symbols and offsets; guests announce them explicitly.
//
// Any helper that crosses the kernel may throw ProcessInterrupted when the
// executor crashes this process at that exact point. Subclasses must let the
// exception propagate (the cluster catches it at the dispatch boundary) so
// that on-disk state stays exactly as durable as the syscalls already made.
#ifndef SRC_APPS_FRAMEWORK_GUEST_NODE_H_
#define SRC_APPS_FRAMEWORK_GUEST_NODE_H_

#include <string>

#include "src/apps/framework/cluster.h"
#include "src/apps/framework/message.h"

namespace rose {

class GuestNode {
 public:
  GuestNode(Cluster* cluster, NodeId id, std::string name);
  virtual ~GuestNode() = default;

  NodeId id() const { return id_; }
  Pid pid() const { return pid_; }
  const std::string& name() const { return name_; }

  // Boot (first start or post-crash restart). Recover state from disk here.
  virtual void OnStart() = 0;
  virtual void OnMessage(const Message& msg) = 0;
  virtual void OnTimer(const std::string& /*name*/) {}

  void set_pid(Pid pid) { pid_ = pid; }

 protected:
  Cluster& cluster() { return *cluster_; }
  SimKernel& kernel() { return cluster_->kernel(); }
  InMemoryFileSystem& disk() { return kernel().DiskOf(id_); }
  SimTime now() const { return cluster_->kernel().now(); }
  Rng& rng() { return cluster_->rng(); }

  // --- Communication ---------------------------------------------------------
  bool Send(NodeId dst, Message msg) { return cluster_->SendMessage(this, dst, std::move(msg)); }
  void Broadcast(const Message& msg, int node_count);

  // --- Timers ------------------------------------------------------------------
  void SetTimer(std::string_view name, SimTime delay) { cluster_->SetTimer(this, name, delay); }
  void CancelTimer(std::string_view name) { cluster_->CancelTimer(this, name); }

  // --- Observability ------------------------------------------------------------
  void Log(const std::string& line) { cluster_->AppendLog(id_, line); }
  // Failed assertion: logs "ASSERTION FAILED: <msg>" and panics the process.
  void Assert(bool condition, const std::string& message);
  [[noreturn]] void Panic(const std::string& reason) { cluster_->Panic(this, reason); }

  // --- Uprobe announcements -------------------------------------------------------
  // Announce entry into a named function (must be registered in the guest's
  // BinaryInfo). The executor may crash/pause this process right here.
  void EnterFunction(Literal function_name);
  // Announce reaching a specific offset within a function.
  void AtOffset(Literal function_name, int32_t offset);

  // --- Syscall shorthand (all trace-visible, all injectable) ----------------------
  SyscallResult Open(const std::string& path, SimKernel::OpenFlags flags = {});
  SyscallResult OpenAt(const std::string& path, SimKernel::OpenFlags flags = {});
  SyscallResult Close(int32_t fd);
  SyscallResult ReadFd(int32_t fd, int64_t count, std::string* out = nullptr);
  SyscallResult WriteFd(int32_t fd, std::string_view data);
  SyscallResult Fsync(int32_t fd);
  SyscallResult StatPath(const std::string& path, FileStat* out = nullptr);
  SyscallResult FstatFd(int32_t fd, FileStat* out = nullptr);
  SyscallResult UnlinkPath(const std::string& path);
  SyscallResult RenamePath(const std::string& from, const std::string& to);
  SyscallResult ReadlinkPath(const std::string& path);
  SyscallResult ConnectTo(const std::string& ip);
  SyscallResult AcceptFrom(const std::string& ip);

  // Convenience: durable whole-file write via open/write/fsync/close; returns
  // the first failing errno (kOk on success). Crash-interruptible at every
  // syscall.
  Err WriteFileDurably(const std::string& path, std::string_view data);
  // Reads the whole file through read syscalls; empty optional on failure.
  std::optional<std::string> ReadWholeFile(const std::string& path);

 private:
  Cluster* cluster_;
  NodeId id_;
  std::string name_;
  Pid pid_ = kNoPid;
};

}  // namespace rose

#endif  // SRC_APPS_FRAMEWORK_GUEST_NODE_H_
