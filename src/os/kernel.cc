#include "src/os/kernel.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rose {

namespace {

// The entry of `fd` in a process's fd table (ascending fd order), or end().
template <typename Fds>
auto FindFd(Fds& fds, int32_t fd) {
  auto it = std::lower_bound(fds.begin(), fds.end(), fd,
                             [](const OpenFile& file, int32_t key) { return file.fd < key; });
  return it != fds.end() && it->fd == fd ? it : fds.end();
}

}  // namespace

std::string_view ProcStateName(ProcState state) {
  switch (state) {
    case ProcState::kRunning:
      return "running";
    case ProcState::kPaused:
      return "paused";
    case ProcState::kCrashed:
      return "crashed";
    case ProcState::kExited:
      return "exited";
  }
  return "unknown";
}

SimKernel::SimKernel(EventLoop* loop) : loop_(loop) {}

void SimKernel::RegisterNode(NodeId node, const std::string& ip) {
  if (node < 0) {
    throw std::logic_error("RegisterNode: negative node id");
  }
  const auto index = static_cast<size_t>(node);
  if (index >= node_ips_.size()) {
    node_ips_.resize(index + 1);
    disks_.resize(index + 1);
  }
  node_ips_[index] = ip;
  ip_nodes_.emplace_back(ip, node);
  if (disks_[index] == nullptr) {
    disks_[index] = std::make_unique<InMemoryFileSystem>();
  }
}

const std::string& SimKernel::IpOf(NodeId node) const {
  static const std::string kEmpty;
  if (node < 0 || static_cast<size_t>(node) >= node_ips_.size()) {
    return kEmpty;
  }
  return node_ips_[static_cast<size_t>(node)];
}

NodeId SimKernel::NodeOfIp(const std::string& ip) const {
  for (auto it = ip_nodes_.rbegin(); it != ip_nodes_.rend(); ++it) {
    if (it->first == ip) {
      return it->second;
    }
  }
  return kNoNode;
}

InMemoryFileSystem& SimKernel::DiskOf(NodeId node) {
  if (node < 0 || static_cast<size_t>(node) >= disks_.size() ||
      disks_[static_cast<size_t>(node)] == nullptr) {
    throw std::logic_error("DiskOf: unregistered node");
  }
  return *disks_[static_cast<size_t>(node)];
}

void SimKernel::AddObserver(KernelObserver* observer) { observers_.push_back(observer); }

void SimKernel::RemoveObserver(KernelObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void SimKernel::AddInterposer(SyscallInterposer* interposer) {
  interposers_.push_back(interposer);
}

void SimKernel::RemoveInterposer(SyscallInterposer* interposer) {
  interposers_.erase(std::remove(interposers_.begin(), interposers_.end(), interposer),
                     interposers_.end());
}

Pid SimKernel::Spawn(NodeId node, const std::string& name, Pid parent) {
  const Pid pid = kFirstPid + static_cast<Pid>(processes_.size());
  Process& proc = *processes_.emplace_back(std::make_unique<Process>());
  proc.pid = pid;
  proc.node = node;
  proc.name = name;
  proc.parent = parent;
  proc.state = ProcState::kRunning;
  proc.state_since = now();
  for (KernelObserver* obs : observers_) {
    obs->OnProcessSpawned(now(), pid, node, parent);
  }
  return pid;
}

void SimKernel::SetState(Pid pid, ProcState state) {
  Process& proc = Proc(pid);
  if (proc.state == state) {
    return;
  }
  const ProcState from = proc.state;
  proc.state = state;
  proc.state_since = now();
  for (KernelObserver* obs : observers_) {
    obs->OnProcessStateChange(now(), pid, from, state);
  }
}

void SimKernel::Kill(Pid pid) {
  Process& proc = Proc(pid);
  if (proc.state == ProcState::kCrashed || proc.state == ProcState::kExited) {
    return;
  }
  if (proc.state == ProcState::kPaused && !proc.pauses.empty() &&
      proc.pauses.back().end == 0) {
    proc.pauses.back().end = now();
  }
  SetState(pid, ProcState::kCrashed);
  proc.interrupt_pending = true;
  proc.fds.clear();
}

void SimKernel::Pause(Pid pid, SimTime duration) {
  Process& proc = Proc(pid);
  if (proc.state != ProcState::kRunning) {
    return;
  }
  proc.pauses.push_back(PauseRecord{now(), 0});
  SetState(pid, ProcState::kPaused);
  loop_->ScheduleAfter(duration, [this, pid] { Resume(pid); });
}

void SimKernel::Resume(Pid pid) {
  Process& proc = Proc(pid);
  if (proc.state != ProcState::kPaused) {
    return;
  }
  if (!proc.pauses.empty() && proc.pauses.back().end == 0) {
    proc.pauses.back().end = now();
  }
  SetState(pid, ProcState::kRunning);
}

void SimKernel::Exit(Pid pid) {
  Process& proc = Proc(pid);
  if (proc.state == ProcState::kExited) {
    return;
  }
  proc.fds.clear();
  SetState(pid, ProcState::kExited);
}

bool SimKernel::IsAlive(Pid pid) const {
  const Process* proc = FindProcess(pid);
  return proc != nullptr &&
         (proc->state == ProcState::kRunning || proc->state == ProcState::kPaused);
}

ProcState SimKernel::StateOf(Pid pid) const { return Proc(pid).state; }

std::vector<Pid> SimKernel::AllPids() const {
  std::vector<Pid> pids;
  pids.reserve(processes_.size());
  for (const auto& proc : processes_) {
    pids.push_back(proc->pid);
  }
  return pids;
}

Process& SimKernel::Proc(Pid pid) {
  return const_cast<Process&>(static_cast<const SimKernel*>(this)->Proc(pid));
}

const Process& SimKernel::Proc(Pid pid) const {
  const Process* proc = FindProcess(pid);
  if (proc == nullptr) {
    throw std::logic_error("unknown pid");
  }
  return *proc;
}

void SimKernel::CheckInterrupt(Pid pid) {
  Process& proc = Proc(pid);
  if (proc.interrupt_pending) {
    proc.interrupt_pending = false;
    throw ProcessInterrupted{pid};
  }
}

template <typename Body>
SyscallResult SimKernel::DoSyscall(const SyscallInvocation& inv, Body&& body) {
  CheckInterrupt(inv.pid);
  for (KernelObserver* obs : observers_) {
    obs->OnSyscallEnter(now(), inv);
  }
  std::optional<SyscallResult> override_result;
  for (SyscallInterposer* interposer : interposers_) {
    override_result = interposer->MaybeOverride(inv);
    if (override_result.has_value()) {
      break;
    }
  }
  const SyscallResult result = override_result.has_value() ? *override_result : body();
  loop_->AdvanceBy(syscall_cost_);
  for (KernelObserver* obs : observers_) {
    obs->OnSyscallExit(now(), inv, result);
  }
  CheckInterrupt(inv.pid);
  return result;
}

int32_t SimKernel::AllocFd(Process& proc, OpenFile file) {
  file.fd = proc.next_fd++;
  return proc.fds.emplace_back(std::move(file)).fd;
}

SyscallResult SimKernel::OpenPath(Pid pid, Sys sys, const std::string& path,
                                  OpenFlags flags) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = sys;
  inv.path = path;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    int64_t size = 0;
    const Err err =
        DiskOf(proc.node).OpenPath(path, flags.create, flags.truncate, flags.readonly, &size);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    OpenFile file;
    file.path = path;
    file.readonly = flags.readonly;
    file.offset = flags.append ? size : 0;
    return SyscallResult::Ok(AllocFd(proc, std::move(file)));
  });
}

SyscallResult SimKernel::Open(Pid pid, const std::string& path, OpenFlags flags) {
  return OpenPath(pid, Sys::kOpen, path, flags);
}

SyscallResult SimKernel::OpenAt(Pid pid, const std::string& path, OpenFlags flags) {
  return OpenPath(pid, Sys::kOpenAt, path, flags);
}

SyscallResult SimKernel::Close(Pid pid, int32_t fd) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kClose;
  inv.fd = fd;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    proc.fds.erase(it);
    return SyscallResult::Ok(0);
  });
}

SyscallResult SimKernel::Read(Pid pid, int32_t fd, int64_t count, std::string* out) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kRead;
  inv.fd = fd;
  inv.length = count;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    OpenFile& file = *it;
    if (file.is_socket) {
      // Socket payloads are delivered by the message fabric; the read models
      // the boundary crossing and always drains `count` bytes.
      return SyscallResult::Ok(count);
    }
    std::string data;
    const Err err = DiskOf(proc.node).ReadAt(file.path, file.offset, count, &data);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    file.offset += static_cast<int64_t>(data.size());
    const auto bytes = static_cast<int64_t>(data.size());
    if (out != nullptr) {
      *out = std::move(data);
    }
    return SyscallResult::Ok(bytes);
  });
}

SyscallResult SimKernel::Write(Pid pid, int32_t fd, std::string_view data) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kWrite;
  inv.fd = fd;
  inv.length = static_cast<int64_t>(data.size());
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    OpenFile& file = *it;
    if (file.is_socket) {
      return SyscallResult::Ok(static_cast<int64_t>(data.size()));
    }
    if (file.readonly) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    const Err err = DiskOf(proc.node).WriteAt(file.path, file.offset, data);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    file.offset += static_cast<int64_t>(data.size());
    return SyscallResult::Ok(static_cast<int64_t>(data.size()));
  });
}

SyscallResult SimKernel::PRead(Pid pid, int32_t fd, int64_t offset, int64_t count,
                               std::string* out) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kPRead;
  inv.fd = fd;
  inv.length = count;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    std::string data;
    const Err err = DiskOf(proc.node).ReadAt(it->path, offset, count, &data);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    const auto bytes = static_cast<int64_t>(data.size());
    if (out != nullptr) {
      *out = std::move(data);
    }
    return SyscallResult::Ok(bytes);
  });
}

SyscallResult SimKernel::PWrite(Pid pid, int32_t fd, int64_t offset, std::string_view data) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kPWrite;
  inv.fd = fd;
  inv.length = static_cast<int64_t>(data.size());
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    const Err err = DiskOf(proc.node).WriteAt(it->path, offset, data);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    return SyscallResult::Ok(static_cast<int64_t>(data.size()));
  });
}

SyscallResult SimKernel::Fsync(Pid pid, int32_t fd) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kFsync;
  inv.fd = fd;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    if (FindFd(proc.fds, fd) == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    return SyscallResult::Ok(0);
  });
}

SyscallResult SimKernel::Stat(Pid pid, const std::string& path, FileStat* out) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kStat;
  inv.path = path;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    FileStat st;
    const Err err = DiskOf(proc.node).Stat(path, &st);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    if (out != nullptr) {
      *out = st;
    }
    return SyscallResult::Ok(st.size);
  });
}

SyscallResult SimKernel::Fstat(Pid pid, int32_t fd, FileStat* out) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kFstat;
  inv.fd = fd;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    if (it->is_socket) {
      if (out != nullptr) {
        *out = FileStat{0, 0600, false};
      }
      return SyscallResult::Ok(0);
    }
    FileStat st;
    const Err err = DiskOf(proc.node).Stat(it->path, &st);
    if (err != Err::kOk) {
      return SyscallResult::Fail(err);
    }
    if (out != nullptr) {
      *out = st;
    }
    return SyscallResult::Ok(st.size);
  });
}

SyscallResult SimKernel::Unlink(Pid pid, const std::string& path) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kUnlink;
  inv.path = path;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    const Err err = DiskOf(proc.node).Unlink(path);
    return err == Err::kOk ? SyscallResult::Ok(0) : SyscallResult::Fail(err);
  });
}

SyscallResult SimKernel::Rename(Pid pid, const std::string& from, const std::string& to) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kRename;
  inv.path = from;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    const Err err = DiskOf(proc.node).Rename(from, to);
    return err == Err::kOk ? SyscallResult::Ok(0) : SyscallResult::Fail(err);
  });
}

SyscallResult SimKernel::Mkdir(Pid pid, const std::string& path) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kMkdir;
  inv.path = path;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    const Err err = DiskOf(proc.node).Mkdir(path);
    return err == Err::kOk ? SyscallResult::Ok(0) : SyscallResult::Fail(err);
  });
}

SyscallResult SimKernel::Readlink(Pid pid, const std::string& path) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kReadlink;
  inv.path = path;
  return DoSyscall(inv, [&]() -> SyscallResult {
    // The simulated filesystems carry no symlinks; readlink models the
    // frequent benign EINVAL/ENOENT failures real runtimes produce.
    Process& proc = Proc(pid);
    if (!DiskOf(proc.node).Exists(path)) {
      return SyscallResult::Fail(Err::kENOENT);
    }
    return SyscallResult::Fail(Err::kEINVAL);
  });
}

SyscallResult SimKernel::Dup(Pid pid, int32_t fd) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kDup;
  inv.fd = fd;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end()) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    return SyscallResult::Ok(AllocFd(proc, *it));
  });
}

SyscallResult SimKernel::SocketOpen(Pid pid) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kSocket;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    OpenFile file;
    file.path = "sock:";
    file.is_socket = true;
    return SyscallResult::Ok(AllocFd(proc, std::move(file)));
  });
}

SyscallResult SimKernel::Connect(Pid pid, const std::string& dst_ip) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kConnect;
  inv.remote_ip = dst_ip;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    const std::string& src_ip = IpOf(proc.node);
    if (reachability_ != nullptr && !reachability_->IsReachable(src_ip, dst_ip)) {
      return SyscallResult::Fail(Err::kETIMEDOUT);
    }
    OpenFile file;
    file.path = "sock:" + dst_ip;
    file.is_socket = true;
    return SyscallResult::Ok(AllocFd(proc, std::move(file)));
  });
}

SyscallResult SimKernel::Accept(Pid pid, const std::string& remote_ip) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kAccept;
  inv.remote_ip = remote_ip;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    OpenFile file;
    file.path = "sock:" + remote_ip;
    file.is_socket = true;
    return SyscallResult::Ok(AllocFd(proc, std::move(file)));
  });
}

SyscallResult SimKernel::SendTo(Pid pid, int32_t fd, int64_t length) {
  SyscallInvocation inv;
  inv.pid = pid;
  inv.sys = Sys::kSend;
  inv.fd = fd;
  inv.length = length;
  return DoSyscall(inv, [&]() -> SyscallResult {
    Process& proc = Proc(pid);
    auto it = FindFd(proc.fds, fd);
    if (it == proc.fds.end() || !it->is_socket) {
      return SyscallResult::Fail(Err::kEBADF);
    }
    return SyscallResult::Ok(length);
  });
}

std::string SimKernel::PathOfFd(Pid pid, int32_t fd) const {
  const Process* proc = FindProcess(pid);
  if (proc == nullptr) {
    return "";
  }
  auto it = FindFd(proc->fds, fd);
  return it == proc->fds.end() ? "" : it->path;
}

void SimKernel::FunctionEnter(Pid pid, int32_t function_id) {
  CheckInterrupt(pid);
  for (KernelObserver* obs : observers_) {
    obs->OnFunctionEnter(now(), pid, function_id);
  }
  CheckInterrupt(pid);
}

void SimKernel::FunctionOffset(Pid pid, int32_t function_id, int32_t offset) {
  CheckInterrupt(pid);
  for (KernelObserver* obs : observers_) {
    obs->OnFunctionOffset(now(), pid, function_id, offset);
  }
  CheckInterrupt(pid);
}

}  // namespace rose
