#include "src/apps/framework/guest_node.h"

namespace rose {

GuestNode::GuestNode(Cluster* cluster, NodeId id, std::string name)
    : cluster_(cluster), id_(id), name_(std::move(name)) {}

void GuestNode::Broadcast(const Message& msg, int node_count) {
  for (NodeId peer = 0; peer < node_count; peer++) {
    if (peer != id_) {
      Message copy = msg;
      Send(peer, std::move(copy));
    }
  }
}

void GuestNode::Assert(bool condition, const std::string& message) {
  if (!condition) {
    Log("ASSERTION FAILED: " + message);
    Panic("assertion: " + message);
  }
}

void GuestNode::EnterFunction(Literal function_name) {
  const int32_t function_id = cluster_->FunctionId(function_name);
  if (function_id >= 0) {
    kernel().FunctionEnter(pid_, function_id);
  }
}

void GuestNode::AtOffset(Literal function_name, int32_t offset) {
  const int32_t function_id = cluster_->FunctionId(function_name);
  if (function_id >= 0) {
    kernel().FunctionOffset(pid_, function_id, offset);
  }
}

SyscallResult GuestNode::Open(const std::string& path, SimKernel::OpenFlags flags) {
  return kernel().Open(pid_, path, flags);
}

SyscallResult GuestNode::OpenAt(const std::string& path, SimKernel::OpenFlags flags) {
  return kernel().OpenAt(pid_, path, flags);
}

SyscallResult GuestNode::Close(int32_t fd) { return kernel().Close(pid_, fd); }

SyscallResult GuestNode::ReadFd(int32_t fd, int64_t count, std::string* out) {
  return kernel().Read(pid_, fd, count, out);
}

SyscallResult GuestNode::WriteFd(int32_t fd, std::string_view data) {
  return kernel().Write(pid_, fd, data);
}

SyscallResult GuestNode::Fsync(int32_t fd) { return kernel().Fsync(pid_, fd); }

SyscallResult GuestNode::StatPath(const std::string& path, FileStat* out) {
  return kernel().Stat(pid_, path, out);
}

SyscallResult GuestNode::FstatFd(int32_t fd, FileStat* out) {
  return kernel().Fstat(pid_, fd, out);
}

SyscallResult GuestNode::UnlinkPath(const std::string& path) {
  return kernel().Unlink(pid_, path);
}

SyscallResult GuestNode::RenamePath(const std::string& from, const std::string& to) {
  return kernel().Rename(pid_, from, to);
}

SyscallResult GuestNode::ReadlinkPath(const std::string& path) {
  return kernel().Readlink(pid_, path);
}

SyscallResult GuestNode::ConnectTo(const std::string& ip) {
  return kernel().Connect(pid_, ip);
}

SyscallResult GuestNode::AcceptFrom(const std::string& ip) {
  return kernel().Accept(pid_, ip);
}

Err GuestNode::WriteFileDurably(const std::string& path, std::string_view data) {
  SimKernel::OpenFlags flags;
  flags.create = true;
  flags.truncate = true;
  const SyscallResult opened = Open(path, flags);
  if (!opened.ok()) {
    return opened.err;
  }
  const auto fd = static_cast<int32_t>(opened.value);
  const SyscallResult written = WriteFd(fd, data);
  if (!written.ok()) {
    Close(fd);
    return written.err;
  }
  const SyscallResult synced = Fsync(fd);
  Close(fd);
  return synced.err;
}

std::optional<std::string> GuestNode::ReadWholeFile(const std::string& path) {
  SimKernel::OpenFlags flags;
  flags.readonly = true;
  const SyscallResult opened = Open(path, flags);
  if (!opened.ok()) {
    return std::nullopt;
  }
  const auto fd = static_cast<int32_t>(opened.value);
  std::string contents;
  while (true) {
    std::string chunk;
    const SyscallResult got = ReadFd(fd, 4096, &chunk);
    if (!got.ok()) {
      Close(fd);
      return std::nullopt;
    }
    if (got.value == 0) {
      break;
    }
    contents += chunk;
  }
  Close(fd);
  return contents;
}

}  // namespace rose
