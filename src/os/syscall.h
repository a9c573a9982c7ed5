// Simulated system-call identifiers and invocation records.
//
// The SimKernel exposes the same observable surface Rose instruments on
// Linux: a syscall id, the invoking pid, the fd or pathname operated on, and
// the return value / errno. Tracers subscribe to the sys_enter / sys_exit
// boundary; the executor's interposer can override the return value before
// the syscall body executes (the bpf_override_return equivalent).
#ifndef SRC_OS_SYSCALL_H_
#define SRC_OS_SYSCALL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/os/errno.h"

namespace rose {

using Pid = int32_t;
inline constexpr Pid kNoPid = -1;

enum class Sys : int32_t {
  kOpen = 0,
  kOpenAt,
  kClose,
  kRead,
  kWrite,
  kPRead,
  kPWrite,
  kFsync,
  kStat,
  kFstat,
  kUnlink,
  kRename,
  kMkdir,
  kReadlink,
  kDup,
  kSocket,
  kConnect,
  kAccept,
  kSend,
  kRecv,
  kListen,
  kNumSyscalls,
};

inline constexpr int kNumSyscalls = static_cast<int>(Sys::kNumSyscalls);

// Returns the syscall name, e.g. "openat".
std::string_view SysName(Sys sys);

// Parses a syscall name; returns false when unknown.
bool SysFromName(std::string_view name, Sys* out);

// True for syscalls whose primary argument is a pathname (the tracer records
// the name directly instead of resolving an fd).
bool SysTakesPath(Sys sys);

// True for syscalls whose primary argument is a file descriptor.
bool SysTakesFd(Sys sys);

// A single syscall invocation as seen at the kernel boundary. The string
// arguments view the caller's buffers: they are valid for the duration of
// the hook call only, so an observer that keeps one must copy it.
struct SyscallInvocation {
  Pid pid = kNoPid;
  Sys sys = Sys::kOpen;
  // Pathname argument for path-based syscalls (open/openat/stat/...).
  std::string_view path;
  // File-descriptor argument for fd-based syscalls; -1 when not applicable.
  int32_t fd = -1;
  // Destination/source IP for network syscalls; empty otherwise.
  std::string_view remote_ip;
  // Payload size for read/write/send/recv.
  int64_t length = 0;
};

// Result of a syscall: `value` is the raw return (>= 0) on success; on
// failure `value` is -1 and `err` carries the errno.
struct SyscallResult {
  int64_t value = 0;
  Err err = Err::kOk;

  bool ok() const { return err == Err::kOk; }

  static SyscallResult Ok(int64_t value = 0) { return SyscallResult{value, Err::kOk}; }
  static SyscallResult Fail(Err err) { return SyscallResult{-1, err}; }
};

}  // namespace rose

#endif  // SRC_OS_SYSCALL_H_
