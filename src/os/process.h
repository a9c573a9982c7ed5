// Simulated processes.
//
// A process belongs to a node (one main process per node in the guest
// systems, plus optional children), owns a file-descriptor table, and can be
// crashed or paused by the executor exactly at a kernel boundary — the
// simulated counterpart of bpf_send_signal.
#ifndef SRC_OS_PROCESS_H_
#define SRC_OS_PROCESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/os/syscall.h"
#include "src/sim/time.h"

namespace rose {

using NodeId = int32_t;
inline constexpr NodeId kNoNode = -1;

enum class ProcState : int8_t {
  kRunning = 0,
  kPaused,   // bpf_send_signal(SIGSTOP) analogue; the "waiting" state in the paper.
  kCrashed,  // bpf_send_signal(SIGKILL) analogue.
  kExited,   // Clean shutdown.
};

std::string_view ProcStateName(ProcState state);

// An open file-descriptor entry. Sockets are fds whose path is "sock:<ip>".
struct OpenFile {
  int32_t fd = -1;
  std::string path;
  int64_t offset = 0;
  bool readonly = false;
  bool is_socket = false;
};

struct PauseRecord {
  SimTime start = 0;
  SimTime end = 0;  // 0 while ongoing.
};

struct Process {
  Pid pid = kNoPid;
  NodeId node = kNoNode;
  std::string name;
  Pid parent = kNoPid;
  ProcState state = ProcState::kRunning;
  SimTime state_since = 0;
  // Set when a crash signal has been delivered but the victim has not yet
  // reached a kernel boundary where the unwind can happen.
  bool interrupt_pending = false;
  // Open fds in ascending fd order. The kernel never reuses an fd, so an
  // open appends and a close erases in place; a process holds a handful.
  std::vector<OpenFile> fds;
  int32_t next_fd = 3;
  std::vector<PauseRecord> pauses;
};

// Thrown by the kernel at a hook point when the executing process has been
// crashed; the guest framework catches it at the event-handler boundary so
// partially-completed multi-syscall updates stay exactly as durable as the
// syscalls already executed.
struct ProcessInterrupted {
  Pid pid = kNoPid;
};

}  // namespace rose

#endif  // SRC_OS_PROCESS_H_
