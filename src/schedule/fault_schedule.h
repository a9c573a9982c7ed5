// Fault schedules (paper §4.4–§4.6).
//
// A schedule is an ordered list of faults; each fault carries the *fault
// context*: an ordered sequence of conditions that must be observed before
// the fault is injected. When the last condition of a fault is observed the
// fault fires immediately at that kernel boundary.
//
// Condition kinds map 1:1 to the paper:
//   kAfterFault    — production fault order enforcement (§4.6.1)
//   kFunctionEnter — Level 2 function-chain context (Algorithm 1)
//   kFunctionOffset— Level 3 intra-function offsets
//   kSyscallCount  — nth invocation of a syscall (optionally input-filtered)
//   kAtTime        — Level 1 relative-time injection
#ifndef SRC_SCHEDULE_FAULT_SCHEDULE_H_
#define SRC_SCHEDULE_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/os/process.h"
#include "src/os/syscall.h"
#include "src/sim/time.h"

namespace rose {

enum class FaultKind : int8_t {
  kSyscallFailure = 0,
  kProcessCrash,
  kProcessPause,
  kNetworkPartition,
};

std::string_view FaultKindName(FaultKind kind);

struct SyscallFaultSpec {
  Sys sys = Sys::kOpen;
  Err err = Err::kEIO;
  // Only invocations whose pathname (or socket peer "sock:<ip>") matches.
  // Empty matches any input.
  std::string path_filter;
  // Fail the nth matching invocation (1-based), counted after the fault's
  // conditions are satisfied.
  int32_t nth = 1;
  // Keep failing every matching invocation from the nth onwards (models a
  // persistently broken disk/endpoint rather than a single transient error).
  bool persistent = false;
};

struct ProcessFaultSpec {
  SimTime pause_duration = 0;  // Only for kProcessPause.
};

struct NetworkFaultSpec {
  std::vector<std::string> group_a;
  std::vector<std::string> group_b;
  SimTime duration = Seconds(5);
};

struct Condition {
  enum class Kind : int8_t {
    kAfterFault = 0,
    kFunctionEnter,
    kFunctionOffset,
    kSyscallCount,
    kAtTime,
  };
  Kind kind = Kind::kAtTime;
  int32_t fault_index = -1;     // kAfterFault
  int32_t function_id = -1;     // kFunctionEnter / kFunctionOffset
  int32_t offset = -1;          // kFunctionOffset
  Sys sys = Sys::kOpen;         // kSyscallCount
  std::string path_filter;      // kSyscallCount
  int32_t count = 1;            // kSyscallCount (nth)
  SimTime at_time = 0;          // kAtTime (relative to run start)

  static Condition AfterFault(int32_t index);
  static Condition FunctionEnter(int32_t function_id);
  static Condition FunctionOffset(int32_t function_id, int32_t offset);
  static Condition SyscallCount(Sys sys, const std::string& path_filter, int32_t count);
  static Condition AtTime(SimTime at);

  std::string ToString() const;
};

struct ScheduledFault {
  NodeId target_node = kNoNode;
  FaultKind kind = FaultKind::kProcessCrash;
  SyscallFaultSpec syscall;
  ProcessFaultSpec process;
  NetworkFaultSpec network;
  // Ordered sequence; condition i+1 is armed only once condition i holds.
  std::vector<Condition> conditions;

  std::string Label() const;  // e.g. "PS(Crash)" / "SCF(write)" / "ND".
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  std::string name;
  std::vector<ScheduledFault> faults;

  size_t size() const { return faults.size(); }
  bool empty() const { return faults.empty(); }

  // The paper's "Faults Inj" column, e.g. "PS(Crash)*3 + ND + PS(Crash)".
  std::string Summary() const;

  // YAML round-trip (the analyzer emits YAML; the executor parses it).
  std::string ToYaml() const;
  static bool FromYaml(const std::string& text, FaultSchedule* out);
};

}  // namespace rose

#endif  // SRC_SCHEDULE_FAULT_SCHEDULE_H_
