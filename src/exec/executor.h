// The reproduction-phase executor (paper §4.6, §5.4).
//
// Tracks per-node fault contexts and injects faults precisely:
//   - syscall failures via the interposer (bpf_override_return analogue):
//     the nth invocation matching (syscall, input filter) after the fault's
//     conditions hold is failed at entry with the scheduled errno;
//   - crashes/pauses via kernel signals delivered at the observing hook
//     point (bpf_send_signal analogue);
//   - partitions via TC-style drop rules on the network fabric.
//
// Conditions are an ordered sequence; the fault fires the moment the last
// one is observed. AfterFault conditions enforce the production fault order.
#ifndef SRC_EXEC_EXECUTOR_H_
#define SRC_EXEC_EXECUTOR_H_

#include <array>
#include <string>
#include <vector>

#include "src/analyze/schedule_linter.h"
#include "src/exec/pid_tracker.h"
#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/schedule/fault_schedule.h"

namespace rose {

// Per-fault outcome fed back to the diagnosis phase (Algorithm 1 lines 34-35).
struct FaultOutcome {
  bool injected = false;
  SimTime injected_at = 0;
  // How far through its condition sequence the fault got.
  size_t conditions_satisfied = 0;
};

struct ExecutionFeedback {
  std::vector<FaultOutcome> outcomes;

  bool AllInjected() const {
    for (const auto& outcome : outcomes) {
      if (!outcome.injected) {
        return false;
      }
    }
    return true;
  }
};

class Executor : public KernelObserver, public SyscallInterposer {
 public:
  Executor(SimKernel* kernel, Network* network, FaultSchedule schedule);
  ~Executor() override;

  // Hooks into the kernel. A schedule the linter rejects (error-severity
  // diagnostics) is refused up front: Attach() returns false and installs
  // nothing, instead of letting the faults silently never fire.
  bool Attach();
  void Detach();

  const FaultSchedule& schedule() const { return schedule_; }
  // Lint findings for the schedule, computed at construction.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  // False when the schedule is statically malformed (Attach() will refuse).
  bool schedule_valid() const { return schedule_valid_; }
  ExecutionFeedback Feedback() const;

  // --- KernelObserver --------------------------------------------------------
  void OnSyscallExit(SimTime now, const SyscallInvocation& inv,
                     const SyscallResult& result) override;
  void OnFunctionEnter(SimTime now, Pid pid, int32_t function_id) override;
  void OnFunctionOffset(SimTime now, Pid pid, int32_t function_id, int32_t offset) override;
  void OnProcessSpawned(SimTime now, Pid pid, NodeId node, Pid parent) override;

  // --- SyscallInterposer ------------------------------------------------------
  std::optional<SyscallResult> MaybeOverride(const SyscallInvocation& inv) override;

 private:
  // The kernel hook that can next advance a fault: the hook matching its
  // pending syscall-count / function-enter / function-offset condition, or
  // MaybeOverride for an armed SCF that can still fail a call.
  enum Hook : uint8_t { kSyscallHook = 0, kEnterHook, kOffsetHook, kOverrideHook, kNoHook };

  struct FaultRuntime {
    size_t next_condition = 0;
    int32_t match_count = 0;  // Matching invocations seen while armed (SCF).
    bool armed = false;       // All conditions satisfied.
    bool injected = false;
    SimTime injected_at = 0;
    Hook hook = kNoHook;      // Counted in waiting_.
  };

  bool PidOnNode(Pid pid, NodeId node) const;
  // Pathname-ish input of an invocation (path, fd-resolved path, or peer).
  std::string InputOf(const SyscallInvocation& inv) const;
  static bool InputMatches(const std::string& filter, const std::string& input);

  // Advances statically-checkable conditions (AfterFault, AtTime) and
  // injects non-syscall faults once armed.
  void TryAdvance(size_t index);
  void AdvanceAll();
  void Arm(size_t index);
  void Inject(size_t index);
  Hook HookOf(size_t index) const;
  // Re-files fault `index` under its current hook; call after any change to
  // its runtime state.
  void Track(size_t index);

  SimKernel* kernel_;
  Network* network_;
  FaultSchedule schedule_;
  std::vector<Diagnostic> diagnostics_;
  bool schedule_valid_ = true;
  std::vector<FaultRuntime> runtime_;
  // Faults per hook; a hook with none returns without scanning runtime_.
  std::array<size_t, kNoHook> waiting_{};
  PidTracker pids_;
  bool attached_ = false;
};

}  // namespace rose

#endif  // SRC_EXEC_EXECUTOR_H_
