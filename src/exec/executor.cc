#include "src/exec/executor.h"

namespace rose {

Executor::Executor(SimKernel* kernel, Network* network, FaultSchedule schedule)
    : kernel_(kernel), network_(network), schedule_(std::move(schedule)) {
  diagnostics_ = ScheduleLinter().Lint(schedule_);
  schedule_valid_ = !HasErrors(diagnostics_);
  runtime_.resize(schedule_.faults.size());
}

Executor::~Executor() { Detach(); }

bool Executor::Attach() {
  if (attached_) {
    return true;
  }
  if (!schedule_valid_) {
    return false;
  }
  attached_ = true;
  kernel_->AddObserver(this);
  kernel_->AddInterposer(this);
  AdvanceAll();
  return true;
}

void Executor::Detach() {
  if (!attached_) {
    return;
  }
  attached_ = false;
  kernel_->RemoveObserver(this);
  kernel_->RemoveInterposer(this);
}

ExecutionFeedback Executor::Feedback() const {
  ExecutionFeedback feedback;
  feedback.outcomes.reserve(runtime_.size());
  for (const FaultRuntime& rt : runtime_) {
    FaultOutcome outcome;
    outcome.injected = rt.injected;
    outcome.injected_at = rt.injected_at;
    outcome.conditions_satisfied = rt.next_condition;
    feedback.outcomes.push_back(outcome);
  }
  return feedback;
}

bool Executor::PidOnNode(Pid pid, NodeId node) const {
  const Process* proc = kernel_->FindProcess(pid);
  return proc != nullptr && proc->node == node;
}

std::string Executor::InputOf(const SyscallInvocation& inv) const {
  if (SysTakesPath(inv.sys)) {
    return std::string(inv.path);
  }
  if (!inv.remote_ip.empty()) {
    return std::string("sock:").append(inv.remote_ip);
  }
  if (inv.fd >= 0) {
    return kernel_->PathOfFd(inv.pid, inv.fd);
  }
  return "";
}

bool Executor::InputMatches(const std::string& filter, const std::string& input) {
  return filter.empty() || filter == input;
}

void Executor::AdvanceAll() {
  for (size_t i = 0; i < runtime_.size(); i++) {
    TryAdvance(i);
  }
}

void Executor::TryAdvance(size_t index) {
  FaultRuntime& rt = runtime_[index];
  if (rt.armed || rt.injected) {
    return;
  }
  const ScheduledFault& fault = schedule_.faults[index];
  while (rt.next_condition < fault.conditions.size()) {
    const Condition& cond = fault.conditions[rt.next_condition];
    if (cond.kind == Condition::Kind::kAfterFault) {
      const auto dep = static_cast<size_t>(cond.fault_index);
      if (dep < runtime_.size() && runtime_[dep].injected) {
        rt.next_condition++;
        continue;
      }
    } else if (cond.kind == Condition::Kind::kAtTime) {
      if (kernel_->now() >= cond.at_time) {
        rt.next_condition++;
        continue;
      }
      kernel_->loop().ScheduleAt(cond.at_time, [this, index] { TryAdvance(index); });
    }
    // Function / syscall-count conditions advance from the kernel hooks.
    Track(index);
    return;
  }
  Arm(index);
}

void Executor::Arm(size_t index) {
  FaultRuntime& rt = runtime_[index];
  if (rt.armed || rt.injected) {
    return;
  }
  rt.armed = true;
  Track(index);
  const ScheduledFault& fault = schedule_.faults[index];
  if (fault.kind != FaultKind::kSyscallFailure) {
    // Non-syscall faults fire the instant their context completes.
    Inject(index);
  }
}

Executor::Hook Executor::HookOf(size_t index) const {
  const FaultRuntime& rt = runtime_[index];
  const ScheduledFault& fault = schedule_.faults[index];
  if (rt.armed) {
    const bool can_fail = fault.kind == FaultKind::kSyscallFailure &&
                          (!rt.injected || fault.syscall.persistent);
    return can_fail ? kOverrideHook : kNoHook;
  }
  if (rt.next_condition >= fault.conditions.size()) {
    return kNoHook;
  }
  switch (fault.conditions[rt.next_condition].kind) {
    case Condition::Kind::kSyscallCount:
      return kSyscallHook;
    case Condition::Kind::kFunctionEnter:
      return kEnterHook;
    case Condition::Kind::kFunctionOffset:
      return kOffsetHook;
    default:
      return kNoHook;
  }
}

void Executor::Track(size_t index) {
  FaultRuntime& rt = runtime_[index];
  const Hook hook = HookOf(index);
  if (hook == rt.hook) {
    return;
  }
  if (rt.hook != kNoHook) {
    waiting_[rt.hook]--;
  }
  if (hook != kNoHook) {
    waiting_[hook]++;
  }
  rt.hook = hook;
}

void Executor::Inject(size_t index) {
  FaultRuntime& rt = runtime_[index];
  if (rt.injected) {
    return;
  }
  rt.injected = true;
  rt.injected_at = kernel_->now();
  Track(index);
  const ScheduledFault& fault = schedule_.faults[index];
  switch (fault.kind) {
    case FaultKind::kSyscallFailure:
      // Recorded here; the actual override happened in MaybeOverride.
      break;
    case FaultKind::kProcessCrash: {
      const Pid victim = pids_.CurrentMain(fault.target_node);
      if (victim != kNoPid) {
        kernel_->Kill(victim);
      }
      break;
    }
    case FaultKind::kProcessPause: {
      const Pid victim = pids_.CurrentMain(fault.target_node);
      if (victim != kNoPid) {
        kernel_->Pause(victim, fault.process.pause_duration);
      }
      break;
    }
    case FaultKind::kNetworkPartition:
      if (network_ != nullptr) {
        network_->Partition(fault.network.group_a, fault.network.group_b,
                            fault.network.duration);
      }
      break;
  }
  // Other faults may have been waiting on this one (fault-order conditions).
  AdvanceAll();
}

void Executor::OnProcessSpawned(SimTime /*now*/, Pid pid, NodeId node, Pid parent) {
  pids_.OnSpawn(pid, node, parent);
}

void Executor::OnFunctionEnter(SimTime /*now*/, Pid pid, int32_t function_id) {
  if (waiting_[kEnterHook] == 0) {
    return;
  }
  for (size_t i = 0; i < runtime_.size(); i++) {
    FaultRuntime& rt = runtime_[i];
    const ScheduledFault& fault = schedule_.faults[i];
    if (rt.armed || rt.injected || rt.next_condition >= fault.conditions.size()) {
      continue;
    }
    const Condition& cond = fault.conditions[rt.next_condition];
    if (cond.kind == Condition::Kind::kFunctionEnter && cond.function_id == function_id &&
        PidOnNode(pid, fault.target_node)) {
      rt.next_condition++;
      TryAdvance(i);
    }
  }
}

void Executor::OnFunctionOffset(SimTime /*now*/, Pid pid, int32_t function_id, int32_t offset) {
  if (waiting_[kOffsetHook] == 0) {
    return;
  }
  for (size_t i = 0; i < runtime_.size(); i++) {
    FaultRuntime& rt = runtime_[i];
    const ScheduledFault& fault = schedule_.faults[i];
    if (rt.armed || rt.injected || rt.next_condition >= fault.conditions.size()) {
      continue;
    }
    const Condition& cond = fault.conditions[rt.next_condition];
    if (cond.kind == Condition::Kind::kFunctionOffset && cond.function_id == function_id &&
        cond.offset == offset && PidOnNode(pid, fault.target_node)) {
      rt.next_condition++;
      TryAdvance(i);
    }
  }
}

void Executor::OnSyscallExit(SimTime /*now*/, const SyscallInvocation& inv,
                             const SyscallResult& /*result*/) {
  if (waiting_[kSyscallHook] == 0) {
    return;
  }
  for (size_t i = 0; i < runtime_.size(); i++) {
    FaultRuntime& rt = runtime_[i];
    const ScheduledFault& fault = schedule_.faults[i];
    if (rt.armed || rt.injected || rt.next_condition >= fault.conditions.size()) {
      continue;
    }
    Condition& cond = schedule_.faults[i].conditions[rt.next_condition];
    if (cond.kind == Condition::Kind::kSyscallCount && cond.sys == inv.sys &&
        PidOnNode(inv.pid, fault.target_node) &&
        InputMatches(cond.path_filter, InputOf(inv))) {
      cond.count--;
      if (cond.count <= 0) {
        rt.next_condition++;
        TryAdvance(i);
      }
    }
  }
}

std::optional<SyscallResult> Executor::MaybeOverride(const SyscallInvocation& inv) {
  if (waiting_[kOverrideHook] == 0) {
    return std::nullopt;
  }
  for (size_t i = 0; i < runtime_.size(); i++) {
    FaultRuntime& rt = runtime_[i];
    const ScheduledFault& fault = schedule_.faults[i];
    if (fault.kind != FaultKind::kSyscallFailure || !rt.armed) {
      continue;
    }
    if (rt.injected && !fault.syscall.persistent) {
      continue;
    }
    if (fault.syscall.sys != inv.sys || !PidOnNode(inv.pid, fault.target_node)) {
      continue;
    }
    if (!InputMatches(fault.syscall.path_filter, InputOf(inv))) {
      continue;
    }
    rt.match_count++;
    if (rt.match_count < fault.syscall.nth) {
      continue;
    }
    if (!rt.injected) {
      Inject(i);
    }
    return SyscallResult::Fail(fault.syscall.err);
  }
  return std::nullopt;
}

}  // namespace rose
