#include "src/profile/profiler.h"
#include <algorithm>

#include "src/common/strings.h"

namespace rose {

std::string ScfSignature(Sys sys, std::string_view filename, Err err) {
  std::string out(SysName(sys));
  out += '|';
  out.append(filename);
  out += '|';
  out.append(ErrName(err));
  return out;
}

Profiler::Profiler(SimKernel* kernel, const BinaryInfo* binary, ProfilerConfig config)
    : kernel_(kernel), binary_(binary), config_(std::move(config)) {
  for (int32_t id : binary_->FunctionsInFiles(config_.relevant_files)) {
    candidates_.insert(id);
    function_counts_[id] = 0;
  }
}

Profiler::~Profiler() { Detach(); }

void Profiler::Attach() {
  if (attached_) {
    return;
  }
  attached_ = true;
  started_at_ = kernel_->now();
  kernel_->AddObserver(this);
}

void Profiler::Detach() {
  if (!attached_) {
    return;
  }
  attached_ = false;
  kernel_->RemoveObserver(this);
}

void Profiler::OnSyscallExit(SimTime /*now*/, const SyscallInvocation& inv,
                             const SyscallResult& result) {
  syscall_counts_[static_cast<int32_t>(inv.sys)]++;
  if (!result.ok()) {
    const std::string filename(SysTakesPath(inv.sys) ? inv.path : std::string_view());
    benign_scf_.insert(ScfSignature(inv.sys, filename, result.err));
    // Also record the input-less form so fd-based failures whose path
    // resolution differs across runs still match.
    benign_scf_.insert(ScfSignature(inv.sys, "", result.err));
  }
}

void Profiler::OnFunctionEnter(SimTime /*now*/, Pid pid, int32_t function_id) {
  auto it = function_counts_.find(function_id);
  if (it != function_counts_.end()) {
    it->second++;
    const Process* proc = kernel_->FindProcess(pid);
    if (proc != nullptr) {
      function_node_counts_[function_id][proc->node]++;
    }
  }
}

void Profiler::AbsorbCleanTrace(TraceView trace) {
  for (const TraceEvent& event : trace) {
    if (event.type == EventType::kSCF) {
      const auto& scf = event.scf();
      benign_scf_.insert(ScfSignature(scf.sys, trace.str(scf.filename), scf.err));
      benign_scf_.insert(ScfSignature(scf.sys, "", scf.err));
    } else if (event.type == EventType::kND) {
      benign_nd_.insert({std::string(trace.str(event.nd().src_ip)),
                         std::string(trace.str(event.nd().dst_ip))});
    }
  }
}

Profile Profiler::BuildProfile() const {
  Profile profile;
  profile.function_counts = function_counts_;
  profile.syscall_counts = syscall_counts_;
  profile.benign_scf_signatures = benign_scf_;
  profile.benign_nd_pairs = benign_nd_;
  profile.duration = kernel_->now() - started_at_;
  const double seconds = ToSeconds(profile.duration);
  for (int32_t id : candidates_) {
    // Classification is by the busiest single node's rate: every node runs
    // its own tracer, so the cost of a uprobe is per node.
    uint64_t max_node_count = 0;
    auto per_node = function_node_counts_.find(id);
    if (per_node != function_node_counts_.end()) {
      for (const auto& [node, count] : per_node->second) {
        max_node_count = std::max(max_node_count, count);
      }
    }
    const double rate = seconds > 0 ? static_cast<double>(max_node_count) / seconds : 0.0;
    // Functions never observed are kept: the paper's intuition is that EFIBs
    // live on rarely-executed paths, and a function absent from the clean run
    // is the extreme case.
    if (rate <= config_.frequent_calls_per_second) {
      profile.monitored_functions.insert(id);
    }
  }
  return profile;
}

}  // namespace rose
