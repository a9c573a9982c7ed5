#include "src/apps/framework/cluster.h"

#include <algorithm>

#include "src/apps/framework/guest_node.h"
#include "src/common/strings.h"

namespace rose {

Cluster::Cluster(SimKernel* kernel, Network* network, const BinaryInfo* binary,
                 ClusterConfig config)
    : kernel_(kernel), network_(network), binary_(binary), config_(config),
      rng_(config.seed ^ 0xc1057e12ULL) {
  kernel_->AddObserver(this);
}

Cluster::~Cluster() { kernel_->RemoveObserver(this); }

NodeId Cluster::AddNode(NodeFactory factory) {
  const auto id = static_cast<NodeId>(slots_.size());
  Slot slot;
  slot.factory = std::move(factory);
  const std::string ip = StrFormat("10.0.0.%d", id + 1);
  kernel_->RegisterNode(id, ip);
  slot.ip = network_->InternIp(ip);
  slots_.push_back(std::move(slot));
  return id;
}

void Cluster::Start() {
  started_ = true;
  for (NodeId id = 0; id < static_cast<NodeId>(slots_.size()); id++) {
    BootNode(id);
  }
}

void Cluster::BootNode(NodeId id) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  slot.generation++;
  slot.guest = slot.factory(this, id);
  slot.crashed_guest = nullptr;
  slot.pid = kernel_->Spawn(id, slot.guest->name());
  slot.guest->set_pid(slot.pid);
  slot.conn_fds.assign(slots_.size(), -1);
  slot.timers.clear();
  slot.pending_messages.clear();
  slot.pending_timers.clear();
  Dispatch(id, [](GuestNode* guest) { guest->OnStart(); });
}

GuestNode* Cluster::node(NodeId id) {
  if (id < 0 || static_cast<size_t>(id) >= slots_.size()) {
    return nullptr;
  }
  return slots_[static_cast<size_t>(id)].guest.get();
}

std::vector<std::string> Cluster::AllIps() const {
  std::vector<std::string> ips;
  for (NodeId id = 0; id < static_cast<NodeId>(slots_.size()); id++) {
    ips.push_back(kernel_->IpOf(id));
  }
  return ips;
}

bool Cluster::IsNodeAlive(NodeId id) const {
  const Slot& slot = slots_[static_cast<size_t>(id)];
  return slot.pid != kNoPid && kernel_->IsAlive(slot.pid);
}

template <typename Fn>
bool Cluster::Dispatch(NodeId id, Fn&& fn) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  if (slot.guest == nullptr || slot.pid == kNoPid) {
    return false;
  }
  if (kernel_->StateOf(slot.pid) != ProcState::kRunning) {
    return false;
  }
  try {
    fn(slot.guest.get());
    return true;
  } catch (const ProcessInterrupted&) {
    HandleCrash(id);
    return false;
  }
}

bool Cluster::SendMessage(GuestNode* src, NodeId dst, Message msg) {
  if (dst < 0 || dst >= node_count()) {
    return false;
  }
  const NodeId src_id = src->id();
  Slot& slot = slots_[static_cast<size_t>(src_id)];
  msg.from = src_id;
  msg.to = dst;

  if (slot.conn_fds.size() < slots_.size()) {
    slot.conn_fds.resize(slots_.size(), -1);
  }
  int32_t fd = slot.conn_fds[static_cast<size_t>(dst)];
  if (fd < 0) {
    const SyscallResult result = kernel_->Connect(src->pid(), kernel_->IpOf(dst));
    if (!result.ok()) {
      return false;
    }
    fd = static_cast<int32_t>(result.value);
    slot.conn_fds[static_cast<size_t>(dst)] = fd;
  }

  const int64_t size = msg.ByteSize();
  const SyscallResult sent = kernel_->SendTo(src->pid(), fd, size);
  if (!sent.ok()) {
    slot.conn_fds[static_cast<size_t>(dst)] = -1;
    return false;
  }

  network_->Send(slot.ip, slots_[static_cast<size_t>(dst)].ip, size,
                 [this, dst, msg = std::move(msg)] { Deliver(dst, msg); });
  return true;
}

void Cluster::Deliver(NodeId dst, const Message& msg) {
  Slot& slot = slots_[static_cast<size_t>(dst)];
  if (slot.pid == kNoPid || slot.guest == nullptr) {
    return;
  }
  const ProcState state = kernel_->StateOf(slot.pid);
  if (state == ProcState::kCrashed || state == ProcState::kExited) {
    return;
  }
  if (state == ProcState::kPaused) {
    slot.pending_messages.push_back(msg);
    return;
  }
  Dispatch(dst, [&msg](GuestNode* guest) { guest->OnMessage(msg); });
}

namespace {

template <typename Timers>
auto FindTimer(Timers& timers, std::string_view name) {
  return std::find_if(timers.begin(), timers.end(),
                      [name](const auto& timer) { return timer.first == name; });
}

}  // namespace

void Cluster::SetTimer(GuestNode* node, std::string_view name, SimTime delay) {
  Slot& slot = slots_[static_cast<size_t>(node->id())];
  auto existing = FindTimer(slot.timers, name);
  if (existing != slot.timers.end()) {
    loop().Cancel(existing->second);
  }
  const NodeId id = node->id();
  const uint64_t generation = slot.generation;
  const TimerId timer = loop().ScheduleAfter(
      delay, [this, id, generation, name = std::string(name)] {
        TimerFired(id, generation, name);
      });
  if (existing != slot.timers.end()) {
    existing->second = timer;
  } else {
    slot.timers.emplace_back(std::string(name), timer);
  }
}

void Cluster::CancelTimer(GuestNode* node, std::string_view name) {
  Slot& slot = slots_[static_cast<size_t>(node->id())];
  auto it = FindTimer(slot.timers, name);
  if (it != slot.timers.end()) {
    loop().Cancel(it->second);
    slot.timers.erase(it);
  }
}

void Cluster::TimerFired(NodeId id, uint64_t generation, const std::string& name) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  if (slot.generation != generation || slot.guest == nullptr || slot.pid == kNoPid) {
    return;  // Timer belongs to a previous incarnation.
  }
  if (auto it = FindTimer(slot.timers, name); it != slot.timers.end()) {
    slot.timers.erase(it);
  }
  const ProcState state = kernel_->StateOf(slot.pid);
  if (state == ProcState::kCrashed || state == ProcState::kExited) {
    return;
  }
  if (state == ProcState::kPaused) {
    slot.pending_timers.push_back(name);
    return;
  }
  Dispatch(id, [&name](GuestNode* guest) { guest->OnTimer(name); });
}

void Cluster::AppendLog(NodeId id, const std::string& line) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  slot.log.push_back(StrFormat("[%9.3fs n%d] ", ToSeconds(kernel_->now()), id) + line);
}

int32_t Cluster::FunctionId(Literal name) {
  for (const auto& [text, id] : function_ids_) {
    if (text == name.data()) {
      return id;
    }
  }
  const FunctionInfo* info = binary_->FindByName(name.view());
  const int32_t id = info == nullptr ? -1 : info->id;
  function_ids_.emplace_back(name.data(), id);
  return id;
}

void Cluster::Panic(GuestNode* node, const std::string& reason) {
  AppendLog(node->id(), "PANIC: " + reason);
  kernel_->Kill(node->pid());
  // Kill marks the interrupt pending; deliver it immediately so the caller
  // unwinds without executing another instruction.
  kernel_->CheckInterrupt(node->pid());
  // CheckInterrupt always throws here; this is unreachable.
  throw ProcessInterrupted{node->pid()};
}

void Cluster::HandleCrash(NodeId id) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  AppendLog(id, "process crashed");
  slot.crashed_guest = std::move(slot.guest);
  slot.conn_fds.assign(slots_.size(), -1);
  if (!config_.auto_restart || slot.permanently_down) {
    return;
  }
  slot.restarts++;
  if (slot.restarts > config_.max_restarts_per_node) {
    slot.permanently_down = true;
    AppendLog(id, "node gave up restarting (crash loop)");
    return;
  }
  const uint64_t generation = slot.generation;
  loop().ScheduleAfter(config_.restart_delay, [this, id, generation] {
    Slot& current = slots_[static_cast<size_t>(id)];
    if (current.generation != generation) {
      return;
    }
    AppendLog(id, "restarting node");
    BootNode(id);
  });
}

void Cluster::FlushPending(NodeId id) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  // Re-enqueue through the loop so handlers run outside the resume path.
  while (!slot.pending_timers.empty()) {
    const std::string name = slot.pending_timers.front();
    slot.pending_timers.pop_front();
    const uint64_t generation = slot.generation;
    loop().ScheduleAfter(0, [this, id, generation, name] { TimerFired(id, generation, name); });
  }
  while (!slot.pending_messages.empty()) {
    Message msg = std::move(slot.pending_messages.front());
    slot.pending_messages.pop_front();
    loop().ScheduleAfter(0, [this, id, msg = std::move(msg)] { Deliver(id, msg); });
  }
}

void Cluster::OnProcessStateChange(SimTime /*now*/, Pid pid, ProcState from, ProcState to) {
  if (from != ProcState::kPaused || to != ProcState::kRunning) {
    // A crash initiated outside a dispatch (e.g. a timer-less executor
    // injection against an idle process) still needs supervision. Detect it
    // by matching the pid to a slot.
    if (to == ProcState::kCrashed) {
      for (NodeId id = 0; id < static_cast<NodeId>(slots_.size()); id++) {
        Slot& slot = slots_[static_cast<size_t>(id)];
        if (slot.pid == pid && slot.guest != nullptr) {
          // Defer: if this crash happened mid-dispatch the unwind handler
          // will supervise; the marker below makes the deferred check cheap.
          const uint64_t generation = slot.generation;
          loop().ScheduleAfter(0, [this, id, generation] {
            Slot& current = slots_[static_cast<size_t>(id)];
            if (current.generation == generation && current.guest != nullptr) {
              HandleCrash(id);
            }
          });
          break;
        }
      }
    }
    return;
  }
  for (NodeId id = 0; id < static_cast<NodeId>(slots_.size()); id++) {
    if (slots_[static_cast<size_t>(id)].pid == pid) {
      FlushPending(id);
      break;
    }
  }
}

const std::vector<std::string>& Cluster::LogsOf(NodeId id) const {
  return slots_[static_cast<size_t>(id)].log;
}

std::string Cluster::AllLogText() const {
  std::string out;
  for (const Slot& slot : slots_) {
    for (const std::string& line : slot.log) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

int Cluster::restarts_of(NodeId id) const {
  return slots_[static_cast<size_t>(id)].restarts;
}

}  // namespace rose
