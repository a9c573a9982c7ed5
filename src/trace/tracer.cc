#include "src/trace/tracer.h"

#include <algorithm>
#include <chrono>

namespace rose {

std::string_view TracerModeName(TracerMode mode) {
  switch (mode) {
    case TracerMode::kRose:
      return "rose";
    case TracerMode::kFull:
      return "full";
    case TracerMode::kIoContent:
      return "io-content";
  }
  return "unknown";
}

Tracer::Tracer(SimKernel* kernel, Network* network, TracerConfig config)
    : kernel_(kernel), network_(network), config_(std::move(config)),
      window_(config_.window_size) {
  MetricRegistry& reg = MetricRegistry::Global();
  m_captured_ = reg.GetCounter("tracer.events_captured");
  m_dropped_ = reg.GetCounter("tracer.events_dropped");
  m_syscalls_ = reg.GetCounter("tracer.syscalls_observed");
  m_probe_hits_ = reg.GetCounter("tracer.function_probe_hits");
  m_bytes_copied_ = reg.GetCounter("tracer.bytes_copied");
  m_dumps_ = reg.GetCounter("tracer.dumps");
  m_occupancy_ = reg.GetGauge("tracer.window.occupancy");
  m_dump_ns_ = reg.GetHistogram("tracer.dump_ns");
  m_dump_bytes_ = reg.GetHistogram("tracer.dump_bytes");
}

Tracer::~Tracer() { Detach(); }

void Tracer::Attach() {
  if (attached_) {
    return;
  }
  attached_ = true;
  kernel_->AddObserver(this);
  if (network_ != nullptr) {
    network_->AddIngressTap(this);
  }
  if (!polling_) {
    polling_ = true;
    kernel_->loop().ScheduleAfter(config_.ps_poll_interval, [this] { PollProcessStates(); });
  }
}

void Tracer::Detach() {
  if (!attached_) {
    return;
  }
  attached_ = false;
  polling_ = false;
  kernel_->RemoveObserver(this);
  if (network_ != nullptr) {
    network_->RemoveIngressTap(this);
  }
  FlushObsMetrics();  // Covers traced runs that end without a Dump().
}

void Tracer::FlushObsMetrics() {
  m_captured_->Inc(events_seen_ - flushed_.captured);
  m_dropped_->Inc(events_dropped_ - flushed_.dropped);
  m_syscalls_->Inc(syscalls_observed_ - flushed_.syscalls);
  m_probe_hits_->Inc(function_probe_hits_ - flushed_.probe_hits);
  m_bytes_copied_->Inc(bytes_copied_ - flushed_.bytes_copied);
  m_occupancy_->Set(static_cast<int64_t>(window_.size()));
  flushed_.captured = events_seen_;
  flushed_.dropped = events_dropped_;
  flushed_.syscalls = syscalls_observed_;
  flushed_.probe_hits = function_probe_hits_;
  flushed_.bytes_copied = bytes_copied_;
}

void Tracer::Charge(SimTime cost) {
  virtual_overhead_ += cost;
  kernel_->loop().AdvanceBy(cost);
}

NodeId Tracer::NodeOfPid(Pid pid) const {
  const Process* proc = kernel_->FindProcess(pid);
  return proc == nullptr ? kNoNode : proc->node;
}

void Tracer::RecordEvent(TraceEvent event) {
  events_seen_++;
  if (window_.size() == window_.capacity()) {
    events_dropped_++;  // Push below overwrites the oldest window entry.
  }
  window_.Push(std::move(event));
  Charge(config_.record_cost);
}

std::string_view Tracer::SockLabel(std::string_view ip) {
  sock_label_.assign("sock:").append(ip);
  return sock_label_;
}

void Tracer::BindFd(Pid pid, int32_t fd, SimTime ts, StrId path) {
  if (pid < 0 || fd < 0) {
    return;
  }
  if (static_cast<size_t>(pid) >= fd_heads_.size()) {
    fd_heads_.resize(static_cast<size_t>(pid) + 1);
  }
  std::vector<uint32_t>& heads = fd_heads_[static_cast<size_t>(pid)];
  if (static_cast<size_t>(fd) >= heads.size()) {
    heads.resize(static_cast<size_t>(fd) + 1, 0);
  }
  uint32_t& head = heads[static_cast<size_t>(fd)];
  fd_log_.push_back(FdBinding{ts, path, head});
  head = static_cast<uint32_t>(fd_log_.size());
}

void Tracer::OnSyscallExit(SimTime now, const SyscallInvocation& inv,
                           const SyscallResult& result) {
  syscalls_observed_++;
  Charge(config_.probe_cost);

  // Maintain the lightweight fd -> filename map (open/close/dup bookkeeping
  // only; reconstruction happens during dump post-processing).
  if (result.ok()) {
    const auto new_fd = static_cast<int32_t>(result.value);
    switch (inv.sys) {
      case Sys::kOpen:
      case Sys::kOpenAt:
        // Guests reopen the same file over and over (RaftKV opens its log
        // once per entry): hash only a path that differs from the last.
        if (inv.path != last_open_path_) {
          last_open_path_ = inv.path;
          last_open_id_ = fd_paths_.Intern(inv.path);
        }
        BindFd(inv.pid, new_fd, now, last_open_id_);
        break;
      case Sys::kConnect:
      case Sys::kAccept:
        BindFd(inv.pid, new_fd, now, fd_paths_.Intern(SockLabel(inv.remote_ip)));
        break;
      case Sys::kDup:
        BindFd(inv.pid, new_fd, now, ResolveFd(inv.pid, inv.fd, now));
        break;
      default:
        break;
    }
  }

  const bool failure = !result.ok();
  bool record = failure;  // kRose: failures only.
  if (config_.mode == TracerMode::kFull) {
    record = true;
  } else if (config_.mode == TracerMode::kIoContent) {
    const bool is_io = inv.sys == Sys::kRead || inv.sys == Sys::kWrite ||
                       inv.sys == Sys::kPRead || inv.sys == Sys::kPWrite;
    if (is_io) {
      const int64_t copied = std::min<int64_t>(inv.length, config_.io_content_cap);
      bytes_copied_ += static_cast<uint64_t>(copied);
      Charge(copied * config_.byte_copy_cost);
      record = true;
    }
  }
  if (!record) {
    return;
  }

  ScfInfo info;
  info.pid = inv.pid;
  info.sys = inv.sys;
  info.fd = inv.fd;
  info.err = result.err;
  if (SysTakesPath(inv.sys)) {
    info.filename = pool_.Intern(inv.path);
  } else if (!inv.remote_ip.empty()) {
    info.filename = pool_.Intern(SockLabel(inv.remote_ip));
  }

  TraceEvent event;
  event.ts = now;
  event.node = NodeOfPid(inv.pid);
  event.type = EventType::kSCF;
  event.info = std::move(info);
  RecordEvent(std::move(event));
}

bool Tracer::Monitored(int32_t function_id) {
  if (function_id < 0) {
    return false;
  }
  const auto id = static_cast<size_t>(function_id);
  if (id >= monitored_.size()) {
    monitored_.resize(id + 1, -1);
  }
  if (monitored_[id] < 0) {
    monitored_[id] = config_.monitored_functions.count(function_id) > 0 ? 1 : 0;
  }
  return monitored_[id] == 1;
}

void Tracer::OnFunctionEnter(SimTime now, Pid pid, int32_t function_id) {
  if (!Monitored(function_id)) {
    return;
  }
  function_probe_hits_++;
  Charge(config_.uprobe_cost);
  TraceEvent event;
  event.ts = now;
  event.node = NodeOfPid(pid);
  event.type = EventType::kAF;
  event.info = AfInfo{pid, function_id};
  RecordEvent(std::move(event));
}

bool Tracer::QualifiesAsPartitionSilence(const ConnState& conn, SimTime gap) const {
  if (gap < config_.nd_threshold || gap > 6 * config_.nd_threshold) {
    return false;  // Too short, or so long the connection is simply idle.
  }
  if (conn.packet_count < config_.nd_min_packets) {
    return false;
  }
  const SimTime active_span = conn.last_packet - conn.first_packet;
  if (active_span < Seconds(1)) {
    return false;  // A short burst (client probe), not an established flow.
  }
  const double rate = static_cast<double>(conn.packet_count) / ToSeconds(active_span);
  return rate >= 2.0;
}

void Tracer::OnPacketIn(SimTime now, IpId src, IpId dst, int64_t /*size*/) {
  if (src >= connections_.size()) {
    connections_.resize(static_cast<size_t>(src) + 1);
  }
  std::vector<ConnState>& row = connections_[src];
  if (dst >= row.size()) {
    row.resize(static_cast<size_t>(dst) + 1);
  }
  ConnState& conn = row[dst];
  conn.packet_count++;
  if (conn.first_packet == 0) {
    conn.first_packet = now;
  }
  if (conn.last_packet != 0) {
    const SimTime gap = now - conn.last_packet;
    if (QualifiesAsPartitionSilence(conn, gap)) {
      TraceEvent event;
      event.ts = now;
      const std::string& src_ip = network_->IpName(src);
      const std::string& dst_ip = network_->IpName(dst);
      event.node = kernel_->NodeOfIp(dst_ip);
      event.type = EventType::kND;
      event.info = NdInfo{pool_.Intern(src_ip), pool_.Intern(dst_ip), gap, conn.packet_count};
      RecordEvent(std::move(event));
    }
  }
  conn.last_packet = now;
}

void Tracer::PollProcessStates() {
  if (!polling_) {
    return;
  }
  for (Pid pid : kernel_->AllPids()) {
    const Process* proc = kernel_->FindProcess(pid);
    if (proc == nullptr) {
      continue;
    }
    if (proc->state == ProcState::kCrashed && crash_reported_.insert(pid).second) {
      TraceEvent event;
      event.ts = proc->state_since;
      event.node = proc->node;
      event.type = EventType::kPS;
      event.info = PsInfo{pid, ProcState::kCrashed, 0};
      RecordEvent(std::move(event));
    }
    size_t& reported = pauses_reported_[pid];
    while (reported < proc->pauses.size() && proc->pauses[reported].end != 0) {
      const PauseRecord& pause = proc->pauses[reported];
      const SimTime duration = pause.end - pause.start;
      if (duration >= config_.ps_waiting_threshold) {
        TraceEvent event;
        event.ts = pause.start;
        event.node = proc->node;
        event.type = EventType::kPS;
        event.info = PsInfo{pid, ProcState::kPaused, duration};
        RecordEvent(std::move(event));
      }
      reported++;
    }
  }
  kernel_->loop().ScheduleAfter(config_.ps_poll_interval, [this] { PollProcessStates(); });
}

StrId Tracer::ResolveFd(Pid pid, int32_t fd, SimTime at) const {
  if (pid < 0 || static_cast<size_t>(pid) >= fd_heads_.size() || fd < 0) {
    return kEmptyStrId;
  }
  const std::vector<uint32_t>& heads = fd_heads_[static_cast<size_t>(pid)];
  uint32_t link = static_cast<size_t>(fd) < heads.size() ? heads[static_cast<size_t>(fd)] : 0;
  while (link != 0) {
    const FdBinding& binding = fd_log_[link - 1];
    if (binding.ts <= at) {
      return binding.path;
    }
    link = binding.prev;
  }
  return kEmptyStrId;
}

void Tracer::ResolveEventFds(std::vector<TraceEvent>* events) {
  for (TraceEvent& event : *events) {
    if (event.type != EventType::kSCF) {
      continue;
    }
    auto& info = std::get<ScfInfo>(event.info);
    if (info.filename == kEmptyStrId && info.fd >= 0) {
      info.filename = pool_.Intern(fd_paths_.View(ResolveFd(info.pid, info.fd, event.ts)));
    }
  }
}

void Tracer::AppendOpenEndedEvents(std::vector<TraceEvent>* out) {
  const SimTime now = kernel_->now();
  // Events that have not terminated yet: ongoing pauses and crashes the
  // poller has not caught up with...
  for (Pid pid : kernel_->AllPids()) {
    const Process* proc = kernel_->FindProcess(pid);
    if (proc == nullptr) {
      continue;
    }
    if (!proc->pauses.empty() && proc->pauses.back().end == 0) {
      const SimTime duration = now - proc->pauses.back().start;
      if (duration >= config_.ps_waiting_threshold) {
        TraceEvent event;
        event.ts = proc->pauses.back().start;
        event.node = proc->node;
        event.type = EventType::kPS;
        event.info = PsInfo{pid, ProcState::kPaused, duration};
        out->push_back(std::move(event));
      }
    }
    if (proc->state == ProcState::kCrashed && crash_reported_.count(pid) == 0) {
      TraceEvent event;
      event.ts = proc->state_since;
      event.node = proc->node;
      event.type = EventType::kPS;
      event.info = PsInfo{pid, ProcState::kCrashed, 0};
      out->push_back(std::move(event));
    }
  }
  // ...and connections silent for longer than the ND threshold (but not so
  // long that they are simply idle, and only if they carried real traffic),
  // in (src ip, dst ip) string order.
  struct Silent {
    const std::string* src;
    const std::string* dst;
    const ConnState* conn;
  };
  std::vector<Silent> silent;
  for (size_t src = 0; src < connections_.size(); src++) {
    for (size_t dst = 0; dst < connections_[src].size(); dst++) {
      const ConnState& conn = connections_[src][dst];
      if (conn.last_packet != 0 &&
          QualifiesAsPartitionSilence(conn, now - conn.last_packet)) {
        silent.push_back(Silent{&network_->IpName(static_cast<IpId>(src)),
                                &network_->IpName(static_cast<IpId>(dst)), &conn});
      }
    }
  }
  std::sort(silent.begin(), silent.end(), [](const Silent& a, const Silent& b) {
    return *a.src != *b.src ? *a.src < *b.src : *a.dst < *b.dst;
  });
  for (const Silent& entry : silent) {
    TraceEvent event;
    event.ts = now;
    event.node = kernel_->NodeOfIp(*entry.dst);
    event.type = EventType::kND;
    event.info = NdInfo{pool_.Intern(*entry.src), pool_.Intern(*entry.dst),
                        now - entry.conn->last_packet, entry.conn->packet_count};
    out->push_back(std::move(event));
  }
}

uint64_t Tracer::TakeStreamDelta(std::vector<TraceEvent>* out) {
  const uint64_t unshipped = events_seen_ - stream_shipped_;
  stream_shipped_ = events_seen_;
  if (unshipped == 0) {
    return 0;
  }
  uint64_t lost = 0;
  uint64_t take = unshipped;
  if (take > window_.size()) {
    lost = take - window_.size();  // Overwritten before they could ship.
    take = window_.size();
  }
  std::vector<TraceEvent> delta = window_.SnapshotTail(static_cast<size_t>(take));
  ResolveEventFds(&delta);
  out->insert(out->end(), std::make_move_iterator(delta.begin()),
              std::make_move_iterator(delta.end()));
  return lost;
}

Trace Tracer::Dump() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<TraceEvent> events = window_.Snapshot();

  // Post-processing: resolve fd-based SCFs to pathnames, then flush events
  // that had not terminated when the dump was requested.
  ResolveEventFds(&events);
  AppendOpenEndedEvents(&events);

  // Sorts and compacts into the output trace's own pool: the tracer's pool
  // accumulates every string ever seen, but a dump only carries the
  // window's survivors.
  Trace trace = Trace::FromWindow(std::move(events), pool_);
  dump_processing_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  FlushObsMetrics();
  m_dumps_->Inc();
  m_dump_ns_->Record(static_cast<uint64_t>(dump_processing_seconds_ * 1e9));
  m_dump_bytes_->Record(trace.size() * sizeof(TraceEvent) +
                        trace.pool().payload_bytes());
  return trace;
}

TracerStats Tracer::stats() const {
  TracerStats stats;
  stats.events_seen = events_seen_;
  stats.events_saved = window_.size();
  stats.bytes_copied = bytes_copied_;
  stats.syscalls_observed = syscalls_observed_;
  stats.function_probe_hits = function_probe_hits_;
  stats.virtual_overhead = virtual_overhead_;
  stats.dump_processing_seconds = dump_processing_seconds_;
  // Events are fixed-size now (strings interned), so the footprint is a
  // multiplication, not a window scan.
  stats.memory_bytes = static_cast<int64_t>(window_.size() * sizeof(TraceEvent)) +
                       static_cast<int64_t>(pool_.payload_bytes()) +
                       static_cast<int64_t>(bytes_copied_);
  return stats;
}

}  // namespace rose
