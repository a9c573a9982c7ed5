// The production tracer (paper §4.3, §5.2).
//
// Subscribes to the kernel's sys_exit boundary and function uprobes, and to
// the network's ingress tap. Three modes reproduce the paper's overhead
// study (Table 2):
//   kRose      — system-call *failures* only, plus monitored AF functions
//   kFull      — every system-call invocation (success and failure)
//   kIoContent — Rose events plus every read/write with up to
//                `io_content_cap` bytes of content copied
//
// The tracer charges a small virtual-time cost per probe hit / saved event /
// copied byte, which is how application-level overhead becomes measurable in
// the simulator. Events live in a fixed-size ring buffer (default 1M) until
// Dump() is invoked by the bug oracle or an operator.
#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/os/kernel.h"
#include "src/trace/event.h"
#include "src/trace/ring_buffer.h"
#include "src/trace/string_pool.h"

namespace rose {

enum class TracerMode : int8_t { kRose = 0, kFull, kIoContent };

std::string_view TracerModeName(TracerMode mode);

struct TracerConfig {
  TracerMode mode = TracerMode::kRose;
  // Sliding window size (events), 1 million by default as in the paper.
  size_t window_size = 1'000'000;
  // Gap after which a silent connection is reported as a network delay.
  SimTime nd_threshold = Seconds(5);
  // A connection must have carried this many packets before its silence is
  // treated as a possible partition (filters one-shot client probes).
  uint64_t nd_min_packets = 20;
  // Waiting-state duration after which a pause is reported.
  SimTime ps_waiting_threshold = Seconds(3);
  // procfs polling cadence.
  SimTime ps_poll_interval = Seconds(1);
  // AF function ids to monitor (produced by the profiler).
  std::set<int32_t> monitored_functions;
  // Max bytes copied per read/write in kIoContent mode.
  int64_t io_content_cap = 128;

  // Virtual-cost model (per-node application overhead).
  SimTime probe_cost = Nanos(50);       // Every syscall exit, all modes.
  SimTime record_cost = Nanos(30);      // Per event saved to the ring.
  SimTime byte_copy_cost = Nanos(6);    // Per byte copied (kIoContent).
  SimTime uprobe_cost = Nanos(800);     // Per traced function entry
                                        // (user/kernel mode switch).
};

struct TracerStats {
  uint64_t events_seen = 0;      // Matched the tracer criteria.
  uint64_t events_saved = 0;     // Currently held in the window.
  uint64_t bytes_copied = 0;     // kIoContent content copies.
  uint64_t syscalls_observed = 0;  // All syscall exits (probe hits).
  uint64_t function_probe_hits = 0;
  SimTime virtual_overhead = 0;  // Total virtual time charged to the app.
  double dump_processing_seconds = 0;  // Host time of last Dump() post-processing.
  int64_t memory_bytes = 0;      // Approximate window footprint.
};

class Tracer : public KernelObserver, public IngressTap {
 public:
  Tracer(SimKernel* kernel, Network* network, TracerConfig config);
  ~Tracer() override;

  // Registers the kernel and network hooks and starts the procfs poller.
  void Attach();
  void Detach();

  // The paper's `dump` primitive: snapshots the window, flushes ongoing
  // pauses / silent connections, resolves fd -> pathname, merges and sorts.
  Trace Dump();

  // --- Streaming (DESIGN.md §16) --------------------------------------------
  // Appends the window events recorded since the previous TakeStreamDelta
  // call to `*out`, in recording order, with fd -> pathname resolution
  // already applied. Resolution is timestamp-bounded and fd bindings only
  // ever append, so resolving at ship time yields the same pathnames
  // Dump() would resolve later — the property the streamed-vs-dumped
  // byte-identity test rests on. Returns the number of events the ring
  // overwrote before they could ship (0 when the sender keeps up).
  // Deliberately charges no virtual time: shipping happens off the traced
  // node, so a streamed run must replay identically to a dumped one.
  uint64_t TakeStreamDelta(std::vector<TraceEvent>* out);
  // Appends the open-ended events Dump() synthesizes when invoked (ongoing
  // pauses, unreported crashes, silent connections), without mutating any
  // reporting state. A streaming sender calls this when the oracle fires so
  // the daemon materializes exactly what a dump would have contained.
  void AppendOpenEndedEvents(std::vector<TraceEvent>* out);
  // Pool the streamed events' StrIds resolve against (grow-only).
  const StringPool& stream_pool() const { return pool_; }

  TracerStats stats() const;

  // --- KernelObserver --------------------------------------------------------
  void OnSyscallExit(SimTime now, const SyscallInvocation& inv,
                     const SyscallResult& result) override;
  void OnFunctionEnter(SimTime now, Pid pid, int32_t function_id) override;

  // --- IngressTap -------------------------------------------------------------
  void OnPacketIn(SimTime now, IpId src, IpId dst, int64_t size) override;

 private:
  // One fd -> path binding. Bindings append in time order; `prev` chains
  // the earlier bindings of the same (pid, fd), 1-based (0 ends the chain).
  struct FdBinding {
    SimTime ts;
    StrId path;  // In fd_paths_.
    uint32_t prev;
  };
  struct ConnState {
    SimTime first_packet = 0;
    SimTime last_packet = 0;
    uint64_t packet_count = 0;
  };

  // True when a silent connection looks like a partition rather than an
  // idle client: enough packets, a sustained activity span, a real rate.
  bool QualifiesAsPartitionSilence(const ConnState& conn, SimTime gap) const;

  void RecordEvent(TraceEvent event);
  bool Monitored(int32_t function_id);
  // The "sock:<ip>" label of a network syscall, built in a reused buffer.
  std::string_view SockLabel(std::string_view ip);
  void BindFd(Pid pid, int32_t fd, SimTime ts, StrId path);
  // Dump-time fd -> pathname post-processing, shared with the stream path.
  void ResolveEventFds(std::vector<TraceEvent>* events);
  // The newest binding of (pid, fd) made at or before `at`, as an id in
  // fd_paths_ (kEmptyStrId when there is none).
  StrId ResolveFd(Pid pid, int32_t fd, SimTime at) const;
  NodeId NodeOfPid(Pid pid) const;
  void PollProcessStates();
  void Charge(SimTime cost);

  SimKernel* kernel_;
  Network* network_;
  TracerConfig config_;
  bool attached_ = false;
  bool polling_ = false;

  RingBuffer<TraceEvent> window_;
  // Pool the in-window events' StrIds resolve against. It only grows while
  // tracing (ids of overwritten events are never reused), so Dump() compacts
  // into the output trace's own pool.
  StringPool pool_;
  // Paths the fd bindings name. Private so that bookkeeping for fds no
  // event ever resolves does not show in stream deltas or memory_bytes.
  StringPool fd_paths_;
  // The path of the newest successful open and its id in fd_paths_.
  std::string last_open_path_;
  StrId last_open_id_ = kEmptyStrId;
  std::vector<FdBinding> fd_log_;
  // fd_heads_[pid][fd]: 1-based index of the newest binding in fd_log_
  // (0: never bound).
  std::vector<std::vector<uint32_t>> fd_heads_;
  // connections_[src][dst] over the network's interned addresses.
  std::vector<std::vector<ConnState>> connections_;
  // Membership of function ids (registration indices, dense from 0) in the
  // monitored set: 1 yes, 0 no, -1 not looked up yet. Filled as enters
  // arrive, so its size follows the ids guests enter rather than the ids a
  // profile names (a served profile is untrusted input).
  std::vector<int8_t> monitored_;
  std::string sock_label_;
  std::set<Pid> crash_reported_;
  std::map<Pid, size_t> pauses_reported_;

  uint64_t events_seen_ = 0;
  uint64_t events_dropped_ = 0;
  // Events already handed to TakeStreamDelta (counted against events_seen_).
  uint64_t stream_shipped_ = 0;
  uint64_t bytes_copied_ = 0;
  uint64_t syscalls_observed_ = 0;
  uint64_t function_probe_hits_ = 0;
  SimTime virtual_overhead_ = 0;
  double dump_processing_seconds_ = 0;

  // Settles the plain tallies above into the process-wide registry as
  // deltas. Hot paths never touch the atomic counters — BENCH_obs holds the
  // tracer's ON-vs-OFF tax under its budget because the per-event cost is a
  // plain member increment either way; this runs only at Dump()/Detach().
  void FlushObsMetrics();

  // rose::obs self-metrics (docs/metrics.md "tracer.*"). Pointers are
  // resolved once at construction, written only by FlushObsMetrics(), and
  // compiled to no-ops under ROSE_OBS=OFF. Write-only: nothing here feeds
  // back into tracing decisions.
  struct FlushedTallies {
    uint64_t captured = 0;
    uint64_t dropped = 0;
    uint64_t syscalls = 0;
    uint64_t probe_hits = 0;
    uint64_t bytes_copied = 0;
  };
  FlushedTallies flushed_;
  Counter* m_captured_;
  Counter* m_dropped_;
  Counter* m_syscalls_;
  Counter* m_probe_hits_;
  Counter* m_bytes_copied_;
  Counter* m_dumps_;
  Gauge* m_occupancy_;
  Histogram* m_dump_ns_;
  Histogram* m_dump_bytes_;
};

}  // namespace rose

#endif  // SRC_TRACE_TRACER_H_
