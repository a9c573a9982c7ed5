// Trace event model.
//
// A trace is the sequence (E_i = {ts, type, I}) from the paper, with four
// event types:
//   SCF — system-call failure {pid, syscall, fd, filename, errno}
//   AF  — application function invocation {pid, function_id}
//   ND  — network delay {dst_ip, src_ip, duration, packet_count}
//   PS  — process state {pid, state, duration}
// Events carry the node id of the originating process so multi-node merged
// traces stay attributable.
//
// Strings (SCF filenames, ND ip addresses) are interned: events store 32-bit
// StrIds resolved against the StringPool owned by the containing Trace.
// That keeps TraceEvent fixed-size and trivially copyable-cheap, which is
// what lets a million-event window be snapshotted, merged, and serialized
// without a million heap strings. Ids are pool-relative — moving an event
// into another trace goes through Trace::AppendRemapped.
#ifndef SRC_TRACE_EVENT_H_
#define SRC_TRACE_EVENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "src/os/process.h"
#include "src/os/syscall.h"
#include "src/sim/time.h"
#include "src/trace/string_pool.h"

namespace rose {

struct Diagnostic;  // src/analyze/diagnostic.h — binary load reports through it.

enum class EventType : int8_t { kSCF = 0, kAF, kND, kPS };

std::string_view EventTypeName(EventType type);

struct ScfInfo {
  Pid pid = kNoPid;
  Sys sys = Sys::kOpen;
  int32_t fd = -1;
  // Interned pathname (resolved from the fd map during dump post-processing);
  // kEmptyStrId when unknown.
  StrId filename = kEmptyStrId;
  Err err = Err::kOk;
};

struct AfInfo {
  Pid pid = kNoPid;
  int32_t function_id = -1;
};

struct NdInfo {
  StrId src_ip = kEmptyStrId;
  StrId dst_ip = kEmptyStrId;
  SimTime duration = 0;
  uint64_t packet_count = 0;
};

struct PsInfo {
  Pid pid = kNoPid;
  ProcState state = ProcState::kRunning;
  SimTime duration = 0;  // Pause length; 0 for crashes.
};

struct TraceEvent {
  SimTime ts = 0;
  NodeId node = kNoNode;
  EventType type = EventType::kSCF;
  std::variant<ScfInfo, AfInfo, NdInfo, PsInfo> info;

  const ScfInfo& scf() const { return std::get<ScfInfo>(info); }
  const AfInfo& af() const { return std::get<AfInfo>(info); }
  const NdInfo& nd() const { return std::get<NdInfo>(info); }
  const PsInfo& ps() const { return std::get<PsInfo>(info); }

  // One-line textual form: what the CLIs print and what the canonical trace
  // hashes are defined over. Display-only — nothing parses it back.
  // `pool` resolves the event's interned strings.
  std::string ToLine(const StringPool& pool) const;
  // Appends exactly ToLine's bytes to `*out` without allocating a fresh
  // string — the streaming canonical hash formats a million events through
  // one reused buffer.
  void AppendLine(std::string* out, const StringPool& pool) const;
};

// A dumped trace window, ordered by timestamp. Owns the string pool its
// events' StrIds resolve against.
class Trace {
 public:
  Trace() = default;
  // Adopts `events` whose ids already resolve against `pool` (the tracer's
  // dump and the binary reader build traces this way).
  Trace(std::vector<TraceEvent> events, StringPool pool)
      : events_(std::move(events)), pool_(std::move(pool)) {}

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent>& events() { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const TraceEvent& operator[](size_t i) const { return events_[i]; }

  const StringPool& pool() const { return pool_; }
  StringPool& pool() { return pool_; }
  // Interns into this trace's pool (use when constructing events in place).
  StrId Intern(std::string_view s) { return pool_.Intern(s); }
  // Resolves an id from this trace's pool.
  std::string_view str(StrId id) const { return pool_.View(id); }

  // Appends an event whose ids already resolve against this trace's pool.
  void Append(TraceEvent event) { events_.push_back(std::move(event)); }

  // Appends an event from another trace, re-interning its strings from
  // `source` into this trace's pool. `cache` (optional) memoizes the
  // source-id -> local-id mapping across calls with the same source pool.
  void AppendRemapped(const TraceEvent& event, const StringPool& source,
                      std::vector<StrId>* cache = nullptr);

  // Events of one type, in order. The returned events' ids still resolve
  // against this trace's pool.
  std::vector<TraceEvent> OfType(EventType type) const;
  // AF events on `node` with ts <= `before`, most recent first — the
  // "functions which precede F" input to Algorithm 1.
  std::vector<AfInfo> FunctionsBefore(NodeId node, SimTime before) const;

  // The display listing: ToLine per event, one per line.
  std::string Serialize() const;

  // Binary serialization (magic + framed chunks; see src/trace/trace_io.h
  // and DESIGN.md §9) — the one durable trace format. ParseBinary never
  // throws: corrupt or truncated input yields the events of every intact
  // frame plus Diagnostics (appended to `diags` when non-null) describing
  // what was dropped.
  std::string SerializeBinary() const;
  static Trace ParseBinary(std::string_view data, std::vector<Diagnostic>* diags = nullptr);

  // Merges per-node traces into one timestamp-ordered trace: FromWindow
  // over the inputs concatenated in argument order, so ties keep input-trace
  // order and order within a trace, whether or not the inputs are sorted.
  static Trace Merge(const std::vector<Trace>& traces);

  // The canonical dump of a window: `events` (in recording order, ids
  // resolving against `pool`) stable-sorted by timestamp, so ties keep
  // recording order, then compacted into a fresh pool in first-appearance
  // order. Tracer::Dump, a stream session's materialization and Merge all
  // build their trace here, which is what makes a streamed window
  // byte-identical to a dump of the same window.
  static Trace FromWindow(std::vector<TraceEvent> events, const StringPool& pool);

 private:
  std::vector<TraceEvent> events_;
  StringPool pool_;
};

// A non-owning, read-only view of a trace: a span of events plus the pool
// their ids resolve against. Views are two pointers and a length — pass them
// by value. The viewed trace must outlive the view unmodified (growing the
// trace may relocate both the events and the pool arena); every read-only
// consumer (extraction, validation, profiling absorption, indexing) takes a
// TraceView so callers never copy a window just to inspect it.
class TraceView {
 public:
  TraceView() = default;
  TraceView(const TraceEvent* events, size_t count, const StringPool* pool)
      : events_(events), count_(count), pool_(pool) {}
  // Implicit: any API taking a TraceView accepts a Trace directly.
  TraceView(const Trace& trace)  // NOLINT(google-explicit-constructor)
      : events_(trace.events().data()), count_(trace.size()), pool_(&trace.pool()) {}

  const TraceEvent* begin() const { return events_; }
  const TraceEvent* end() const { return events_ + count_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const TraceEvent& operator[](size_t i) const { return events_[i]; }

  const StringPool& pool() const {
    static const StringPool kEmptyPool;
    return pool_ == nullptr ? kEmptyPool : *pool_;
  }
  std::string_view str(StrId id) const { return pool().View(id); }

  // Same contract as Trace::FunctionsBefore.
  std::vector<AfInfo> FunctionsBefore(NodeId node, SimTime before) const;

 private:
  const TraceEvent* events_ = nullptr;
  size_t count_ = 0;
  const StringPool* pool_ = nullptr;
};

// Semantic equality: same event sequence with identical resolved strings
// (the underlying StrIds may differ between pools).
bool TraceEquals(TraceView a, TraceView b);

// Memoized FunctionsBefore over an immutable, timestamp-ordered trace.
//
// Algorithm 1 queries FunctionsBefore once per chain-extension step, and the
// parallel diagnosis engine hammers it from every candidate; the linear scan
// over the full event vector turns that into O(events) per query. The index
// buckets AF events per node once (O(events) build) and answers each query
// with one binary search plus the size of the answer.
//
// Precondition: the viewed events are ordered by ts (true for merged /
// parsed production dumps) and the trace outlives the index unmodified.
// Results are bit-identical to Trace::FunctionsBefore on such traces.
class TraceIndex {
 public:
  TraceIndex() = default;
  explicit TraceIndex(TraceView trace);

  // AF events on `node` with ts <= `before`, most recent first.
  std::vector<AfInfo> FunctionsBefore(NodeId node, SimTime before) const;

 private:
  struct NodeAfs {
    std::vector<SimTime> ts;   // Non-decreasing (trace order).
    std::vector<AfInfo> afs;   // Parallel to `ts`.
  };
  std::map<NodeId, NodeAfs> per_node_;
};

}  // namespace rose

#endif  // SRC_TRACE_EVENT_H_
