// rose::stream server half — per-session sliding windows over streamed
// RTRC bytes (DESIGN.md §16, docs/wire_protocol.md).
//
// A dump submission hands the daemon a finished artifact; a stream session
// hands it an unbounded byte feed. The ingestor turns that feed back into
// the tracer's bounded-window discipline on the server side: events decode
// incrementally (StreamDecoder), the newest stay resident under a
// per-session byte bound, and the oldest are dropped — the same "keep the
// recent past" policy the in-kernel ring applies, so a session's events stay
// bounded no matter how long it runs. Its string pool only grows (a later
// frame may name any earlier id) and counts against the bound too, so a
// session whose pool alone outgrows the bound is unusable.
//
// When an oracle-mark frame arrives, Materialize() rebuilds the window
// exactly the way Tracer::Dump canonicalizes one (Trace::FromWindow) and
// serializes it, so a streamed window that lost nothing produces a
// byte-identical RTRC blob, the same canonical hash, and therefore the same
// cached/deduped diagnosis as the equivalent dump file.
#ifndef SRC_SERVE_STREAM_INGESTOR_H_
#define SRC_SERVE_STREAM_INGESTOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/trace/trace_io.h"

namespace rose {

class StreamIngestor {
 public:
  // `window_bytes` bounds each session's resident cost: decoded events
  // (fixed-size) plus the session's string-pool payload. Past it the oldest
  // events are dropped (counted, and surfaced to the client as throttle
  // pressure by the service).
  explicit StreamIngestor(size_t window_bytes);

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

  // Creates session state for `id` (the server job id of the stream).
  void Open(uint64_t id);
  // Feeds raw stream bytes; decodes every complete frame. Returns false
  // when the session is unusable — bad magic/version/length, or a string
  // pool larger than the window — and the caller should error it out.
  // Oracle marks are latched: check oracle_pending() after every Feed.
  bool Feed(uint64_t id, std::string_view bytes);
  bool oracle_pending(uint64_t id) const;
  // Clears the latch and returns the mark (ts + detail).
  OracleMark TakeOracle(uint64_t id);
  // Serializes the session's current window into a canonical RTRC blob
  // (Trace::FromWindow, Tracer::Dump's canonicalization).
  std::string Materialize(uint64_t id);
  // Drops all session state.
  void Close(uint64_t id);

  size_t session_count() const { return sessions_.size(); }
  // Resident cost across all sessions / the high-water mark over the
  // ingestor's lifetime (the multi-client bench asserts its bound on this).
  size_t resident_bytes() const { return resident_total_; }
  size_t peak_resident_bytes() const { return resident_peak_; }
  // Events `id` has dropped from its window so far. Monotone; the service's
  // throttle logic watches it.
  uint64_t drops(uint64_t id) const;
  uint64_t total_drops() const { return drops_total_; }
  // Corrupt frames skipped on `id`'s stream (CRC resynchronization).
  uint64_t corrupt_frames(uint64_t id) const;

 private:
  struct Session {
    StreamDecoder decoder;
    // Decoded events not yet dropped, in arrival order. Their StrIds
    // resolve against decoder.pool(), which only grows.
    std::deque<TraceEvent> resident;
    uint64_t drops = 0;
    bool oracle_pending = false;
    OracleMark oracle;
  };

  // Drops from the resident front until the session fits its bound.
  void EnforceWindow(uint64_t id, Session& session);
  size_t ResidentCost(const Session& session) const;
  void UpdateResidentGauge(uint64_t id, Session& session);

  size_t window_bytes_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  // Cached per-session cost so the total updates incrementally.
  std::map<uint64_t, size_t> session_cost_;
  size_t resident_total_ = 0;
  size_t resident_peak_ = 0;
  uint64_t drops_total_ = 0;

  // docs/metrics.md "stream.*".
  Gauge* m_resident_ = nullptr;
  Counter* m_dropped_events_ = nullptr;
  Histogram* m_materialize_ns_ = nullptr;
};

}  // namespace rose

#endif  // SRC_SERVE_STREAM_INGESTOR_H_
