// rose::stream server half — one stream session's sliding window over
// streamed RTRC bytes (DESIGN.md §16, docs/wire_protocol.md).
//
// A dump submission hands the daemon a finished artifact; a stream session
// hands it an unbounded byte feed. The window turns that feed back into the
// tracer's bounded-window discipline on the server side: events decode
// incrementally (StreamDecoder), the newest stay resident under a byte
// bound, and the oldest are dropped — the same "keep the recent past" policy
// the in-kernel ring applies, so a session's events stay bounded no matter
// how long it runs. Its string pool only grows (a later frame may name any
// earlier id) and counts against the bound too, so a session whose pool
// alone outgrows the bound is unusable.
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
#include <string>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/trace/trace_io.h"

namespace rose {

class StreamWindow {
 public:
  // `window_bytes` bounds the resident cost: decoded events (fixed-size) plus
  // the session's string-pool payload. Past it the oldest events are dropped
  // (counted, and surfaced to the client as throttle pressure by the
  // service).
  explicit StreamWindow(size_t window_bytes);

  // Feeds raw stream bytes; decodes every complete frame. Returns false
  // when the session is unusable — bad magic/version/length, or a string
  // pool larger than the window — and the caller should error it out.
  // Oracle marks are latched: check oracle_pending() after every Feed.
  bool Feed(std::string_view bytes);
  bool oracle_pending() const { return oracle_pending_; }
  // Clears the latch and returns the mark (ts + detail).
  OracleMark TakeOracle();
  // Serializes the current window into a canonical RTRC blob
  // (Trace::FromWindow, Tracer::Dump's canonicalization).
  std::string Materialize() const;

  // Resident cost: decoded events plus the pool payload. Only Feed changes
  // it.
  size_t cost() const;
  // Events dropped so far. Monotone; the service's throttle logic watches it.
  uint64_t drops() const { return drops_; }

 private:
  size_t window_bytes_;
  StreamDecoder decoder_;
  // Decoded events not yet dropped, in arrival order. Their StrIds resolve
  // against decoder_.pool(), which only grows.
  std::deque<TraceEvent> resident_;
  uint64_t drops_ = 0;
  bool oracle_pending_ = false;
  OracleMark oracle_;

  // docs/metrics.md "stream.*".
  Counter* m_dropped_events_ = nullptr;
  Histogram* m_materialize_ns_ = nullptr;
};

}  // namespace rose

#endif  // SRC_SERVE_STREAM_INGESTOR_H_
