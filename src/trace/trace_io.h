// Binary trace container (DESIGN.md §9).
//
// The paper's `dump` primitive turns the in-kernel window into a durable
// artifact the diagnosis phase re-reads thousands of times. The RTRC
// container stores the interned string table and varint-delta encoded
// events in the shared CRC-checked frames of src/common/framing.h:
//
//   header:  'R' 'T' 'R' 'C' | u16 version (LE) | u16 reserved
//   frame:   u8 kind | u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//   kinds:   1 = string-pool delta, 2 = event chunk, 3 = end-of-stream
//
// Pool frames carry the strings newly interned since the previous pool
// frame (varint first_id, varint count, then varint len + raw bytes each),
// so a writer can interleave pool and event frames while streaming. Event
// frames carry varint count followed by per-event records: zigzag-varint
// delta timestamp (previous event's ts persists across frames; the delta
// wraps modulo 2^64), u8 type, zigzag-varint node, then the type-specific
// fields. The end frame (empty payload) distinguishes a complete stream
// from one truncated at a frame boundary. Writers emit version 1. Version 2
// appended two varints to every SCF record (an execution-index stamp no
// analysis reads); readers still accept it and skip them, so a version-2
// dump decodes to exactly the events of its version-1 encoding.
//
// This is the only trace decoder: the one-event-per-line text form
// (Trace::Serialize) is a display listing, and loading one reports TB201.
//
// Failure semantics: the reader never throws and never loses intact data —
// a bad magic, version, CRC, or truncation stops decoding at the last good
// frame and reports a Diagnostic (TB2xx codes, src/analyze/diagnostic.h).
// A count field larger than its frame's remaining bytes is malformed (every
// event record and pool string takes at least one byte), so hostile counts
// never size an allocation.
#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/analyze/diagnostic.h"
#include "src/common/framing.h"
#include "src/trace/event.h"
#include "src/trace/string_pool.h"

namespace rose {

// Frame kinds. 1..3 are the original dump-file grammar; 4..5 extend the
// container to an append-only *streaming* mode (DESIGN.md §16): a stream
// epoch frame announcing the sender's identity/restart generation, and an
// explicit oracle-mark frame that tells an ingesting daemon "the failure
// fired here — start diagnosis on what you hold". Readers skip kinds they
// do not understand (the CRC already proved the payload intact), so dump
// readers tolerate stream frames and vice versa.
inline constexpr uint8_t kFramePool = 1;
inline constexpr uint8_t kFrameEvents = 2;
inline constexpr uint8_t kFrameEnd = 3;
inline constexpr uint8_t kFrameStreamEpoch = 4;
inline constexpr uint8_t kFrameOracleMark = 5;
// The version every writer emits.
inline constexpr uint16_t kTraceFormatVersion = 1;
// Readers accept versions 1 and 2 (2 carries two extra varints per SCF
// record, which DecodeRtrcEventFrame skips). The stream decoder bounds the
// announced payload length at 64 MiB (a dump reader has the whole artifact
// in hand and needs no cap; a stream decoder must not buffer unboundedly on
// a corrupted length field).
inline constexpr FrameFormat kRtrcFormat = {{'R', 'T', 'R', 'C'}, /*max_version=*/2,
                                            64u << 20};

// --- Streaming frame protocol (docs/wire_protocol.md) -----------------------

// Payload of a kFrameStreamEpoch frame: sent first on every stream (and
// again after a sender restart, with `epoch` bumped) so the ingestor can
// tell a reconnect from interleaved garbage.
struct StreamEpoch {
  uint64_t epoch = 0;   // Sender restart generation, starts at 1.
  SimTime start_ts = 0; // Virtual time when the sender attached.
  std::string source;   // Free-form origin label, e.g. "zk-2247/tracer".
};

// Payload of a kFrameOracleMark frame: the in-band "failure fired" signal.
struct OracleMark {
  SimTime ts = 0;       // Virtual time the oracle fired.
  std::string detail;   // Free-form oracle description.
};

std::string EncodeStreamEpoch(const StreamEpoch& epoch);
bool DecodeStreamEpoch(std::string_view payload, StreamEpoch* out);
std::string EncodeOracleMark(const OracleMark& mark);
bool DecodeOracleMark(std::string_view payload, OracleMark* out);

// Appends the 8-byte container header ('RTRC' + version + reserved).
inline void AppendRtrcHeader(std::string* out) {
  AppendHeader(out, kRtrcFormat, kTraceFormatVersion);
}
// Appends one CRC-framed container frame (the exact grammar TraceWriter
// emits; exposed so streaming senders can interleave epoch/oracle frames
// with writer-produced pool/event frames).
inline void AppendRtrcFrame(std::string* out, uint8_t kind, std::string_view payload) {
  AppendFrame(out, kind, payload);
}

// Decodes one string-pool delta frame payload into `*pool`, copying each
// string into its arena; every RTRC decoder takes its pool frames through
// here. False on malformed payloads, counts past the payload, ids out of
// stream order, and empty or duplicate strings.
bool DecodeRtrcPoolFrame(std::string_view payload, StringPool* pool);
// Decodes one event frame payload of a stream announcing `format_version`,
// appending to `*out`. `*prev_ts` carries the timestamp-delta base across
// frames (the writer's does too); events referencing pool ids >=
// `pool_size`, and counts past the payload, fail.
bool DecodeRtrcEventFrame(std::string_view payload, uint16_t format_version,
                          size_t pool_size, SimTime* prev_ts, std::vector<TraceEvent>* out);

// --- File helpers -----------------------------------------------------------

// Reads `path` and parses it with Trace::ParseBinary into an owning Trace
// (MappedTrace::OpenFile maps the file instead of reading it). Never throws:
// an unreadable file yields an empty trace plus a TB206 diagnostic;
// container damage (TB201..TB205) is appended the same way. The
// caller decides whether a damaged-but-partially-decoded trace is usable —
// CLIs should treat HasErrors(diags) as a nonzero exit even when events
// survived.
Trace LoadTraceFile(const std::string& path, std::vector<Diagnostic>* diags = nullptr);

// Writes `trace` to `path` (binary container, or the display-only
// one-event-per-line listing when `text` is set). False when the file cannot
// be written.
bool SaveTraceFile(const std::string& path, const Trace& trace, bool text = false);

// --- Streaming writer -------------------------------------------------------

// Appends a binary trace stream to `*out`. Events must reference `*pool`
// (normally the owning Trace's pool); the pool may keep growing between
// Add() calls — strings interned since the last flush are emitted in a pool
// frame ahead of the next event frame. Call Finish() exactly once.
class TraceWriter {
 public:
  static constexpr size_t kDefaultEventsPerFrame = 4096;

  TraceWriter(std::string* out, const StringPool* pool,
              size_t events_per_frame = kDefaultEventsPerFrame);

  void Add(const TraceEvent& event);
  // Flushes buffered events (and any pool growth) into frames now, without
  // ending the stream — the streaming sender's ship point. The caller may
  // drain `*out` between flushes; the writer keeps no offsets into it.
  void Flush();
  void Finish();

 private:
  void FlushEvents();
  void FlushPool();

  std::string* out_;
  const StringPool* pool_;
  size_t events_per_frame_;
  // Next pool id to emit; id 0 ("") is implicit in every pool.
  size_t pool_flushed_ = 1;
  std::string events_payload_;
  size_t buffered_ = 0;
  SimTime prev_ts_ = 0;
  bool finished_ = false;
};

// --- Streaming reader -------------------------------------------------------

// Decodes a whole binary trace (a dump in memory or mapped) frame by frame,
// splitting frames in place with SplitFrame. Events stream out through
// Next(); their StrIds resolve against pool(), which grows as pool frames
// are consumed (ids match the writer's because both sides intern in order)
// and owns copies of its strings, so it outlives `data`. Decoding stops at
// the first damaged frame.
class TraceReader {
 public:
  explicit TraceReader(std::string_view data);

  // Produces the next event. Returns false at end-of-stream — clean or not;
  // consult ok()/diagnostics() to tell. Never throws.
  bool Next(TraceEvent* out);

  const StringPool& pool() const { return pool_; }
  // The container version announced by the stream header (0 when the header
  // was refused).
  uint16_t format_version() const { return format_version_; }
  // Transfers the decoded pool out of the reader (after the stream drains;
  // the reader must not decode further frames afterwards).
  StringPool ReleasePool() { return std::move(pool_); }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  // False once an error-severity diagnostic has been recorded.
  bool ok() const;

 private:
  // Decodes frames until an event frame yields events, the end frame is
  // seen, or the stream fails. Returns true when frame_events_ has data.
  bool LoadFrame();
  bool DecodeEventFrame(std::string_view payload);
  void Fail(DiagCode code, Severity severity, std::string message, std::string hint);

  std::string_view rest_;
  StringPool pool_;
  uint16_t format_version_ = 0;
  std::vector<Diagnostic> diags_;
  bool done_ = false;
  bool saw_end_ = false;
  SimTime prev_ts_ = 0;
  std::vector<TraceEvent> frame_events_;
  size_t frame_pos_ = 0;
};

// --- Incremental stream decoder ---------------------------------------------

// Decodes an RTRC byte stream fed incrementally (a transport delivers bytes
// in arbitrary chunks; the shared FrameReader reassembles frames). Unlike
// TraceReader — which wants the whole artifact up front and stops at the
// first error — the stream decoder is built for an always-on data plane: a
// frame whose CRC or body fails to decode is consumed by its announced
// length and surfaced as kCorrupt, then decoding resynchronizes at the next
// frame boundary. Only a bad magic/version or an absurd length field
// (> kRtrcFormat.max_payload) kills the stream. End-of-stream frames are
// reported but do not stop the decoder: a live stream may append an oracle
// mark after a dump replay's end frame.
class StreamDecoder {
 public:
  enum class Item : uint8_t {
    kNeedMore,    // No complete frame buffered; Feed() more bytes.
    kEvents,      // events() holds the batch decoded from one event frame.
    kEpoch,       // epoch() was updated from a stream-epoch frame.
    kOracleMark,  // oracle() was updated from an oracle-mark frame.
    kEnd,         // An end-of-stream frame was consumed.
    kCorrupt,     // A frame failed CRC/decode and was skipped (resync done).
    kBadStream,   // Unusable stream (magic/version/length); decoder is dead.
  };

  void Feed(std::string_view bytes) { reader_.Feed(bytes); }
  // Consumes buffered frames until something reportable happens. Pool-delta
  // and unknown-kind frames are absorbed silently.
  Item Next();

  const std::vector<TraceEvent>& events() const { return events_; }
  const StreamEpoch& epoch() const { return epoch_; }
  const OracleMark& oracle() const { return oracle_; }
  const StringPool& pool() const { return pool_; }
  uint16_t format_version() const { return reader_.version(); }
  // Bytes fed but not yet consumed (partial frame tail).
  size_t buffered() const { return reader_.buffered(); }
  uint64_t corrupt_frames() const { return corrupt_frames_; }

 private:
  FrameReader reader_{kRtrcFormat};
  StringPool pool_;
  SimTime prev_ts_ = 0;
  std::vector<TraceEvent> events_;
  StreamEpoch epoch_;
  OracleMark oracle_;
  uint64_t corrupt_frames_ = 0;
};

}  // namespace rose

#endif  // SRC_TRACE_TRACE_IO_H_
