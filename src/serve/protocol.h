// rose::serve wire protocol (DESIGN.md §10).
//
// Both directions of a serve connection carry the same byte grammar, the
// shared framing of src/common/framing.h (LEB128 varints, CRC32,
// length-prefixed frames) that RTRC and RJNL use too:
//
//   stream:  'R' 'S' 'R' 'V' | u16 version (LE) | u16 reserved | frame*
//   frame:   u8 kind | u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//
// Client -> server frames:
//   kSubmit    — one diagnosis job: bug id, seed, profile baseline, RTRC
//                trace blob. The server answers every kSubmit, in order,
//                with exactly one kAccepted or kError frame (responses to
//                *submissions* are FIFO; kProgress/kResult frames for
//                accepted jobs interleave freely and carry the job id).
//
// Server -> client frames:
//   kAccepted  — job admitted: server job id + disposition (queued /
//                cache hit / coalesced onto an identical in-flight job).
//   kProgress  — job state change: queued->running, diagnosis level
//                transitions, candidate schedules tried, confirm runs.
//   kResult    — terminal frame for a job: the confirmed FaultSchedule in
//                canonical YAML plus the Table-1 counters.
//   kError     — submission rejected (typed code) or connection-level fault.
//
// Versioning rules: the u16 stream version is bumped on any incompatible
// change; a receiver rejects version 0 and newer versions (kVersionMismatch)
// and never guesses. Unknown *frame kinds* within a known version are skipped (their
// length is self-describing), so compatible extensions stay possible.
// Corrupt frames (CRC mismatch) are skipped the same way — framing makes
// resynchronization exact, which is what lets a server drop one bad
// submission and keep serving the connection.
#ifndef SRC_SERVE_PROTOCOL_H_
#define SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/framing.h"
#include "src/net/transport.h"
#include "src/profile/profiler.h"

namespace rose {

inline constexpr uint16_t kServeProtocolVersion = 1;
// A submit frame embeds a whole trace dump; a length beyond 256 MiB is a
// malformed length field, not a plausible payload.
inline constexpr FrameFormat kServeFormat = {{'R', 'S', 'R', 'V'}, kServeProtocolVersion,
                                             256u * 1024u * 1024u};

enum class ServeFrame : uint8_t {
  kSubmit = 1,
  kStatsRequest = 2,  // Empty payload; answered with exactly one kStatsReply.
  // Streaming ingestion (DESIGN.md §16) — additive within version 1, like
  // kStatsReply below. kStreamOpen enters the same FIFO accept correlation
  // as kSubmit (one kAccepted with AcceptKind::kStream, or one kError);
  // kStreamData/kStreamClose carry the accepted session's job id.
  kStreamOpen = 3,
  kStreamData = 4,
  kStreamClose = 5,
  // 6..15 reserved for future client->server frames.
  kAccepted = 16,
  kProgress = 17,
  kResult = 18,
  kError = 19,
  // An *additive* extension within version 1: servers predating it skip the
  // unknown kind (framing is self-describing), so no version bump is needed.
  kStatsReply = 20,
  // Server -> client backpressure for a stream session: on=true asks the
  // sender to pause pushing kStreamData until a matching on=false arrives.
  kThrottle = 21,
};

// Typed rejection codes carried by kError frames.
enum class ServeError : uint8_t {
  kNone = 0,
  kQueueFull = 1,       // Bounded job queue at capacity; retry with backoff.
  kInvalidTrace = 2,    // Trace failed validation (or decoded to nothing).
  kUnknownBug = 3,      // bug_id not in this server's registry.
  kBadFrame = 4,        // Frame skipped: CRC mismatch or undecodable payload.
  kVersionMismatch = 5, // Peer speaks a newer protocol version.
  kMalformedRequest = 6,// Frame decoded but fields are out of range.
  // Client-side terminal states, never sent by a server. Every queue-full
  // retry was consumed (ServeClientConfig::max_retries) and the job gave up:
  kRetriesExhausted = 7,
  // The server hung up before the job resolved:
  kConnectionLost = 8,
};

std::string_view ServeErrorName(ServeError error);

// How an accepted submission will be served.
enum class AcceptKind : uint8_t {
  kQueued = 0,     // New job, waiting for a worker slot.
  kCacheHit = 1,   // Result served from the canonical-hash cache; no runs.
  kCoalesced = 2,  // Attached to an identical queued/running job.
  kStream = 3,     // A stream session opened; job id names the session.
};

// --- Message bodies ---------------------------------------------------------

// Zero-copy view of a kSubmit payload (bug id, seed, client tag, profile
// text, RTRC trace blob, optional token): owns the raw frame payload (moved
// in, not copied) and exposes the fields as views into it, so the embedded
// RTRC blob is never parsed into an owning Trace just to compute a cache
// key — the blob is hashed in place (CanonicalBlobHash) and, on a cache
// miss, decoded in place by Trace::ParseBinary. Fields are stored as
// offsets, not string_views, so moving the envelope (SSO buffers relocate)
// stays safe.
class SubmitEnvelope {
 public:
  std::string_view bug_id() const { return Field(bug_id_off_, bug_id_len_); }
  std::string_view tag() const { return Field(tag_off_, tag_len_); }
  // The adopted frame payload, verbatim. The cluster router forwards these
  // bytes to the owner shard unchanged (and journals them for re-dispatch),
  // so the blob is never decoded or re-encoded on its way through.
  std::string_view payload() const { return payload_; }
  std::string_view profile_text() const { return Field(profile_off_, profile_len_); }
  std::string_view trace_blob() const { return Field(trace_off_, trace_len_); }
  uint64_t seed() const { return seed_; }
  // Client-chosen idempotency token (0 = none; pre-token clients). Echoed in
  // the kAccepted frame so a client that resent after a suspected loss can
  // correlate — and discard — a duplicate accept instead of mis-attributing
  // it to the next submission in FIFO order.
  uint64_t token() const { return token_; }
  const Profile& profile() const { return profile_; }

 private:
  friend bool DecodeSubmitEnvelope(std::string payload, SubmitEnvelope* out);

  std::string_view Field(size_t off, size_t len) const {
    return std::string_view(payload_).substr(off, len);
  }

  std::string payload_;
  size_t bug_id_off_ = 0, bug_id_len_ = 0;
  size_t tag_off_ = 0, tag_len_ = 0;
  size_t profile_off_ = 0, profile_len_ = 0;
  size_t trace_off_ = 0, trace_len_ = 0;
  uint64_t seed_ = 42;
  uint64_t token_ = 0;
  Profile profile_;
};

struct AcceptedMsg {
  uint64_t job_id = 0;
  AcceptKind kind = AcceptKind::kQueued;
  uint64_t queue_depth = 0;  // Jobs ahead of this one (queued disposition).
  // Echo of the submission's idempotency token (0 when the client sent
  // none). Encoded as an optional trailing varint: pre-token decoders
  // ignore trailing bytes, so the extension is additive within version 1.
  uint64_t token = 0;
};

// --- Streaming ingestion messages (DESIGN.md §16) ----------------------------

// kStreamOpen payload: everything a kSubmit carries except the trace blob,
// which follows incrementally as kStreamData chunks.
struct StreamOpenMsg {
  std::string bug_id;
  uint64_t seed = 42;
  std::string tag;
  std::string profile_text;   // SerializeProfile() form.
  uint64_t token = 0;         // Idempotency token, echoed in kAccepted.
};

// kStreamClose payload. Closing a session discards its window (a session
// whose oracle already fired keeps its admitted diagnosis job running).
struct StreamCloseMsg {
  uint64_t job_id = 0;
};

// kThrottle payload (server -> client).
struct ThrottleMsg {
  uint64_t job_id = 0;
  bool on = false;
  uint64_t resident_bytes = 0;  // Session window occupancy at send time.
};

// Job lifecycle milestones streamed while a diagnosis runs.
enum class ProgressKind : uint8_t {
  kRunning = 0,     // Dequeued: a worker picked the job up.
  kLevelStart = 1,  // Diagnosis entered level `level`.
  kCandidate = 2,   // One candidate schedule executed.
  kConfirm = 3,     // One confirmBug rerun consumed.
};

struct ProgressMsg {
  uint64_t job_id = 0;
  ProgressKind kind = ProgressKind::kRunning;
  uint32_t level = 0;
  uint32_t schedules = 0;
  uint32_t runs = 0;
  uint32_t rate_permille = 0;
  std::string detail;

  std::string ToString() const;
};

struct ResultMsg {
  uint64_t job_id = 0;
  bool reproduced = false;
  bool cached = false;
  bool coalesced = false;
  uint32_t rate_permille = 0;   // Replay rate, per-mille (60% -> 600).
  uint32_t level = 0;
  uint32_t schedules = 0;
  uint32_t runs = 0;
  std::string schedule_yaml;    // FaultSchedule::ToYaml(), byte-exact.
  std::string fault_summary;
};

struct ErrorMsg {
  uint64_t job_id = 0;  // 0 = responds to the oldest unanswered submission.
  ServeError code = ServeError::kNone;
  std::string message;
};

// Server self-metrics answered to a kStatsRequest: the daemon's lifetime
// ServeStats counters, the instantaneous queue/worker state, and the full
// rose::obs registry snapshot in its YAML form (docs/metrics.md).
struct StatsMsg {
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_invalid = 0;
  uint64_t corrupt_frames = 0;
  uint64_t engine_runs = 0;
  uint64_t queued_jobs = 0;
  uint64_t running_jobs = 0;
  std::string metrics_yaml;  // MetricsSnapshot::ToYaml() ("# rose-obs v1").

  std::string ToString() const;  // One summary line (daemon heartbeat form).
};

// --- Encoding ---------------------------------------------------------------

void AppendServeHeader(std::string* out);
// Appends one `kind` frame wrapping `payload` (length + CRC32 computed here).
void AppendServeFrame(std::string* out, ServeFrame kind, std::string_view payload);

// The kSubmit payload. Wraps an already-serialized RTRC blob (the bytes of
// a mapped dump file, or Trace::SerializeBinary()) without re-encoding it;
// the canonical hash is encoding-independent, so two encodings of one
// window dedup to the same cache key.
std::string EncodeSubmitBlob(std::string_view bug_id, uint64_t seed, std::string_view tag,
                             std::string_view profile_text, std::string_view trace_blob,
                             uint64_t token = 0);
std::string EncodeAccepted(const AcceptedMsg& msg);
std::string EncodeStreamOpen(const StreamOpenMsg& msg);
// kStreamData payload: varint session job id, then the raw RTRC stream
// bytes verbatim (no inner length prefix — the frame bounds the chunk).
std::string EncodeStreamData(uint64_t job_id, std::string_view chunk);
std::string EncodeStreamClose(const StreamCloseMsg& msg);
std::string EncodeThrottle(const ThrottleMsg& msg);
std::string EncodeProgress(const ProgressMsg& msg);
std::string EncodeResult(const ResultMsg& msg);
std::string EncodeError(const ErrorMsg& msg);
std::string EncodeStats(const StatsMsg& msg);

// Payload decoders; false on malformed input (missing fields / overrun).
// The kSubmit decoder is zero-copy: it adopts `payload` (move the
// DecodedFrame's payload in) and records field offsets without parsing the
// trace blob at all — only the profile is parsed (ParseProfile) and checked.
// Trace-container damage surfaces later, from whoever consumes trace_blob().
bool DecodeSubmitEnvelope(std::string payload, SubmitEnvelope* out);
// Container-level admission of a kSubmit payload, shared by the daemon and
// the router: decodes the envelope (adopting `payload`) and hashes its RTRC
// blob in one streaming pass (CanonicalBlobHash, the cache and ring key).
// Refuses a payload that does not decode (kMalformedRequest), a damaged
// container or one with zero events (kInvalidTrace), with the kError
// message in `*why`; kNone admits.
ServeError AdmitSubmit(std::string payload, SubmitEnvelope* env, uint64_t* trace_hash,
                       std::string* why);
bool DecodeAccepted(std::string_view payload, AcceptedMsg* out);
bool DecodeStreamOpen(std::string_view payload, StreamOpenMsg* out);
// `*chunk` views into `payload`; the caller keeps the payload alive while
// feeding the chunk onward (zero-copy into the ingestor).
bool DecodeStreamData(std::string_view payload, uint64_t* job_id, std::string_view* chunk);
bool DecodeStreamClose(std::string_view payload, StreamCloseMsg* out);
bool DecodeThrottle(std::string_view payload, ThrottleMsg* out);
bool DecodeProgress(std::string_view payload, ProgressMsg* out);
bool DecodeResult(std::string_view payload, ResultMsg* out);
bool DecodeError(std::string_view payload, ErrorMsg* out);
bool DecodeStats(std::string_view payload, StatsMsg* out);

// --- Incremental frame decoding ---------------------------------------------

struct DecodedFrame {
  ServeFrame kind = ServeFrame::kSubmit;
  std::string payload;
};

// Reassembles frames from an arbitrarily-chunked byte stream (transports
// deliver short reads; a submit frame can arrive over hundreds of Feed()
// calls) with the shared FrameReader bound to kServeFormat. The header is
// validated first, then frames come out one at a time; corrupt frames are
// skipped with exact resynchronization.
class FrameDecoder {
 public:
  enum class Status : uint8_t {
    kNeedMore = 0,   // No complete frame buffered yet.
    kFrame,          // `out` holds the next frame.
    kCorruptFrame,   // A frame failed its CRC and was skipped; stream continues.
    kBadStream,      // Bad header or length; the connection is dead.
  };

  void Feed(std::string_view bytes) { reader_.Feed(bytes); }

  // Pulls the next frame out of the buffer (copying its payload into `out`).
  // Call until kNeedMore.
  Status Next(DecodedFrame* out);

  bool dead() const { return reader_.dead(); }
  // Bytes buffered but not yet consumed (reassembly backlog).
  size_t buffered() const { return reader_.buffered(); }

 private:
  FrameReader reader_{kServeFormat};
};

// --- Connections ---------------------------------------------------------------

// One end of a serve connection (DESIGN.md §10): a transport, the decoder
// for what arrives and the outbox for what leaves, greeted with the RSRV
// header on construction. The daemon's connections, the router's client and
// shard links and ServeClient each hold one; each keeps its own frame
// dispatch, and this type owns only how bytes enter and leave an endpoint
// and when its peer is gone. It is the one transport seam of the serve
// plane.
class ServeConnection {
 public:
  explicit ServeConnection(std::shared_ptr<Transport> transport);

  // Queues one frame; dropped once the connection is closed.
  void Send(ServeFrame kind, std::string_view payload);
  // The next inbound frame. Everything the transport holds is read, in
  // kTransportReadSize chunks, before kNeedMore is reported.
  FrameDecoder::Status Next(DecodedFrame* out);
  // Writes as much of the outbox as the transport accepts.
  void Flush();
  // Flushes what fits, then half-closes: nothing is sent afterwards.
  void Close();

  bool closed() const { return closed_; }
  // The peer closed its side and its last byte was read (Next() returned
  // kNeedMore since). A crash and a clean hang-up look the same.
  bool hung_up() const { return transport_->AtEof(); }
  // Nothing left to send: every queued byte was written, or the connection
  // is closed.
  bool flushed() const { return closed_ || outbox_.empty(); }

 private:
  std::shared_ptr<Transport> transport_;
  FrameDecoder decoder_;
  Outbox outbox_;
  bool closed_ = false;
};

// --- Profile baseline serialization ------------------------------------------

// Deterministic text form of a Profile ("rose-profile v1" header; one fact
// per line, ordered). Carried inside kSubmit and written next to saved dumps.
std::string SerializeProfile(const Profile& profile);
bool ParseProfile(std::string_view text, Profile* out);

}  // namespace rose

#endif  // SRC_SERVE_PROTOCOL_H_
