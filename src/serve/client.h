// Client half of the serve protocol (DESIGN.md §10).
//
// A ServeClient owns one connection to a DiagnosisService (or a router).
// SubmitBlob() encodes a diagnosis job and queues its bytes; Poll() moves
// data both ways — it drains the outbox into the transport (handling the
// short writes a bounded wire produces), reassembles inbound frames, and
// advances each job's state machine:
//
//     pending-send -> awaiting-accept -> accepted -> done | failed
//                          ^                  (progress streams in between)
//                          '--- queue-full rejection re-queues the submit
//                               after an exponential backoff (Poll rounds)
//
// The server answers submissions in FIFO order, so the client correlates
// kAccepted/kError frames with the oldest in-flight submission; kProgress /
// kResult frames carry the server-assigned job id. A server that hangs up
// fails every unresolved handle with kConnectionLost; a server frame that
// fails its CRC fails them with kBadFrame, since the lost frame may have been
// a job's only answer.
#ifndef SRC_SERVE_CLIENT_H_
#define SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/serve/protocol.h"

namespace rose {

struct ServeClientConfig {
  // Queue-full handling: resubmit after backoff_base << attempt Poll rounds
  // (plus jitter, capped at max_backoff_rounds), up to max_retries; then the
  // job fails with ServeError::kRetriesExhausted.
  bool auto_retry_queue_full = true;
  int max_retries = 8;
  int backoff_base_rounds = 1;
  // Ceiling on any single wait — exponential growth stops doubling here, so
  // a deep retry never strands a job for thousands of rounds.
  int max_backoff_rounds = 64;
  // Seed for deterministic retry jitter. Each wait gains up to half its
  // length again, mixed from (seed, handle, attempt) — so a thundering herd
  // of clients hitting one queue-full server desynchronizes, yet any given
  // (seed, submission order) replays the exact same backoff schedule. No
  // wall-clock or global RNG is involved (the determinism lint's rule).
  uint64_t backoff_jitter_seed = 0;
};

// Terminal state of one submitted job.
struct ServeJobResult {
  bool reproduced = false;
  bool cached = false;
  bool coalesced = false;
  double replay_rate = 0;  // Percent.
  int level = 0;
  int schedules = 0;
  int runs = 0;
  std::string schedule_yaml;
  std::string fault_summary;
};

class ServeClient {
 public:
  explicit ServeClient(std::shared_ptr<Transport> transport,
                       ServeClientConfig config = {});

  // Queues one submission of an already-serialized RTRC blob (a mapped dump
  // file's bytes, or Trace::SerializeBinary()) and the profile's
  // SerializeProfile() text; returns a client-side handle. All views are
  // copied into the frame immediately (no lifetime obligations).
  // Every submission carries an idempotency token derived from the blob's
  // canonical hash: if a suspected-lost submit is resent and the original
  // actually registered, the duplicate kAccepted is recognized by token and
  // dropped instead of being mis-attributed to the next FIFO submission.
  uint64_t SubmitBlob(std::string_view bug_id, uint64_t seed, std::string_view tag,
                      std::string_view profile_text, std::string_view trace_blob);

  // --- Streaming ingestion (DESIGN.md §16) -----------------------------------
  // Opens a stream session: the kStreamOpen enters the same FIFO accept
  // correlation as submits; once accepted (AcceptKind::kStream), StreamData
  // bytes flow under the session's server job id. Data handed over before
  // the accept arrives is staged client-side and flushed on acceptance.
  uint64_t OpenStream(std::string_view bug_id, uint64_t seed, std::string_view tag,
                      std::string_view profile_text);
  // Queues raw RTRC stream bytes for the session. The sink is expected to
  // honor stream_throttled() and pause pumping; bytes handed here are always
  // forwarded (the oracle flush must go through even under throttle).
  void StreamData(uint64_t handle, std::string_view bytes);
  void CloseStream(uint64_t handle);
  bool stream_accepted(uint64_t handle) const;
  // True between a kThrottle(on) and the matching kThrottle(off).
  bool stream_throttled(uint64_t handle) const;
  // kThrottle(on) frames received over the connection's lifetime.
  uint64_t throttle_events() const { return throttle_events_; }

  // Queues a kStatsRequest. The server answers with one kStatsReply;
  // stats_available() turns true and stats() holds the latest snapshot.
  void RequestStats();
  bool stats_available() const { return stats_received_ > 0; }
  // kStatsReply frames received over the connection's lifetime.
  uint64_t stats_received() const { return stats_received_; }
  const StatsMsg& stats() const { return latest_stats_; }

  // One pump cycle; call interleaved with the service's Poll().
  void Poll();

  // --- Per-handle observation -------------------------------------------------
  bool done(uint64_t handle) const;      // Result or failure reached.
  bool failed(uint64_t handle) const;
  // Typed error for a failed handle (kNone otherwise).
  ServeError error_code(uint64_t handle) const;
  const std::string& error_message(uint64_t handle) const;
  const ServeJobResult& result(uint64_t handle) const;
  // Disposition from the kAccepted frame (valid once accepted).
  AcceptKind accept_kind(uint64_t handle) const;
  // Drains the progress lines received for `handle` since the last call.
  std::vector<ProgressMsg> TakeProgress(uint64_t handle);

  bool all_done() const;
  // Queue-full retries performed so far (across all handles).
  int retries_performed() const { return retries_performed_; }
  // True once the server stream turned out to be unusable (bad header or a
  // damaged frame) or the server hung up.
  bool broken() const { return broken_ != ServeError::kNone; }

 private:
  enum class JobState : uint8_t {
    kBackoff,         // Waiting `backoff_left` rounds before (re)sending.
    kAwaitingAccept,  // Bytes queued/sent; no kAccepted/kError yet.
    kAccepted,        // Server job id known; awaiting result.
    kDone,
    kFailed,
  };

  struct PendingJob {
    uint64_t handle = 0;
    JobState state = JobState::kAwaitingAccept;
    std::string encoded;  // Submit payload, kept for retries.
    int attempts = 0;
    int backoff_left = 0;
    uint64_t server_job_id = 0;
    AcceptKind accept_kind = AcceptKind::kQueued;
    ServeError error = ServeError::kNone;
    std::string error_message;
    ServeJobResult result;
    std::vector<ProgressMsg> progress;
    // Idempotency token carried in the submit/stream-open payload (never 0);
    // the server's kAccepted echoes it.
    uint64_t token = 0;
    bool is_stream = false;
    bool throttled = false;
    bool close_requested = false;   // CloseStream before the accept arrived.
    std::string stream_staged;      // Data queued before the accept arrived.
  };

  void HandleFrame(const DecodedFrame& frame);
  void HandleAccepted(const AcceptedMsg& msg);
  // Marks the connection unusable, closes it and fails every unresolved
  // handle with `code`.
  void Break(ServeError code, std::string message);
  void FailUnresolved();
  // Rounds to wait before retry `job.attempts`: exponential base, capped,
  // plus deterministic jitter mixed from (jitter seed, handle, attempt).
  int BackoffRounds(const PendingJob& job) const;
  PendingJob* OldestAwaitingAccept();
  PendingJob* ByServerJobId(uint64_t job_id);
  const PendingJob& Get(uint64_t handle) const;

  ServeConnection link_;
  ServeClientConfig config_;
  std::map<uint64_t, PendingJob> jobs_;
  // Handles in JobState::kBackoff, in handle order (Poll walks only these).
  std::set<uint64_t> backoff_;
  // Submission order on the wire — the server's response order.
  std::deque<uint64_t> accept_fifo_;
  uint64_t next_handle_ = 1;
  int retries_performed_ = 0;
  uint64_t throttle_events_ = 0;
  // Why the connection is unusable (kNone while it works).
  ServeError broken_ = ServeError::kNone;
  std::string broken_message_;
  uint64_t stats_received_ = 0;
  StatsMsg latest_stats_;
};

}  // namespace rose

#endif  // SRC_SERVE_CLIENT_H_
