// rose::serve — the diagnosis service (DESIGN.md §10).
//
// The paper's workflow ends with a human carrying the dumped window to an
// offline diagnosis machine. DiagnosisService is that machine as a daemon:
// clients stream `kSubmit` frames (bug id, seed, profiling baseline, RTRC
// dump) over a Transport; the service validates the dump up front
// (TraceValidator + container diagnostics), admits it to a bounded
// multi-tenant JobQueue, runs diagnoses on a WorkerPool, streams progress
// frames (level transitions, candidates tried, confirm runs), and finishes
// each job with the confirmed FaultSchedule in byte-exact YAML.
//
// Dedup: jobs are keyed by FNV-mix(canonical trace hash, bug id, seed).
// A key seen before is answered from the ResultCache without a single
// engine run; a key currently queued/running coalesces — the new client is
// subscribed to the in-flight job and both receive the one result.
//
// Threading: Poll() — the only entry point after Attach() — runs on one
// thread and owns every connection, the queue, the cache, and job
// bookkeeping. Worker threads touch exactly one job's `pending_progress` /
// `finished` / `result` fields, under that job's mutex. Determinism: the
// diagnosis itself is deterministic per job (the engine's guarantee), so
// concurrent jobs never affect each other's answers — only the interleaving
// of progress frames across *different* jobs depends on scheduling.
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/parallel.h"
#include "src/diagnose/engine.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/serve/job_queue.h"
#include "src/serve/protocol.h"
#include "src/serve/result_cache.h"
#include "src/serve/stream_ingestor.h"
#include "src/trace/event.h"

namespace rose {

struct BugSpec;

struct ServeConfig {
  // Diagnosis jobs running at once (each on one pool thread; a job may use
  // further internal parallelism via `diagnosis.parallelism`).
  int max_concurrent_jobs = 2;
  // Jobs waiting beyond the running ones; submissions past this bound are
  // rejected with kQueueFull (clients retry with backoff).
  size_t queue_capacity = 8;
  // Directory for persisted confirmed schedules; empty = memory-only cache.
  std::string cache_dir;
  // Per-job diagnosis template. seed/base_seed come from the submission;
  // on_progress is owned by the service.
  DiagnosisConfig diagnosis;

  // --- Streaming ingestion (DESIGN.md §16) -----------------------------------
  // Per-session resident window bound for stream sessions (decoded events +
  // pool payload). Older events drop; drops trigger kThrottle backpressure
  // toward the sender.
  size_t stream_window_bytes = 4u << 20;
};

struct ServeStats {
  uint64_t jobs_submitted = 0;    // Valid submissions (incl. hits/coalesces).
  uint64_t jobs_completed = 0;    // Diagnoses actually executed to completion.
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_invalid = 0;  // Malformed / unknown bug / invalid trace.
  uint64_t corrupt_frames = 0;    // Frames skipped by CRC resynchronization.
  uint64_t engine_runs = 0;       // Total simulated runs spent, all jobs.
};

class DiagnosisService {
 public:
  explicit DiagnosisService(ServeConfig config);
  // Drains in-flight jobs (never abandons a worker mid-run), then shuts down.
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  // Adopts the server end of a connection. The service greets it with the
  // protocol header on the next Poll().
  void Attach(std::shared_ptr<Transport> transport);

  // One pump cycle: read + decode client bytes, admit submissions, drop
  // connections whose client hung up (closing their stream sessions; their
  // jobs run on and fill the cache), start queued jobs while worker slots
  // are free, harvest progress/results from running jobs, flush outgoing
  // bytes. Call until idle() (or forever).
  void Poll();

  // No queued or running work and every outgoing byte accepted by its
  // transport. New submissions can of course arrive later.
  bool idle() const;

  const ServeStats& stats() const { return stats_; }
  size_t queued_jobs() const { return queue_.size(); }
  int running_jobs() const { return running_; }
  // Stream-ingestion footprint: open sessions, current and high-water
  // resident bytes across their usable windows (the multi-client ingest
  // bench asserts the peak stays under sessions x stream_window_bytes).
  size_t stream_sessions() const { return stream_sessions_.size(); }
  size_t stream_resident_bytes() const { return stream_resident_bytes_; }
  size_t stream_peak_resident_bytes() const { return stream_peak_resident_bytes_; }

  // The kStatsReply body: lifetime ServeStats + instantaneous queue/worker
  // state + the process-wide rose::obs registry snapshot. Also what the
  // daemon's periodic one-line summary and --stats-out print.
  StatsMsg BuildStats() const;

  // The cache/dedup key for one submission.
  static uint64_t JobKey(uint64_t trace_hash, std::string_view bug_id, uint64_t seed);

 private:
  struct Job {
    uint64_t id = 0;
    uint64_t key = 0;
    uint64_t seed = 0;
    std::string bug_id;
    std::string tag;
    const BugSpec* spec = nullptr;
    Profile profile;
    // The submission's RTRC blob, decoded once at admission; the envelope
    // and its bytes are gone by the time a worker diagnoses it.
    Trace trace;
    // Connections awaiting this job's result.
    struct Subscriber {
      uint64_t conn_id = 0;
      bool coalesced = false;  // Joined an in-flight identical job.
      // Job id stamped on frames to this subscriber: a stream-admitted
      // diagnosis answers under the session's id (the only id its client
      // knows); 0 = use job.id.
      uint64_t reply_job_id = 0;
    };
    std::vector<Subscriber> subscribers;
    enum class State : uint8_t { kQueued, kRunning, kDone } state = State::kQueued;
    // Admission timestamp (host steady clock) — feeds the serve.job_ns
    // latency histogram at completion; never read by job logic.
    std::chrono::steady_clock::time_point admitted;

    // Worker-shared fields, guarded by `mutex`.
    std::mutex mutex;
    std::deque<DiagnosisProgress> pending_progress;
    bool finished = false;
    DiagnosisResult result;
  };

  // One open stream session: identity from the kStreamOpen, its window and
  // throttle edge state.
  struct StreamSession {
    explicit StreamSession(size_t window_bytes) : window(window_bytes) {}
    uint64_t id = 0;       // Server job id (client-visible).
    uint64_t conn_id = 0;
    std::string bug_id;
    uint64_t seed = 0;
    std::string tag;
    std::string profile_text;
    StreamWindow window;
    uint64_t drops_at_check = 0;  // Window drop count at the last poll.
    bool throttled = false;
  };

  // Dispatches every complete frame; false once the connection is over (the
  // client hung up, or its stream header was refused).
  bool ReadConnection(uint64_t conn_id, ServeConnection& conn);
  // Closes the connection's stream sessions, then the connection itself.
  void DropConnection(uint64_t conn_id);
  // The admission chain shared by kSubmit and stream-oracle admissions:
  // AdmitSubmit (decode + streaming canonical hash) → bug lookup → cache /
  // coalesce / validate / queue. Takes the frame payload by value: the
  // envelope adopts it, so the trace blob is never copied on its way to the
  // hash or the job. `reply_job_id` != 0 means the caller already owns a
  // client-visible id (a stream session): no kAccepted is sent, and every
  // reply — errors, cache-hit result, progress, final result — is stamped
  // with that id. `oracle_at` carries the oracle arrival time so the
  // stream.oracle_to_candidate_ns histogram can be recorded at the first
  // candidate (or immediately, on a cache hit).
  void AdmitSubmission(uint64_t conn_id, std::string payload, uint64_t reply_job_id,
                       std::optional<std::chrono::steady_clock::time_point> oracle_at);
  void HandleStreamOpen(uint64_t conn_id, std::string_view payload);
  void HandleStreamData(uint64_t conn_id, std::string_view payload);
  void HandleStreamClose(uint64_t conn_id, std::string_view payload);
  // Oracle mark latched on a session: materialize its window and admit the
  // blob as a diagnosis under the session's job id.
  void AdmitStreamOracle(StreamSession& session);
  // Transition-edged kThrottle emission: on when a session dropped events
  // since the last poll, off when a poll passes clean. Called from Poll().
  void PollStreamSessions();
  void CloseStreamSessionsFor(uint64_t conn_id);
  // Erases a session whose window is counted in the resident total;
  // returns the next session.
  std::map<uint64_t, StreamSession>::iterator EraseStreamSession(
      std::map<uint64_t, StreamSession>::iterator it);
  // Sets the resident total (and its high-water mark and gauge).
  void SetStreamResident(size_t bytes);
  void StartJobs();
  void HarvestJobs();
  // Records (into stream.oracle_to_candidate_ns) and forgets every stream
  // admission waiting on `job_id`'s first candidate.
  void EndOracleLatency(uint64_t job_id);
  void FlushConnections();

  // Dropped when `conn_id` is gone (its subscriber hung up).
  void SendFrame(uint64_t conn_id, ServeFrame kind, const std::string& payload);
  // `job_id` 0 = pre-admission rejection (FIFO-correlated at the client);
  // nonzero names the job/session the error belongs to.
  void SendError(uint64_t conn_id, ServeError code, const std::string& message,
                 uint64_t job_id = 0);
  // SendError, counted as a rejected_invalid submission.
  void RejectInvalid(uint64_t conn_id, ServeError code, const std::string& message,
                     uint64_t job_id = 0);
  // kProgress to every subscriber of `job`.
  void BroadcastProgress(const Job& job, const ProgressMsg& msg);
  void BroadcastResult(Job& job, const CachedResult& cached);

  ServeConfig config_;
  ServeStats stats_;

  // rose::obs self-metrics (docs/metrics.md "serve.*"), mirroring stats_
  // into the process-wide registry plus latency/queue-depth detail the
  // plain counters cannot express. Write-only for the service logic.
  struct ServeMetrics {
    Counter* submissions;
    Counter* cache_hits;
    Counter* cache_misses;
    Counter* coalesced;
    Counter* rejects_queue_full;
    Counter* rejects_invalid;
    Counter* rejects_causal;  // Subset of rejects_invalid: TB303 traces.
    Counter* corrupt_frames;
    Counter* stats_requests;
    Gauge* queue_depth;
    Histogram* job_ns;
    // rose::stream ("stream.*"): session-level detail; drop and
    // materialize metrics live in StreamWindow.
    Gauge* stream_resident_bytes;
    Counter* stream_sessions_opened;
    Counter* stream_data_frames;
    Counter* stream_bytes_ingested;
    Counter* stream_throttle_events;
    Counter* stream_oracle_marks;
    Histogram* stream_oracle_to_candidate_ns;
  };
  ServeMetrics metrics_;

  ResultCache cache_;
  JobQueue queue_;
  std::map<uint64_t, StreamSession> stream_sessions_;
  size_t stream_resident_bytes_ = 0;
  size_t stream_peak_resident_bytes_ = 0;
  // Stream admissions awaiting their first candidate: job id -> oracle
  // arrival timestamp (multimap: coalescing can attach several sessions to
  // one job). Resolved — and recorded into stream.oracle_to_candidate_ns — at
  // the first kCandidate progress, or at completion as a fallback.
  std::multimap<uint64_t, std::chrono::steady_clock::time_point> stream_oracle_pending_;
  std::map<uint64_t, ServeConnection> connections_;
  std::map<uint64_t, std::unique_ptr<Job>> jobs_;
  // In-flight dedup: key -> job id for every job not yet completed.
  std::map<uint64_t, uint64_t> inflight_by_key_;
  uint64_t next_connection_id_ = 1;
  uint64_t next_job_id_ = 1;
  int running_ = 0;
  // Destroyed first (reverse member order): joins workers while jobs_ and
  // the rest of the service are still alive.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace rose

#endif  // SRC_SERVE_SERVICE_H_
