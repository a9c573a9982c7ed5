// rose::cluster — the serve cluster's router/coordinator (DESIGN.md §15).
//
// A single rose_served daemon is one JobQueue, one ResultCache, one process
// ceiling on jobs/sec. ClusterRouter scales the same service horizontally:
// it speaks the serve wire protocol unchanged to clients, shards every
// submission by its canonical trace hash onto a consistent-hash ring of
// `rose_served` backends, forwards the submit payload verbatim (the RTRC
// blob is never decoded or re-encoded in transit), and streams each
// backend's kAccepted/kProgress/kResult frames back with job ids rewritten
// into the router's namespace. Clients need no changes — a ServeClient
// cannot tell a router from a daemon.
//
// Placement by trace hash means a resubmitted dump always lands on the
// shard whose ResultCache already holds its answer, so clustered cache hits
// are byte-identical to single-daemon ones (hash-owner forwarding).
//
// Every consequential decision — ring epochs, dispatches (with the full
// submit payload), completions — goes through the coordinator journal
// *before* it takes effect. When a shard dies mid-job (transport EOF or an
// explicit DetachShard), its in-flight jobs are re-posed from those records
// to the ring successor; the diagnosis engine is deterministic, so the
// re-run result is byte-identical to what the dead shard would have
// produced. A restarted router replays the journal and re-dispatches
// whatever never completed.
//
// Response ordering: the serve protocol answers submissions FIFO per
// connection. Submissions from one client fan out to different shards whose
// answers race, so the router holds each admission response until every
// earlier submission of that client has been answered — per-client FIFO is
// preserved end to end. Progress/result frames for a job are buffered until
// its admission response has been flushed (clients discard frames for jobs
// they have not seen accepted).
//
// Threading: like DiagnosisService, Poll() is the only entry point and runs
// on one thread; the backends do their own worker-pool threading behind
// their transports.
#ifndef SRC_CLUSTER_ROUTER_H_
#define SRC_CLUSTER_ROUTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/hash_ring.h"
#include "src/cluster/journal.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/serve/protocol.h"

namespace rose {

struct RouterConfig {
  // Coordinator journal file; empty = in-memory only (no durability, but
  // failover re-dispatch still works from the mirrored in-process state).
  std::string journal_path;
};

struct ClusterStats {
  uint64_t jobs_routed = 0;     // Submissions dispatched to a shard.
  uint64_t completions = 0;     // kResult frames harvested from shards.
  uint64_t failovers = 0;       // Shard deaths observed.
  uint64_t redispatches = 0;    // Jobs re-posed to a ring successor.
  uint64_t recovered_jobs = 0;  // Journal-replayed pending jobs readopted.
  uint64_t rejected_invalid = 0;
  uint64_t corrupt_frames = 0;
};

class ClusterRouter {
 public:
  explicit ClusterRouter(RouterConfig config = {});

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  // Adopts the server end of a client connection (greeted on next Poll()).
  void AttachClient(std::shared_ptr<Transport> transport);

  // Adds a backend to the ring under `name` and journals the new epoch.
  // `transport` is the client end of a connection whose peer a
  // DiagnosisService has Attach()ed. Stranded jobs (no shard was alive when
  // they were admitted or recovered) are dispatched to the ring owner.
  void AttachShard(const std::string& name, std::shared_ptr<Transport> transport);

  // Treats `name` as dead right now: drops it from the ring, journals the
  // epoch, and re-dispatches its in-flight jobs to the ring successor. The
  // same path runs automatically when a shard's transport reaches EOF.
  void DetachShard(const std::string& name);

  // One pump cycle: read clients, admit + dispatch, read shards, harvest
  // and forward responses, detect dead shards and hung-up clients (whose
  // stream sessions are closed at their shards), flush every outbox, pump
  // journal replication.
  void Poll();

  // No in-flight jobs and every outgoing byte accepted by its transport.
  bool idle() const;

  const ClusterStats& stats() const { return stats_; }
  const HashRing& ring() const { return ring_; }
  ClusterJournal& journal() { return journal_; }
  size_t inflight_jobs() const { return jobs_.size(); }

  // Replicate the coordinator journal to a follower over `transport`
  // (history first, then every new append; pumped by Poll()).
  void AttachJournalFollower(std::shared_ptr<Transport> transport) {
    journal_.AttachFollower(std::move(transport));
  }

  // The kStatsReply body a client's RequestStats() receives: cluster-level
  // counters in the ServeStats slots plus the process-wide obs snapshot.
  StatsMsg BuildStats() const;

 private:
  struct ClientConn {
    explicit ClientConn(std::shared_ptr<Transport> transport) : link(std::move(transport)) {}
    uint64_t id = 0;
    ServeConnection link;  // Closed once the client hung up (or was refused).
    // Router job ids in submission order — the FIFO the admission responses
    // must be flushed in.
    std::deque<uint64_t> accept_fifo;
  };

  struct Shard {
    explicit Shard(std::shared_ptr<Transport> transport) : link(std::move(transport)) {}
    std::string name;
    ServeConnection link;
    // Router job ids in dispatch order — correlates the backend's FIFO
    // admission responses.
    std::deque<uint64_t> accept_fifo;
    // Backend job id -> router job id for kProgress/kResult correlation.
    std::map<uint64_t, uint64_t> by_backend_id;
    size_t inflight = 0;
  };

  struct RouterJob {
    uint64_t id = 0;
    uint64_t client = 0;  // 0 = no subscriber (recovered / client gone).
    uint64_t key = 0;
    uint64_t trace_hash = 0;
    std::string payload;  // Verbatim submit payload (kept for re-dispatch).
    std::string shard;    // Current owner ("" = stranded, awaiting a shard).
    uint64_t backend_job_id = 0;
    // Stream session (kStreamOpen) instead of a one-shot submit: data/close
    // frames route through the id mapping, the session outlives its results
    // (a window can fire several oracles), and failover cannot re-pose it —
    // the dead shard's window bytes are gone, so the session errors out.
    // Stream sessions are never journaled (documented open follow-up in
    // docs/wire_protocol.md).
    bool is_stream = false;
    bool redispatched = false;
    // Admission response state: ready = received (or router-local reject),
    // sent = flushed to the client in FIFO turn.
    bool accept_ready = false;
    bool accept_sent = false;
    bool terminal = false;  // The ready response (or result) ends the job.
    ServeFrame response_kind = ServeFrame::kAccepted;
    std::string response_payload;
    // Progress/result frames received before the admission response was
    // flushed (clients ignore frames for jobs not yet accepted).
    std::vector<std::pair<ServeFrame, std::string>> deferred;
    bool result_seen = false;
  };

  void ReadClient(ClientConn& conn);
  void HandleSubmit(ClientConn& conn, std::string payload);
  // Stream forwarding: opens shard by FNV(bug id, seed, token) — the trace
  // hash does not exist yet at open time — then data/close frames follow the
  // session's id mapping with the varint job-id prefix rewritten in place.
  void HandleStreamOpen(ClientConn& conn, std::string_view payload);
  void HandleStreamData(ClientConn& conn, std::string_view payload);
  void HandleStreamClose(ClientConn& conn, std::string_view payload);
  // Sends kStreamClose to the session's shard (once it accepted) and
  // finishes the job.
  void EndStream(RouterJob& job);
  // Closes the link and ends the client's accepted stream sessions.
  void OnClientHungUp(ClientConn& conn);
  // Queues a router-local rejection in the client's FIFO turn.
  void RejectSubmit(ClientConn& conn, ServeError code, const std::string& message);
  void ReadShard(Shard& shard);
  void HandleShardFrame(Shard& shard, DecodedFrame frame);
  // Appends the job's submit frame to `shard`'s outbox and bookkeeps.
  void DispatchTo(RouterJob& job, Shard& shard);
  void OnShardDead(const std::string& name);
  // Dispatches jobs with no owner to the current ring owner (after a shard
  // attaches, or when failover left the ring empty).
  void DispatchStranded();
  // Flushes ready admission responses (and their deferred frames) in FIFO
  // order; erases finished jobs.
  void FlushClientFifo(ClientConn& conn);
  void FinishJob(uint64_t job_id);
  void FlushOutboxes();
  void UpdateDepthGauges();
  bool ClientConnected(uint64_t client_id) const;
  void SendToClient(uint64_t client_id, ServeFrame kind, const std::string& payload);

  RouterConfig config_;
  ClusterStats stats_;

  struct ClusterMetrics {
    Counter* jobs_routed;
    Counter* completions;
    Counter* failovers;
    Counter* redispatches;
    Counter* recovered_jobs;
    Counter* rejects_invalid;
    Counter* corrupt_frames;
    Gauge* journal_appends;
    Gauge* journal_fsyncs;
    Gauge* journal_bytes;
    Gauge* ring_imbalance;
  };
  ClusterMetrics metrics_;

  ClusterJournal journal_;
  HashRing ring_;
  std::map<uint64_t, std::unique_ptr<ClientConn>> clients_;
  std::map<std::string, std::unique_ptr<Shard>> shards_;
  std::map<uint64_t, std::unique_ptr<RouterJob>> jobs_;
  uint64_t next_client_id_ = 1;
  uint64_t next_job_id_ = 1;
};

}  // namespace rose

#endif  // SRC_CLUSTER_ROUTER_H_
