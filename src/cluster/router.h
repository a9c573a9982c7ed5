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
// *before* it takes effect. When a shard dies mid-job (transport EOF, a
// damaged frame, or an explicit DetachShard), its in-flight jobs are
// re-posed from those records to the ring successor; the diagnosis engine is
// deterministic, so the re-run result is byte-identical to what the dead
// shard would have produced. A restarted router replays the journal and
// re-dispatches whatever never completed.
//
// One owner per fact: each client connection owns the replies it is owed,
// the journal's pending dispatch records own every submit (key, trace hash,
// payload), and a RouterJob owns only the mapping between the client's id
// for a job and its shard's.
//
// Response ordering: the serve protocol answers requests FIFO per
// connection. Submissions from one client fan out to different shards whose
// answers race, so each client keeps a queue with one entry per request
// (submit, stream open or router-local rejection). An entry holds its job's
// frames while an earlier request is unanswered — clients discard frames
// for jobs they have not seen accepted — and flushes once it reaches the
// front, so per-client FIFO is preserved end to end.
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
  // Replica link for the journal (the leader end of a connection to a
  // JournalFollower), or null. Sent the whole journal, then every append.
  std::shared_ptr<Transport> journal_follower;
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
  // same path runs automatically when a shard's transport reaches EOF or one
  // of its frames fails its CRC (it may have been a job's only answer).
  void DetachShard(const std::string& name);

  // One pump cycle: read clients, admit + dispatch, drop clients that hung
  // up or were refused (their stream sessions close at their shards), read
  // shards, harvest and forward responses, fail over dead shards, flush
  // every outbox, pump journal replication.
  void Poll();

  // No in-flight jobs and every outgoing byte accepted by its transport.
  bool idle() const;

  const ClusterStats& stats() const { return stats_; }
  const HashRing& ring() const { return ring_; }
  ClusterJournal& journal() { return journal_; }
  size_t inflight_jobs() const { return jobs_.size(); }

  // The kStatsReply body a client's RequestStats() receives: cluster-level
  // counters in the ServeStats slots plus the process-wide obs snapshot.
  StatsMsg BuildStats() const;

 private:
  struct ClientConn {
    explicit ClientConn(std::shared_ptr<Transport> transport) : link(std::move(transport)) {}
    // One request's admission reply and the frames that follow it. The first
    // frame handed to an entry is always its answer (an accept or a
    // rejection), so an entry with frames is answered.
    struct Reply {
      uint64_t job = 0;  // Router job id; 0 for a router-local rejection.
      std::vector<std::pair<ServeFrame, std::string>> frames;
    };
    uint64_t id = 0;
    ServeConnection link;
    // In request order; the front entry flushes as soon as it is answered.
    std::deque<Reply> replies;
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
    Gauge* depth = nullptr;  // cluster.shard_depth.<name>
  };

  // A submit or stream session between admission and its terminal frame.
  // A submit's key, trace hash and payload live in its journal dispatch
  // record (journal_.pending()), which every (re-)dispatch reads.
  struct RouterJob {
    uint64_t id = 0;
    uint64_t client = 0;  // 0 = no subscriber (recovered from the journal).
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
    // The client's admission reply (accept or rejection) was handed over:
    // later frames name the job, and a re-posed job's second accept is
    // swallowed.
    bool answered = false;
  };

  void ReadClient(ClientConn& conn);
  void HandleSubmit(ClientConn& conn, std::string payload);
  // Stream forwarding: opens shard by FNV(bug id, seed, token) — the trace
  // hash does not exist yet at open time — then data/close frames follow the
  // session's id mapping with the varint job-id prefix rewritten in place.
  void HandleStreamOpen(ClientConn& conn, std::string_view payload);
  void HandleStreamData(ClientConn& conn, std::string_view payload);
  void HandleStreamClose(ClientConn& conn, std::string_view payload);
  // A job for `conn`'s next request, with its entry in the reply queue.
  RouterJob& AdmitJob(ClientConn& conn, bool is_stream);
  // Sends kStreamClose to the session's shard (once it accepted) and erases
  // the job.
  void EndStream(RouterJob& job);
  // Ends the accepted stream sessions of a client that is gone.
  void EndStreamsOf(uint64_t client_id);
  // Queues a router-local rejection in the client's FIFO turn.
  void RejectSubmit(ClientConn& conn, ServeError code, const std::string& message);
  void ReadShard(Shard& shard);
  void HandleShardFrame(Shard& shard, DecodedFrame frame);
  // The live job a shard's backend id names, or nullptr.
  RouterJob* JobOf(const Shard& shard, uint64_t backend_job_id);
  // Hands one frame for `job` to its client: held in the job's reply entry
  // while an earlier request is unanswered, sent directly otherwise.
  // `answers` marks the job's admission reply. A job's frames go nowhere
  // once its client is gone.
  void Deliver(RouterJob& job, ServeFrame kind, std::string payload, bool answers);
  // Sends the answered entries at the front of the client's reply queue.
  void FlushReplies(ClientConn& conn);
  // Appends the job's journaled submit to `shard`'s outbox and bookkeeps.
  void DispatchTo(RouterJob& job, Shard& shard);
  // Journals and dispatches a job with no shard to its ring owner; false
  // when no shard is alive.
  bool Redispatch(RouterJob& job);
  void OnShardDead(const std::string& name);
  // Dispatches jobs with no owner to the current ring owner (after a shard
  // attaches, or when failover left the ring empty).
  void DispatchStranded();
  void FlushOutboxes();
  // Journal gauges, and each shard's depth: its submits in jobs_.
  void UpdateDepthGauges();

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
