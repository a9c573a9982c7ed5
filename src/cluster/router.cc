#include "src/cluster/router.h"

#include <algorithm>
#include <utility>

#include "src/common/hash.h"
#include "src/serve/service.h"

namespace rose {

namespace {

// Ring key for a stream session: the trace hash a submit would shard by does
// not exist at open time, so the session's identity (bug, seed, client
// token) places it instead. All of one session's bytes land on one shard;
// only cross-submission cache affinity is weaker than the submit path.
uint64_t StreamShardKey(std::string_view bug_id, uint64_t seed, uint64_t token) {
  return Fnv1a(Fnv1a(Fnv1a(kFnvOffsetBasis, bug_id), seed), token);
}

}  // namespace

ClusterRouter::ClusterRouter(RouterConfig config)
    : journal_(config.journal_path, std::move(config.journal_follower)) {
  MetricRegistry& reg = MetricRegistry::Global();
  metrics_.jobs_routed = reg.GetCounter("cluster.jobs_routed");
  metrics_.completions = reg.GetCounter("cluster.completions");
  metrics_.failovers = reg.GetCounter("cluster.failovers");
  metrics_.redispatches = reg.GetCounter("cluster.redispatches");
  metrics_.recovered_jobs = reg.GetCounter("cluster.recovered_jobs");
  metrics_.rejects_invalid = reg.GetCounter("cluster.rejects_invalid");
  metrics_.corrupt_frames = reg.GetCounter("cluster.corrupt_frames");
  metrics_.journal_appends = reg.GetGauge("cluster.journal_appends");
  metrics_.journal_fsyncs = reg.GetGauge("cluster.journal_fsyncs");
  metrics_.journal_bytes = reg.GetGauge("cluster.journal_bytes");
  metrics_.ring_imbalance = reg.GetGauge("cluster.ring_imbalance");

  // Journal replay: every dispatch without a completion is a job this
  // coordinator owes an answer. Readopt them as subscriber-less jobs (the
  // original clients are gone with the old process) and re-dispatch once
  // shards attach. Job ids and ring epochs continue where the journal ends,
  // so nothing a shard or follower saw before the restart collides.
  next_job_id_ = journal_.next_job_id();
  ring_.SeedEpoch(journal_.last_epoch().epoch);
  for (const auto& [job_id, record] : journal_.pending()) {
    auto job = std::make_unique<RouterJob>();
    job->id = job_id;
    job->redispatched = true;
    stats_.recovered_jobs++;
    metrics_.recovered_jobs->Inc();
    jobs_.emplace(job_id, std::move(job));
  }
}

void ClusterRouter::AttachClient(std::shared_ptr<Transport> transport) {
  auto conn = std::make_unique<ClientConn>(std::move(transport));
  conn->id = next_client_id_++;
  clients_.emplace(conn->id, std::move(conn));
}

void ClusterRouter::AttachShard(const std::string& name,
                                std::shared_ptr<Transport> transport) {
  if (shards_.count(name) != 0) {
    return;
  }
  if (ring_.AddShard(name)) {
    journal_.AppendRingEpoch(RingEpochRecord{ring_.epoch(), ring_.shards()});
  }
  auto shard = std::make_unique<Shard>(std::move(transport));  // We are its client.
  shard->name = name;
  shard->depth = MetricRegistry::Global().GetGauge("cluster.shard_depth." + name);
  shards_.emplace(name, std::move(shard));
  DispatchStranded();
}

void ClusterRouter::DetachShard(const std::string& name) {
  if (shards_.count(name) != 0) {
    OnShardDead(name);
  }
}

void ClusterRouter::Poll() {
  // A client that hung up (or was refused) is dropped with the replies it
  // was still owed: its submitted jobs keep running (the journal owns them)
  // and their frames go nowhere, and its stream sessions end at the shards.
  for (auto it = clients_.begin(); it != clients_.end();) {
    ClientConn& conn = *it->second;
    if (!conn.link.closed()) {
      ReadClient(conn);
    }
    if (!conn.link.closed() && !conn.link.hung_up()) {
      ++it;
      continue;
    }
    conn.link.Close();
    const uint64_t id = conn.id;
    it = clients_.erase(it);
    EndStreamsOf(id);
  }

  // Drain every shard before declaring any of them dead: a shard that
  // finished a job and exited cleanly has its result sitting in the
  // transport, and hung_up() only turns true once those bytes are read.
  std::vector<std::string> dead_shards;
  for (auto& [name, shard] : shards_) {
    ReadShard(*shard);
    if (shard->link.closed() || shard->link.hung_up()) {
      dead_shards.push_back(name);
    }
  }
  for (const std::string& name : dead_shards) {
    OnShardDead(name);
  }

  FlushOutboxes();
  journal_.PumpReplication();
  UpdateDepthGauges();
}

bool ClusterRouter::idle() const {
  if (!journal_.replication_idle()) {
    return false;
  }
  for (const auto& [id, job] : jobs_) {
    // An accepted stream session at rest is idle state, not pending work —
    // it lives until the client closes it.
    if (job->is_stream && job->answered) {
      continue;
    }
    return false;
  }
  for (const auto& [id, conn] : clients_) {
    if (!conn->link.flushed()) {
      return false;
    }
  }
  for (const auto& [name, shard] : shards_) {
    if (!shard->link.flushed()) {
      return false;
    }
  }
  return true;
}

void ClusterRouter::ReadClient(ClientConn& conn) {
  DecodedFrame frame;
  for (;;) {
    switch (conn.link.Next(&frame)) {
      case FrameDecoder::Status::kNeedMore:
        return;
      case FrameDecoder::Status::kFrame:
        if (frame.kind == ServeFrame::kSubmit) {
          HandleSubmit(conn, std::move(frame.payload));
        } else if (frame.kind == ServeFrame::kStatsRequest) {
          conn.link.Send(ServeFrame::kStatsReply, EncodeStats(BuildStats()));
        } else if (frame.kind == ServeFrame::kStreamOpen) {
          HandleStreamOpen(conn, frame.payload);
        } else if (frame.kind == ServeFrame::kStreamData) {
          HandleStreamData(conn, frame.payload);
        } else if (frame.kind == ServeFrame::kStreamClose) {
          HandleStreamClose(conn, frame.payload);
        }
        break;
      case FrameDecoder::Status::kCorruptFrame:
        // Same wire behavior as the daemon (kBadFrame, job id 0), but queued
        // in the client's reply order so it cannot overtake an accept the
        // router is still waiting on from a shard.
        stats_.corrupt_frames++;
        metrics_.corrupt_frames->Inc();
        RejectSubmit(conn, ServeError::kBadFrame,
                     "frame failed its CRC32 and was skipped; resend the submission");
        break;
      case FrameDecoder::Status::kBadStream:
        conn.link.Send(ServeFrame::kError,
                       EncodeError(ErrorMsg{0, ServeError::kVersionMismatch,
                                            "bad stream header or unsupported "
                                            "protocol version"}));
        conn.link.Close();
        return;
    }
  }
}

void ClusterRouter::HandleSubmit(ClientConn& conn, std::string payload) {
  // The router's share of admission: the container-level pass yields both
  // the ring key and the verdict. Everything needing a bug registry or a
  // materialized trace (unknown bug, validation, causal consistency) is the
  // owner shard's job — the router stays a thin data plane that never
  // decodes the blob into events.
  SubmitEnvelope env;
  uint64_t trace_hash = 0;
  std::string why;
  if (const ServeError error = AdmitSubmit(std::move(payload), &env, &trace_hash, &why);
      error != ServeError::kNone) {
    stats_.rejected_invalid++;
    metrics_.rejects_invalid->Inc();
    RejectSubmit(conn, error, why);
    return;
  }

  RouterJob& job = AdmitJob(conn, /*is_stream=*/false);
  // Sharded by trace hash — not the full job key — so every submission of
  // one dump lands on the same shard regardless of bug/seed, and that
  // shard's ResultCache answers repeats byte-identically to a single daemon.
  // With no shard alive the admission is journaled shard-less and the job
  // waits; AttachShard re-poses it.
  const std::string owner = ring_.OwnerOf(trace_hash);
  journal_.AppendDispatch(DispatchRecord{
      job.id, DiagnosisService::JobKey(trace_hash, env.bug_id(), env.seed()), trace_hash,
      owner, /*redispatch=*/false, std::string(env.payload())});
  if (!owner.empty()) {
    DispatchTo(job, *shards_.at(owner));
  }
}

void ClusterRouter::HandleStreamOpen(ClientConn& conn, std::string_view payload) {
  StreamOpenMsg msg;
  if (!DecodeStreamOpen(payload, &msg)) {
    stats_.rejected_invalid++;
    metrics_.rejects_invalid->Inc();
    RejectSubmit(conn, ServeError::kMalformedRequest, "stream-open payload does not decode");
    return;
  }
  const std::string owner =
      ring_.OwnerOf(StreamShardKey(msg.bug_id, msg.seed, msg.token));
  if (owner.empty()) {
    // A stranded submit can wait for a shard; a stream cannot — its bytes
    // would pile up in the router, which deliberately holds no window.
    RejectSubmit(conn, ServeError::kQueueFull,
                 "no shards attached; retry the stream open with backoff");
    return;
  }
  RouterJob& job = AdmitJob(conn, /*is_stream=*/true);
  Shard& shard = *shards_.at(owner);
  shard.link.Send(ServeFrame::kStreamOpen, payload);
  shard.accept_fifo.push_back(job.id);
  job.shard = owner;
}

void ClusterRouter::HandleStreamData(ClientConn& conn, std::string_view payload) {
  uint64_t rid = 0;
  std::string_view chunk;
  if (!DecodeStreamData(payload, &rid, &chunk)) {
    return;
  }
  auto it = jobs_.find(rid);
  if (it == jobs_.end() || !it->second->is_stream || it->second->client != conn.id ||
      it->second->backend_job_id == 0 || it->second->shard.empty()) {
    return;  // Session gone (shard died) or never accepted; bytes are moot.
  }
  auto sit = shards_.find(it->second->shard);
  if (sit == shards_.end()) {
    return;
  }
  // Rewrite the varint job-id prefix into the backend's namespace; the chunk
  // bytes are forwarded untouched.
  sit->second->link.Send(ServeFrame::kStreamData,
                         EncodeStreamData(it->second->backend_job_id, chunk));
}

void ClusterRouter::HandleStreamClose(ClientConn& conn, std::string_view payload) {
  StreamCloseMsg msg;
  if (!DecodeStreamClose(payload, &msg)) {
    return;
  }
  auto it = jobs_.find(msg.job_id);
  // Only an answered session: the client names it by the id its accept
  // carried, and an unanswered one must keep its reply entry.
  if (it == jobs_.end() || !it->second->is_stream || it->second->client != conn.id ||
      !it->second->answered) {
    return;
  }
  EndStream(*it->second);
}

ClusterRouter::RouterJob& ClusterRouter::AdmitJob(ClientConn& conn, bool is_stream) {
  auto job = std::make_unique<RouterJob>();
  job->id = next_job_id_++;
  job->client = conn.id;
  job->is_stream = is_stream;
  conn.replies.push_back(ClientConn::Reply{job->id, {}});
  stats_.jobs_routed++;
  metrics_.jobs_routed->Inc();
  return *jobs_.emplace(job->id, std::move(job)).first->second;
}

void ClusterRouter::EndStream(RouterJob& job) {
  if (auto sit = shards_.find(job.shard); sit != shards_.end() && job.backend_job_id != 0) {
    sit->second->link.Send(ServeFrame::kStreamClose,
                           EncodeStreamClose(StreamCloseMsg{job.backend_job_id}));
    sit->second->by_backend_id.erase(job.backend_job_id);
  }
  jobs_.erase(job.id);
}

void ClusterRouter::EndStreamsOf(uint64_t client_id) {
  std::vector<RouterJob*> sessions;
  for (auto& [rid, job] : jobs_) {
    // A session whose shard has not accepted yet ends when the accept
    // arrives (HandleShardFrame).
    if (job->client == client_id && job->is_stream && job->backend_job_id != 0) {
      sessions.push_back(job.get());
    }
  }
  for (RouterJob* job : sessions) {
    EndStream(*job);
  }
}

void ClusterRouter::RejectSubmit(ClientConn& conn, ServeError code,
                                 const std::string& message) {
  // Job id 0 on the wire: the client correlates pre-admission rejections
  // FIFO, exactly as against a single daemon.
  conn.replies.push_back(ClientConn::Reply{
      0, {{ServeFrame::kError, EncodeError(ErrorMsg{0, code, message})}}});
  FlushReplies(conn);
}

void ClusterRouter::DispatchTo(RouterJob& job, Shard& shard) {
  shard.link.Send(ServeFrame::kSubmit, journal_.pending().at(job.id).payload);
  shard.accept_fifo.push_back(job.id);
  job.shard = shard.name;
  job.backend_job_id = 0;
}

bool ClusterRouter::Redispatch(RouterJob& job) {
  DispatchRecord record = journal_.pending().at(job.id);
  record.shard = ring_.OwnerOf(record.trace_hash);
  if (record.shard.empty()) {
    return false;
  }
  record.redispatch = job.redispatched;
  if (job.redispatched) {
    stats_.redispatches++;
    metrics_.redispatches->Inc();
  }
  Shard& shard = *shards_.at(record.shard);
  journal_.AppendDispatch(std::move(record));
  DispatchTo(job, shard);
  return true;
}

void ClusterRouter::ReadShard(Shard& shard) {
  DecodedFrame frame;
  for (;;) {
    switch (shard.link.Next(&frame)) {
      case FrameDecoder::Status::kNeedMore:
        return;
      case FrameDecoder::Status::kFrame:
        HandleShardFrame(shard, std::move(frame));
        break;
      case FrameDecoder::Status::kCorruptFrame:
        // The lost frame may have been a job's only accept, rejection or
        // result, so the shard is failed over like a crashed one: its jobs
        // re-run on the successor, byte-identically.
        stats_.corrupt_frames++;
        metrics_.corrupt_frames->Inc();
        shard.link.Close();
        return;
      case FrameDecoder::Status::kBadStream:
        // A shard speaking a different protocol is as dead as a crashed one.
        shard.link.Close();
        return;
    }
  }
}

ClusterRouter::RouterJob* ClusterRouter::JobOf(const Shard& shard, uint64_t backend_job_id) {
  auto bit = shard.by_backend_id.find(backend_job_id);
  if (bit == shard.by_backend_id.end()) {
    return nullptr;
  }
  auto it = jobs_.find(bit->second);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void ClusterRouter::HandleShardFrame(Shard& shard, DecodedFrame frame) {
  switch (frame.kind) {
    case ServeFrame::kAccepted: {
      AcceptedMsg msg;
      if (!DecodeAccepted(frame.payload, &msg) || shard.accept_fifo.empty()) {
        return;
      }
      const uint64_t rid = shard.accept_fifo.front();
      shard.accept_fifo.pop_front();
      auto it = jobs_.find(rid);
      if (it == jobs_.end()) {
        return;
      }
      RouterJob& job = *it->second;
      job.backend_job_id = msg.job_id;
      shard.by_backend_id[msg.job_id] = rid;
      if (job.is_stream && clients_.count(job.client) == 0) {
        EndStream(job);  // Its client hung up while the open was in flight.
        return;
      }
      if (job.answered) {
        // Failover duplicate: the client already has (or will get) the first
        // shard's accept; only the id mapping moves to the successor.
        return;
      }
      msg.job_id = rid;  // Rewrite into the router's id namespace.
      Deliver(job, ServeFrame::kAccepted, EncodeAccepted(msg), /*answers=*/true);
      return;
    }
    case ServeFrame::kError: {
      ErrorMsg msg;
      if (!DecodeError(frame.payload, &msg)) {
        return;
      }
      uint64_t rid = 0;
      if (msg.job_id == 0) {
        // Pre-admission rejection (queue full, invalid, unknown bug):
        // answers the shard's oldest unanswered dispatch.
        if (shard.accept_fifo.empty()) {
          return;
        }
        rid = shard.accept_fifo.front();
        shard.accept_fifo.pop_front();
      } else {
        RouterJob* job = JobOf(shard, msg.job_id);
        if (job != nullptr && job->is_stream) {
          // Stream-session error (oracle admission rejected, unusable
          // stream bytes): forwarded under the router's id. The mapping
          // stays — the backend may hold the session open for more data.
          msg.job_id = job->id;
          Deliver(*job, ServeFrame::kError, EncodeError(msg), /*answers=*/false);
          return;
        }
        shard.by_backend_id.erase(msg.job_id);
        if (job == nullptr) {
          return;
        }
        rid = job->id;
      }
      auto it = jobs_.find(rid);
      if (it == jobs_.end()) {
        return;
      }
      RouterJob& job = *it->second;
      // A refused submit is as complete as a diagnosed one: journal it so a
      // restarted coordinator does not re-pose it. A refused stream open was
      // never journaled.
      if (!job.is_stream) {
        journal_.AppendComplete(CompleteRecord{rid, false});
      }
      // Unanswered, the error *is* the admission reply, and job id 0 on the
      // wire keeps the client's FIFO correlation (and its queue-full retry)
      // intact; answered, it names the job.
      const bool answers = !job.answered;
      msg.job_id = answers ? 0 : rid;
      Deliver(job, ServeFrame::kError, EncodeError(msg), answers);
      jobs_.erase(rid);
      return;
    }
    case ServeFrame::kProgress: {
      ProgressMsg msg;
      if (!DecodeProgress(frame.payload, &msg)) {
        return;
      }
      if (RouterJob* job = JobOf(shard, msg.job_id)) {
        msg.job_id = job->id;
        Deliver(*job, ServeFrame::kProgress, EncodeProgress(msg), /*answers=*/false);
      }
      return;
    }
    case ServeFrame::kResult: {
      ResultMsg msg;
      if (!DecodeResult(frame.payload, &msg)) {
        return;
      }
      const uint64_t backend_id = msg.job_id;
      RouterJob* job = JobOf(shard, backend_id);
      if (job == nullptr) {
        shard.by_backend_id.erase(backend_id);
        return;
      }
      stats_.completions++;
      metrics_.completions->Inc();
      msg.job_id = job->id;
      if (job->is_stream) {
        // A session's diagnosis result: forward it, keep the session — the
        // id mapping must survive (the window can fire further oracles, and
        // data/close frames still need routing). Never journaled: sessions
        // are not re-posable (see RouterJob::is_stream).
        Deliver(*job, ServeFrame::kResult, EncodeResult(msg), /*answers=*/false);
        return;
      }
      shard.by_backend_id.erase(backend_id);
      journal_.AppendComplete(CompleteRecord{job->id, msg.reproduced});
      Deliver(*job, ServeFrame::kResult, EncodeResult(msg), /*answers=*/false);
      jobs_.erase(msg.job_id);
      return;
    }
    case ServeFrame::kThrottle: {
      // Backpressure toward the sender: rewrite the id and pass it through —
      // the router buffers no window, so the backend's verdict is the one
      // that matters.
      ThrottleMsg msg;
      if (!DecodeThrottle(frame.payload, &msg)) {
        return;
      }
      if (RouterJob* job = JobOf(shard, msg.job_id)) {
        msg.job_id = job->id;
        Deliver(*job, ServeFrame::kThrottle, EncodeThrottle(msg), /*answers=*/false);
      }
      return;
    }
    case ServeFrame::kStatsReply:
    case ServeFrame::kSubmit:
    case ServeFrame::kStatsRequest:
    default:
      return;  // Unknown / unexpected kinds: framing already advanced.
  }
}

void ClusterRouter::Deliver(RouterJob& job, ServeFrame kind, std::string payload,
                            bool answers) {
  job.answered = job.answered || answers;
  auto cit = clients_.find(job.client);
  if (cit == clients_.end()) {
    return;  // No subscriber: the journal still completes the job.
  }
  ClientConn& conn = *cit->second;
  auto entry = std::find_if(conn.replies.begin(), conn.replies.end(),
                            [&job](const ClientConn::Reply& r) { return r.job == job.id; });
  if (entry == conn.replies.end()) {
    conn.link.Send(kind, payload);  // Its turn already came.
    return;
  }
  entry->frames.emplace_back(kind, std::move(payload));
  FlushReplies(conn);
}

void ClusterRouter::FlushReplies(ClientConn& conn) {
  while (!conn.replies.empty() && !conn.replies.front().frames.empty()) {
    for (const auto& [kind, payload] : conn.replies.front().frames) {
      conn.link.Send(kind, payload);
    }
    conn.replies.pop_front();
  }
}

void ClusterRouter::OnShardDead(const std::string& name) {
  auto sit = shards_.find(name);
  if (sit == shards_.end()) {
    return;
  }
  stats_.failovers++;
  metrics_.failovers->Inc();
  sit->second->depth->Set(0);
  shards_.erase(sit);
  if (ring_.RemoveShard(name)) {
    journal_.AppendRingEpoch(RingEpochRecord{ring_.epoch(), ring_.shards()});
  }
  // Re-pose every job the dead shard owned. With the shard off the ring,
  // the trace hash's owner *is* the failover successor; engine determinism
  // makes the re-run result byte-identical to the one that was lost. Jobs
  // whose accept the client already has keep their router job id — the
  // successor's duplicate accept is swallowed in HandleShardFrame.
  std::vector<uint64_t> dead_streams;
  for (auto& [rid, job] : jobs_) {
    if (job->shard != name) {
      continue;
    }
    if (job->is_stream) {
      // The session's window died with the shard; there is nothing to
      // re-pose. The client learns its session is gone and reopens.
      const bool answers = !job->answered;
      Deliver(*job, ServeFrame::kError,
              EncodeError(ErrorMsg{answers ? 0 : rid, ServeError::kInvalidTrace,
                                   "stream session lost: shard '" + name + "' died"}),
              answers);
      dead_streams.push_back(rid);
      continue;
    }
    job->shard.clear();
    job->backend_job_id = 0;
    job->redispatched = true;
    Redispatch(*job);  // Stranded until a shard attaches when the ring is empty.
  }
  for (uint64_t rid : dead_streams) {
    jobs_.erase(rid);
  }
}

void ClusterRouter::DispatchStranded() {
  for (auto& [rid, job] : jobs_) {
    if (job->shard.empty() && !job->is_stream && !Redispatch(*job)) {
      return;
    }
  }
}

void ClusterRouter::FlushOutboxes() {
  for (auto& [id, conn] : clients_) {
    conn->link.Flush();
  }
  for (auto& [name, shard] : shards_) {
    shard->link.Flush();
  }
}

void ClusterRouter::UpdateDepthGauges() {
  metrics_.journal_appends->Set(static_cast<int64_t>(journal_.appends()));
  metrics_.journal_fsyncs->Set(static_cast<int64_t>(journal_.fsyncs()));
  metrics_.journal_bytes->Set(static_cast<int64_t>(journal_.bytes_written()));
  int64_t min_depth = 0, max_depth = 0;
  bool first = true;
  for (const auto& [name, shard] : shards_) {
    const int64_t depth = std::count_if(jobs_.begin(), jobs_.end(), [&](const auto& entry) {
      return !entry.second->is_stream && entry.second->shard == name;
    });
    shard->depth->Set(depth);
    min_depth = first ? depth : std::min(min_depth, depth);
    max_depth = first ? depth : std::max(max_depth, depth);
    first = false;
  }
  metrics_.ring_imbalance->Set(max_depth - min_depth);
}

StatsMsg ClusterRouter::BuildStats() const {
  StatsMsg msg;
  msg.jobs_submitted = stats_.jobs_routed;
  msg.jobs_completed = stats_.completions;
  msg.rejected_invalid = stats_.rejected_invalid;
  msg.corrupt_frames = stats_.corrupt_frames;
  size_t dispatched = 0, stranded = 0;
  for (const auto& [rid, job] : jobs_) {
    (job->shard.empty() ? stranded : dispatched)++;
  }
  msg.queued_jobs = stranded;
  msg.running_jobs = dispatched;
  msg.metrics_yaml = MetricRegistry::Global().Snapshot().ToYaml();
  return msg;
}

}  // namespace rose
