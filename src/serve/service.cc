#include "src/serve/service.h"

#include <algorithm>
#include <cmath>

#include "src/analyze/trace_validator.h"
#include "src/causal/causal_graph.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"

namespace rose {

namespace {

// Confirmed results held in memory (the disk copy, with a cache dir, keeps
// every one).
constexpr size_t kCacheEntries = 64;

uint32_t RatePermille(double rate_percent) {
  return static_cast<uint32_t>(std::lround(rate_percent * 10.0));
}

}  // namespace

uint64_t DiagnosisService::JobKey(uint64_t trace_hash, std::string_view bug_id,
                                  uint64_t seed) {
  return Fnv1a(Fnv1a(Fnv1a(kFnvOffsetBasis, trace_hash), bug_id), seed);
}

DiagnosisService::DiagnosisService(ServeConfig config)
    : config_(config),
      cache_(kCacheEntries, config.cache_dir),
      queue_(config.queue_capacity),
      pool_(std::make_unique<WorkerPool>(std::max(config.max_concurrent_jobs, 1))) {
  MetricRegistry& reg = MetricRegistry::Global();
  metrics_.submissions = reg.GetCounter("serve.submissions");
  metrics_.cache_hits = reg.GetCounter("serve.cache_hits");
  metrics_.cache_misses = reg.GetCounter("serve.cache_misses");
  metrics_.coalesced = reg.GetCounter("serve.coalesced");
  metrics_.rejects_queue_full = reg.GetCounter("serve.rejects_queue_full");
  metrics_.rejects_invalid = reg.GetCounter("serve.rejects_invalid");
  metrics_.rejects_causal = reg.GetCounter("serve.rejects_causal");
  metrics_.corrupt_frames = reg.GetCounter("serve.corrupt_frames");
  metrics_.stats_requests = reg.GetCounter("serve.stats_requests");
  metrics_.queue_depth = reg.GetGauge("serve.queue_depth");
  metrics_.job_ns = reg.GetHistogram("serve.job_ns");
  metrics_.stream_resident_bytes = reg.GetGauge("stream.resident_bytes");
  metrics_.stream_sessions_opened = reg.GetCounter("stream.sessions_opened");
  metrics_.stream_data_frames = reg.GetCounter("stream.data_frames");
  metrics_.stream_bytes_ingested = reg.GetCounter("stream.bytes_ingested");
  metrics_.stream_throttle_events = reg.GetCounter("stream.throttle_events");
  metrics_.stream_oracle_marks = reg.GetCounter("stream.oracle_marks");
  metrics_.stream_oracle_to_candidate_ns = reg.GetHistogram("stream.oracle_to_candidate_ns");
}

DiagnosisService::~DiagnosisService() {
  // WorkerPool's destructor drains queued closures and joins; every worker
  // references only jobs_ entries, which outlive pool_ (member order).
  pool_.reset();
}

void DiagnosisService::Attach(std::shared_ptr<Transport> transport) {
  connections_.emplace(next_connection_id_++, ServeConnection(std::move(transport)));
}

void DiagnosisService::Poll() {
  std::vector<uint64_t> over;
  for (auto& [id, conn] : connections_) {
    if (!ReadConnection(id, conn)) {
      over.push_back(id);
    }
  }
  for (uint64_t id : over) {
    DropConnection(id);
  }
  PollStreamSessions();
  StartJobs();
  HarvestJobs();
  FlushConnections();
}

bool DiagnosisService::idle() const {
  if (!queue_.empty() || running_ != 0) {
    return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (!conn.flushed()) {
      return false;
    }
  }
  return true;
}

bool DiagnosisService::ReadConnection(uint64_t conn_id, ServeConnection& conn) {
  DecodedFrame frame;
  for (;;) {
    switch (conn.Next(&frame)) {
      case FrameDecoder::Status::kNeedMore:
        return !conn.hung_up();
      case FrameDecoder::Status::kFrame:
        if (frame.kind == ServeFrame::kSubmit) {
          AdmitSubmission(conn_id, std::move(frame.payload), /*reply_job_id=*/0,
                          std::nullopt);
        } else if (frame.kind == ServeFrame::kStatsRequest) {
          metrics_.stats_requests->Inc();
          SendFrame(conn_id, ServeFrame::kStatsReply, EncodeStats(BuildStats()));
        } else if (frame.kind == ServeFrame::kStreamOpen) {
          HandleStreamOpen(conn_id, frame.payload);
        } else if (frame.kind == ServeFrame::kStreamData) {
          HandleStreamData(conn_id, frame.payload);
        } else if (frame.kind == ServeFrame::kStreamClose) {
          HandleStreamClose(conn_id, frame.payload);
        }
        // Unknown / server-only kinds from a confused peer are skipped;
        // framing already advanced past them.
        break;
      case FrameDecoder::Status::kCorruptFrame:
        stats_.corrupt_frames++;
        metrics_.corrupt_frames->Inc();
        SendError(conn_id, ServeError::kBadFrame,
                  "frame failed its CRC32 and was skipped; resend the submission");
        break;
      case FrameDecoder::Status::kBadStream:
        SendError(conn_id, ServeError::kVersionMismatch,
                  "bad stream header or unsupported protocol version");
        return false;
    }
  }
}

void DiagnosisService::DropConnection(uint64_t conn_id) {
  CloseStreamSessionsFor(conn_id);
  auto it = connections_.find(conn_id);
  it->second.Close();
  connections_.erase(it);
}

void DiagnosisService::AdmitSubmission(
    uint64_t conn_id, std::string payload, uint64_t reply_job_id,
    std::optional<std::chrono::steady_clock::time_point> oracle_at) {
  // The cache/dedup key is known before any owning Trace exists: a repeat
  // submission is answered below without materializing the trace at all.
  SubmitEnvelope env;
  uint64_t trace_hash = 0;
  std::string why;
  if (const ServeError error = AdmitSubmit(std::move(payload), &env, &trace_hash, &why);
      error != ServeError::kNone) {
    RejectInvalid(conn_id, error, why, reply_job_id);
    return;
  }
  const std::string bug_id(env.bug_id());
  const BugSpec* spec = FindBug(bug_id);
  if (spec == nullptr) {
    RejectInvalid(conn_id, ServeError::kUnknownBug, "unknown bug id: " + bug_id, reply_job_id);
    return;
  }
  const uint64_t key = JobKey(trace_hash, bug_id, env.seed());

  // O(1) repeat: answered from the cache without touching the engine — and,
  // with the key streamed above, without a single trace copy. Validation is
  // safely skipped here: a cached key means a byte-canonical-identical trace
  // already passed the full admission checks before its diagnosis ran.
  if (std::optional<CachedResult> cached = cache_.Get(key)) {
    stats_.jobs_submitted++;
    metrics_.submissions->Inc();
    stats_.cache_hits++;
    metrics_.cache_hits->Inc();
    const uint64_t job_id = reply_job_id != 0 ? reply_job_id : next_job_id_++;
    if (reply_job_id == 0) {
      AcceptedMsg accepted;
      accepted.job_id = job_id;
      accepted.kind = AcceptKind::kCacheHit;
      accepted.token = env.token();
      SendFrame(conn_id, ServeFrame::kAccepted, EncodeAccepted(accepted));
    }
    if (oracle_at.has_value()) {
      metrics_.stream_oracle_to_candidate_ns->RecordSince(*oracle_at);
    }
    ResultMsg msg;
    msg.job_id = job_id;
    msg.reproduced = cached->reproduced;
    msg.cached = true;
    msg.rate_permille = cached->rate_permille;
    msg.level = cached->level;
    msg.schedules = cached->schedules;
    msg.runs = cached->runs;
    msg.schedule_yaml = cached->schedule_yaml;
    msg.fault_summary = cached->fault_summary;
    SendFrame(conn_id, ServeFrame::kResult, EncodeResult(msg));
    return;
  }
  metrics_.cache_misses->Inc();

  // Identical job already queued/running: subscribe, don't re-run. Like the
  // cache hit, the in-flight job's trace already passed admission checks.
  if (auto it = inflight_by_key_.find(key); it != inflight_by_key_.end()) {
    Job& job = *jobs_.at(it->second);
    stats_.jobs_submitted++;
    metrics_.submissions->Inc();
    stats_.coalesced++;
    metrics_.coalesced->Inc();
    job.subscribers.push_back({conn_id, /*coalesced=*/true, reply_job_id});
    if (reply_job_id == 0) {
      AcceptedMsg accepted;
      accepted.job_id = job.id;
      accepted.kind = AcceptKind::kCoalesced;
      accepted.token = env.token();
      SendFrame(conn_id, ServeFrame::kAccepted, EncodeAccepted(accepted));
    }
    if (oracle_at.has_value()) {
      stream_oracle_pending_.emplace(job.id, *oracle_at);
    }
    return;
  }

  // First sighting of this key: now — and only now — the trace materializes,
  // decoded in place from the envelope's blob (AdmitSubmit already refused
  // a damaged container).
  Trace trace = Trace::ParseBinary(env.trace_blob());
  Profile profile = env.profile();

  // Up-front validation: a structurally-invalid trace would burn thousands
  // of simulated runs on garbage. TV1xx from the validator.
  TraceValidateOptions validate_options;
  validate_options.profile = &profile;
  const std::vector<Diagnostic> validation =
      TraceValidator(validate_options).Validate(trace);
  if (HasErrors(validation)) {
    RejectInvalid(conn_id, ServeError::kInvalidTrace,
                  "trace failed validation: " + validation.front().ToString(), reply_job_id);
    return;
  }
  // Causal consistency (TB303, DESIGN.md §12): a trace the happens-before
  // model itself refutes — a pid alive on two nodes, events from a process
  // after its crash — would feed the engine a graph whose prunes are
  // meaningless. Vector clocks are skipped: admission only needs the prescan.
  const CausalGraph causal(trace, CausalOptions{/*vector_clocks=*/false});
  if (HasErrors(causal.diagnostics())) {
    metrics_.rejects_causal->Inc();
    RejectInvalid(conn_id, ServeError::kInvalidTrace,
                  "trace causally inconsistent: " + causal.diagnostics().front().ToString(),
                  reply_job_id);
    return;
  }

  stats_.jobs_submitted++;
  metrics_.submissions->Inc();

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->key = key;
  job->seed = env.seed();
  job->bug_id = bug_id;
  job->tag = std::string(env.tag());
  job->spec = spec;
  job->profile = std::move(profile);
  job->trace = std::move(trace);
  job->subscribers.push_back({conn_id, /*coalesced=*/false, reply_job_id});

  if (queue_.Push(conn_id, job->id) == JobQueue::PushResult::kFull) {
    stats_.rejected_queue_full++;
    metrics_.rejects_queue_full->Inc();
    SendError(conn_id, ServeError::kQueueFull,
              StrFormat("job queue at capacity (%zu); retry with backoff",
                        queue_.capacity()),
              reply_job_id);
    return;  // `job` dies here; nothing was registered.
  }
  job->admitted = std::chrono::steady_clock::now();
  metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));

  if (reply_job_id == 0) {
    AcceptedMsg accepted;
    accepted.job_id = job->id;
    accepted.kind = AcceptKind::kQueued;
    accepted.queue_depth = queue_.size() - 1;
    accepted.token = env.token();
    SendFrame(conn_id, ServeFrame::kAccepted, EncodeAccepted(accepted));
  }
  if (oracle_at.has_value()) {
    stream_oracle_pending_.emplace(job->id, *oracle_at);
  }
  inflight_by_key_.emplace(key, job->id);
  jobs_.emplace(job->id, std::move(job));
}

void DiagnosisService::HandleStreamOpen(uint64_t conn_id, std::string_view payload) {
  StreamOpenMsg msg;
  if (!DecodeStreamOpen(payload, &msg)) {
    RejectInvalid(conn_id, ServeError::kMalformedRequest, "stream-open payload does not decode");
    return;
  }
  // Bug identity is checked at open so a misconfigured sender fails before
  // shipping a window; the trace itself is validated at oracle admission.
  if (FindBug(msg.bug_id) == nullptr) {
    RejectInvalid(conn_id, ServeError::kUnknownBug, "unknown bug id: " + msg.bug_id);
    return;
  }
  const uint64_t id = next_job_id_++;
  StreamSession& session =
      stream_sessions_.try_emplace(id, config_.stream_window_bytes).first->second;
  session.id = id;
  session.conn_id = conn_id;
  session.bug_id = std::move(msg.bug_id);
  session.seed = msg.seed;
  session.tag = std::move(msg.tag);
  session.profile_text = std::move(msg.profile_text);
  metrics_.stream_sessions_opened->Inc();
  AcceptedMsg accepted;
  accepted.job_id = id;
  accepted.kind = AcceptKind::kStream;
  accepted.token = msg.token;
  SendFrame(conn_id, ServeFrame::kAccepted, EncodeAccepted(accepted));
}

void DiagnosisService::HandleStreamData(uint64_t conn_id, std::string_view payload) {
  uint64_t session_id = 0;
  std::string_view chunk;
  if (!DecodeStreamData(payload, &session_id, &chunk)) {
    SendError(conn_id, ServeError::kMalformedRequest, "stream-data payload does not decode");
    return;
  }
  auto it = stream_sessions_.find(session_id);
  if (it == stream_sessions_.end() || it->second.conn_id != conn_id) {
    SendError(conn_id, ServeError::kBadFrame, "stream data for unknown session",
              session_id);
    return;
  }
  metrics_.stream_data_frames->Inc();
  metrics_.stream_bytes_ingested->Inc(chunk.size());
  StreamWindow& window = it->second.window;
  const size_t cost_before = window.cost();
  const bool usable = window.Feed(chunk);
  // An unusable window leaves the resident total with its session.
  SetStreamResident(stream_resident_bytes_ - cost_before + (usable ? window.cost() : 0));
  if (!usable) {
    SendError(conn_id, ServeError::kInvalidTrace,
              "stream bytes are not a usable RTRC container, or their string pool "
              "outgrew the session window",
              session_id);
    stream_sessions_.erase(it);
    return;
  }
  if (window.oracle_pending()) {
    AdmitStreamOracle(it->second);
  }
}

void DiagnosisService::HandleStreamClose(uint64_t conn_id, std::string_view payload) {
  StreamCloseMsg msg;
  if (!DecodeStreamClose(payload, &msg)) {
    SendError(conn_id, ServeError::kMalformedRequest, "stream-close payload does not decode");
    return;
  }
  auto it = stream_sessions_.find(msg.job_id);
  if (it == stream_sessions_.end() || it->second.conn_id != conn_id) {
    return;  // Already gone (errored out, or a confused peer); nothing to do.
  }
  EraseStreamSession(it);
}

void DiagnosisService::AdmitStreamOracle(StreamSession& session) {
  session.window.TakeOracle();  // Clears the latch; ts/detail are the
                                // sender's annotation, not inputs here.
  metrics_.stream_oracle_marks->Inc();
  const auto oracle_at = std::chrono::steady_clock::now();
  // Materialize re-canonicalizes the window exactly as Tracer::Dump would,
  // so the admission below computes the same canonical hash — and hits the
  // same cache entries — as a dump-file submission of this window. The blob
  // re-enters through the submit envelope: one encode buys the entire
  // existing admission chain (hash, cache, coalesce, validate, queue).
  AdmitSubmission(session.conn_id,
                  EncodeSubmitBlob(session.bug_id, session.seed, session.tag,
                                   session.profile_text, session.window.Materialize(),
                                   /*token=*/0),
                  /*reply_job_id=*/session.id, oracle_at);
}

void DiagnosisService::PollStreamSessions() {
  for (auto& [id, session] : stream_sessions_) {
    const uint64_t drops = session.window.drops();
    const bool dropping = drops > session.drops_at_check;
    session.drops_at_check = drops;
    if (dropping == session.throttled) {
      continue;  // No edge; kThrottle frames only mark transitions.
    }
    session.throttled = dropping;
    if (dropping) {
      metrics_.stream_throttle_events->Inc();
    }
    ThrottleMsg msg;
    msg.job_id = id;
    msg.on = dropping;
    msg.resident_bytes = session.window.cost();
    SendFrame(session.conn_id, ServeFrame::kThrottle, EncodeThrottle(msg));
  }
}

void DiagnosisService::CloseStreamSessionsFor(uint64_t conn_id) {
  for (auto it = stream_sessions_.begin(); it != stream_sessions_.end();) {
    if (it->second.conn_id == conn_id) {
      it = EraseStreamSession(it);
    } else {
      ++it;
    }
  }
}

std::map<uint64_t, DiagnosisService::StreamSession>::iterator
DiagnosisService::EraseStreamSession(std::map<uint64_t, StreamSession>::iterator it) {
  SetStreamResident(stream_resident_bytes_ - it->second.window.cost());
  return stream_sessions_.erase(it);
}

void DiagnosisService::SetStreamResident(size_t bytes) {
  stream_resident_bytes_ = bytes;
  stream_peak_resident_bytes_ = std::max(stream_peak_resident_bytes_, bytes);
  metrics_.stream_resident_bytes->Set(static_cast<int64_t>(bytes));
}

void DiagnosisService::StartJobs() {
  while (running_ < std::max(config_.max_concurrent_jobs, 1)) {
    const std::optional<uint64_t> job_id = queue_.Pop();
    if (!job_id.has_value()) {
      return;
    }
    Job& job = *jobs_.at(*job_id);
    job.state = Job::State::kRunning;
    running_++;
    metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));

    ProgressMsg msg;
    msg.job_id = job.id;
    msg.kind = ProgressKind::kRunning;
    msg.detail = job.tag.empty() ? job.bug_id : job.tag;
    BroadcastProgress(job, msg);

    RoseConfig run_config;
    run_config.seed = job.seed;
    run_config.diagnosis = config_.diagnosis;
    Job* shared = &job;
    run_config.diagnosis.on_progress = [shared](const DiagnosisProgress& progress) {
      std::lock_guard<std::mutex> lock(shared->mutex);
      shared->pending_progress.push_back(progress);
    };
    const BugSpec* spec = job.spec;
    pool_->Enqueue([shared, spec, run_config = std::move(run_config)] {
      DiagnosisResult result =
          DiagnoseTrace(*spec, shared->profile, shared->trace, run_config);
      std::lock_guard<std::mutex> lock(shared->mutex);
      shared->result = std::move(result);
      shared->finished = true;
    });
  }
}

void DiagnosisService::HarvestJobs() {
  std::vector<uint64_t> done;
  for (auto& [id, job] : jobs_) {
    if (job->state != Job::State::kRunning) {
      continue;
    }
    std::deque<DiagnosisProgress> progress;
    bool finished = false;
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      progress.swap(job->pending_progress);
      finished = job->finished;
    }
    for (const DiagnosisProgress& step : progress) {
      ProgressMsg msg;
      msg.job_id = job->id;
      switch (step.kind) {
        case DiagnosisProgress::Kind::kLevelStart:
          msg.kind = ProgressKind::kLevelStart;
          break;
        case DiagnosisProgress::Kind::kCandidate:
          msg.kind = ProgressKind::kCandidate;
          break;
        case DiagnosisProgress::Kind::kConfirmRun:
          msg.kind = ProgressKind::kConfirm;
          break;
      }
      msg.level = static_cast<uint32_t>(std::max(step.level, 0));
      msg.schedules = static_cast<uint32_t>(std::max(step.schedules_generated, 0));
      msg.runs = static_cast<uint32_t>(std::max(step.total_runs, 0));
      msg.rate_permille = RatePermille(step.rate);
      msg.detail = step.detail;
      BroadcastProgress(*job, msg);
      if (msg.kind == ProgressKind::kCandidate) {
        // First candidate for a stream-admitted job: the paper's
        // oracle-to-first-candidate latency ends here.
        EndOracleLatency(job->id);
      }
    }
    if (!finished) {
      continue;
    }
    // Past this point no worker touches the job again: the closure set
    // `finished` as its last locked action.
    job->state = Job::State::kDone;
    running_--;
    stats_.jobs_completed++;
    stats_.engine_runs += static_cast<uint64_t>(std::max(job->result.total_runs, 0));
    metrics_.job_ns->RecordSince(job->admitted);

    CachedResult cached;
    cached.reproduced = job->result.reproduced;
    cached.schedule_yaml = job->result.schedule.ToYaml();
    cached.rate_permille = RatePermille(job->result.replay_rate);
    cached.level = static_cast<uint32_t>(std::max(job->result.level, 0));
    cached.schedules = static_cast<uint32_t>(std::max(job->result.schedules_generated, 0));
    cached.runs = static_cast<uint32_t>(std::max(job->result.total_runs, 0));
    cached.fault_summary = job->result.fault_summary;
    cache_.Put(job->key, cached);

    BroadcastResult(*job, cached);
    // Fallback for stream admissions that never surfaced a candidate (e.g.
    // nothing to diagnose): the latency ends at the result instead.
    EndOracleLatency(job->id);
    inflight_by_key_.erase(job->key);
    done.push_back(id);
  }
  for (uint64_t id : done) {
    jobs_.erase(id);  // Frees the dump; the cache keeps the answer.
  }
}

StatsMsg DiagnosisService::BuildStats() const {
  StatsMsg msg;
  msg.jobs_submitted = stats_.jobs_submitted;
  msg.jobs_completed = stats_.jobs_completed;
  msg.cache_hits = stats_.cache_hits;
  msg.coalesced = stats_.coalesced;
  msg.rejected_queue_full = stats_.rejected_queue_full;
  msg.rejected_invalid = stats_.rejected_invalid;
  msg.corrupt_frames = stats_.corrupt_frames;
  msg.engine_runs = stats_.engine_runs;
  msg.queued_jobs = queue_.size();
  msg.running_jobs = static_cast<uint64_t>(std::max(running_, 0));
  msg.metrics_yaml = MetricRegistry::Global().Snapshot().ToYaml();
  return msg;
}

void DiagnosisService::EndOracleLatency(uint64_t job_id) {
  auto [begin, end] = stream_oracle_pending_.equal_range(job_id);
  for (auto it = begin; it != end; ++it) {
    metrics_.stream_oracle_to_candidate_ns->RecordSince(it->second);
  }
  stream_oracle_pending_.erase(begin, end);
}

void DiagnosisService::FlushConnections() {
  for (auto& [id, conn] : connections_) {
    conn.Flush();
  }
}

void DiagnosisService::SendFrame(uint64_t conn_id, ServeFrame kind,
                                 const std::string& payload) {
  if (auto it = connections_.find(conn_id); it != connections_.end()) {
    it->second.Send(kind, payload);
  }
}

void DiagnosisService::SendError(uint64_t conn_id, ServeError code,
                                 const std::string& message, uint64_t job_id) {
  ErrorMsg msg;
  msg.job_id = job_id;
  msg.code = code;
  msg.message = message;
  SendFrame(conn_id, ServeFrame::kError, EncodeError(msg));
}

void DiagnosisService::RejectInvalid(uint64_t conn_id, ServeError code,
                                     const std::string& message, uint64_t job_id) {
  stats_.rejected_invalid++;
  metrics_.rejects_invalid->Inc();
  SendError(conn_id, code, message, job_id);
}

void DiagnosisService::BroadcastProgress(const Job& job, const ProgressMsg& msg) {
  ProgressMsg stamped = msg;
  for (const Job::Subscriber& sub : job.subscribers) {
    stamped.job_id = sub.reply_job_id != 0 ? sub.reply_job_id : job.id;
    SendFrame(sub.conn_id, ServeFrame::kProgress, EncodeProgress(stamped));
  }
}

void DiagnosisService::BroadcastResult(Job& job, const CachedResult& cached) {
  ResultMsg msg;
  msg.reproduced = cached.reproduced;
  msg.cached = false;
  msg.rate_permille = cached.rate_permille;
  msg.level = cached.level;
  msg.schedules = cached.schedules;
  msg.runs = cached.runs;
  msg.schedule_yaml = cached.schedule_yaml;
  msg.fault_summary = cached.fault_summary;
  for (const Job::Subscriber& sub : job.subscribers) {
    msg.job_id = sub.reply_job_id != 0 ? sub.reply_job_id : job.id;
    msg.coalesced = sub.coalesced;
    SendFrame(sub.conn_id, ServeFrame::kResult, EncodeResult(msg));
  }
}

}  // namespace rose
