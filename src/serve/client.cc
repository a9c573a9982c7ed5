#include "src/serve/client.h"

#include "src/analyze/trace_validator.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace rose {
namespace {

// One SplitMix64 step from `x`: full-avalanche mixing for tokens and the
// deterministic retry jitter (no global RNG, no wall clock — replays
// byte-identically).
uint64_t Mix(uint64_t x) { return SplitMix64(x); }

// Idempotency token for a submission: the blob's canonical hash (encoding-
// independent — a resend of the same window matches even if re-encoded)
// mixed with bug id and seed so two jobs over one dump stay distinct.
// Always nonzero: 0 means "no token" on the wire.
uint64_t SubmitToken(uint64_t trace_hash, std::string_view bug_id, uint64_t seed) {
  const uint64_t token = Mix(Fnv1a(trace_hash ^ kFnvOffsetBasis, bug_id) ^ seed);
  return token == 0 ? 1 : token;
}

}  // namespace

ServeClient::ServeClient(std::shared_ptr<Transport> transport, ServeClientConfig config)
    : link_(std::move(transport)), config_(config) {}

uint64_t ServeClient::SubmitBlob(std::string_view bug_id, uint64_t seed, std::string_view tag,
                                 std::string_view profile_text, std::string_view trace_blob) {
  uint64_t trace_hash = 0;
  CanonicalBlobHash(trace_blob, &trace_hash);  // Best-effort: damaged blobs
                                               // still get a stable token.
  const uint64_t handle = next_handle_++;
  PendingJob& job = jobs_[handle];
  job.handle = handle;
  job.token = SubmitToken(trace_hash, bug_id, seed);
  job.encoded = EncodeSubmitBlob(bug_id, seed, tag, profile_text, trace_blob, job.token);
  job.state = JobState::kAwaitingAccept;
  link_.Send(ServeFrame::kSubmit, job.encoded);
  accept_fifo_.push_back(handle);
  return handle;
}

uint64_t ServeClient::OpenStream(std::string_view bug_id, uint64_t seed, std::string_view tag,
                                 std::string_view profile_text) {
  const uint64_t handle = next_handle_++;
  PendingJob& job = jobs_[handle];
  job.handle = handle;
  job.is_stream = true;
  // Session nonce, not a content hash: the content does not exist yet.
  job.token = SubmitToken(Mix(config_.backoff_jitter_seed ^ handle), bug_id, seed);
  StreamOpenMsg msg;
  msg.bug_id = std::string(bug_id);
  msg.seed = seed;
  msg.tag = std::string(tag);
  msg.profile_text = std::string(profile_text);
  msg.token = job.token;
  job.encoded = EncodeStreamOpen(msg);
  job.state = JobState::kAwaitingAccept;
  link_.Send(ServeFrame::kStreamOpen, job.encoded);
  accept_fifo_.push_back(handle);
  return handle;
}

void ServeClient::StreamData(uint64_t handle, std::string_view bytes) {
  auto it = jobs_.find(handle);
  if (it == jobs_.end() || !it->second.is_stream || bytes.empty()) {
    return;
  }
  PendingJob& job = it->second;
  if (job.state == JobState::kAwaitingAccept) {
    job.stream_staged.append(bytes.data(), bytes.size());
    return;
  }
  // kDone only means a result arrived under the session id — the session
  // itself stays open (a window can fire several oracles). Only failure
  // ends it.
  if (job.state != JobState::kAccepted && job.state != JobState::kDone) {
    return;
  }
  link_.Send(ServeFrame::kStreamData, EncodeStreamData(job.server_job_id, bytes));
}

void ServeClient::CloseStream(uint64_t handle) {
  auto it = jobs_.find(handle);
  if (it == jobs_.end() || !it->second.is_stream) {
    return;
  }
  PendingJob& job = it->second;
  if (job.state == JobState::kAwaitingAccept) {
    job.close_requested = true;  // Sent right after the accept arrives.
    return;
  }
  if (job.state != JobState::kAccepted && job.state != JobState::kDone) {
    return;  // Never accepted, or already failed.
  }
  link_.Send(ServeFrame::kStreamClose, EncodeStreamClose(StreamCloseMsg{job.server_job_id}));
}

bool ServeClient::stream_accepted(uint64_t handle) const {
  const PendingJob& job = Get(handle);
  return job.is_stream && (job.state == JobState::kAccepted || job.state == JobState::kDone);
}

bool ServeClient::stream_throttled(uint64_t handle) const { return Get(handle).throttled; }

int ServeClient::BackoffRounds(const PendingJob& job) const {
  const int cap = config_.max_backoff_rounds > 0 ? config_.max_backoff_rounds : 1;
  // Shift saturates well before it could overflow (cap is an int).
  int rounds = config_.backoff_base_rounds > 0 ? config_.backoff_base_rounds : 1;
  for (int i = 0; i < job.attempts && rounds < cap; i++) {
    rounds <<= 1;
  }
  if (rounds > cap) {
    rounds = cap;
  }
  // Up to +50% jitter so synchronized clients fan out instead of re-stampeding
  // the queue in lockstep; the mix is a pure function of (seed, handle,
  // attempt), so a rerun of the same submission order waits identically.
  const uint64_t mix = Mix(config_.backoff_jitter_seed ^ (job.handle * 0x9e3779b97f4a7c15ULL) ^
                          static_cast<uint64_t>(job.attempts));
  rounds += static_cast<int>(mix % (static_cast<uint64_t>(rounds) / 2 + 1));
  return rounds < cap ? rounds : cap;
}

void ServeClient::RequestStats() { link_.Send(ServeFrame::kStatsRequest, ""); }

void ServeClient::Poll() {
  if (broken()) {
    FailUnresolved();  // Submissions made after the break.
    return;
  }

  // Backoff bookkeeping: jobs waiting out a queue-full rejection re-enter the
  // wire when their counter hits zero. Resubmission order follows handle
  // order, which keeps the FIFO correlation well-defined.
  for (auto it = backoff_.begin(); it != backoff_.end();) {
    PendingJob& job = jobs_.at(*it);
    if (--job.backoff_left > 0) {
      ++it;
      continue;
    }
    job.state = JobState::kAwaitingAccept;
    link_.Send(job.is_stream ? ServeFrame::kStreamOpen : ServeFrame::kSubmit, job.encoded);
    accept_fifo_.push_back(job.handle);
    retries_performed_++;
    it = backoff_.erase(it);
  }

  // Short writes mean the pipe is full; the rest goes out on a later Poll().
  link_.Flush();

  DecodedFrame frame;
  for (;;) {
    const FrameDecoder::Status status = link_.Next(&frame);
    if (status == FrameDecoder::Status::kNeedMore) {
      if (link_.hung_up()) {
        Break(ServeError::kConnectionLost, "server hung up");
      }
      return;
    }
    if (status == FrameDecoder::Status::kBadStream) {
      Break(ServeError::kVersionMismatch, "serve stream header rejected");
      return;
    }
    if (status == FrameDecoder::Status::kCorruptFrame) {
      // The lost frame may have been a job's only accept, rejection or
      // result, and nothing resends it.
      Break(ServeError::kBadFrame, "server frame failed its CRC32");
      return;
    }
    HandleFrame(frame);
  }
}

void ServeClient::Break(ServeError code, std::string message) {
  broken_ = code;
  broken_message_ = std::move(message);
  link_.Close();  // The server drops the connection at our EOF.
  FailUnresolved();
}

void ServeClient::FailUnresolved() {
  // The stream cannot carry answers anymore: nothing waits for a retry.
  backoff_.clear();
  for (auto& [handle, job] : jobs_) {
    if (job.state != JobState::kDone && job.state != JobState::kFailed) {
      job.state = JobState::kFailed;
      job.error = broken_;
      job.error_message = broken_message_;
    }
  }
}

void ServeClient::HandleFrame(const DecodedFrame& frame) {
  switch (frame.kind) {
    case ServeFrame::kAccepted: {
      AcceptedMsg msg;
      if (DecodeAccepted(frame.payload, &msg)) {
        HandleAccepted(msg);
      }
      return;
    }
    case ServeFrame::kProgress: {
      ProgressMsg msg;
      if (!DecodeProgress(frame.payload, &msg)) {
        return;
      }
      if (PendingJob* job = ByServerJobId(msg.job_id)) {
        job->progress.push_back(std::move(msg));
      }
      return;
    }
    case ServeFrame::kResult: {
      ResultMsg msg;
      if (!DecodeResult(frame.payload, &msg)) {
        return;
      }
      PendingJob* job = ByServerJobId(msg.job_id);
      if (job == nullptr) {
        return;
      }
      job->state = JobState::kDone;
      job->result.reproduced = msg.reproduced;
      job->result.cached = msg.cached;
      job->result.coalesced = msg.coalesced;
      job->result.replay_rate = msg.rate_permille / 10.0;
      job->result.level = static_cast<int>(msg.level);
      job->result.schedules = static_cast<int>(msg.schedules);
      job->result.runs = static_cast<int>(msg.runs);
      job->result.schedule_yaml = std::move(msg.schedule_yaml);
      job->result.fault_summary = std::move(msg.fault_summary);
      return;
    }
    case ServeFrame::kError: {
      ErrorMsg msg;
      if (!DecodeError(frame.payload, &msg)) {
        return;
      }
      // job_id 0 = pre-admission rejection, correlated FIFO; otherwise the
      // server names the job.
      PendingJob* job =
          msg.job_id == 0 ? OldestAwaitingAccept() : ByServerJobId(msg.job_id);
      if (job == nullptr) {
        return;
      }
      if (msg.job_id == 0) {
        accept_fifo_.pop_front();
      }
      // Retryable rejections: queue-full always; a pre-admission kBadFrame on
      // a plain submit too — a half-closed transport can truncate the frame
      // mid-flight, and resending is safe because the idempotency token makes
      // a second accept for an already-registered original recognizable
      // (HandleAccepted drops it) instead of double-submitting. Stream opens
      // stay fail-fast: their data frames are gone with the connection.
      const bool retryable =
          msg.code == ServeError::kQueueFull ||
          (msg.code == ServeError::kBadFrame && msg.job_id == 0 && !job->is_stream);
      if (retryable && config_.auto_retry_queue_full &&
          job->attempts < config_.max_retries) {
        job->state = JobState::kBackoff;
        job->backoff_left = BackoffRounds(*job);
        backoff_.insert(job->handle);
        job->attempts++;
        return;
      }
      if (retryable && config_.auto_retry_queue_full) {
        // Every retry consumed: surface a client-side typed error instead of
        // the server's last rejection, so callers can tell "gave up after
        // backoff" from "rejected once with retries disabled".
        job->state = JobState::kFailed;
        job->error = ServeError::kRetriesExhausted;
        job->error_message =
            std::string(msg.code == ServeError::kQueueFull ? "queue full" : "bad frame") +
            " after " + std::to_string(job->attempts) + " retries: " + std::move(msg.message);
        return;
      }
      job->state = JobState::kFailed;
      job->error = msg.code;
      job->error_message = std::move(msg.message);
      return;
    }
    case ServeFrame::kStatsReply: {
      StatsMsg msg;
      if (DecodeStats(frame.payload, &msg)) {
        latest_stats_ = std::move(msg);
        stats_received_++;
      }
      return;
    }
    case ServeFrame::kThrottle: {
      ThrottleMsg msg;
      if (!DecodeThrottle(frame.payload, &msg)) {
        return;
      }
      if (PendingJob* job = ByServerJobId(msg.job_id)) {
        if (msg.on && !job->throttled) {
          throttle_events_++;
        }
        job->throttled = msg.on;
      }
      return;
    }
    case ServeFrame::kSubmit:
    case ServeFrame::kStatsRequest:
    case ServeFrame::kStreamOpen:
    case ServeFrame::kStreamData:
    case ServeFrame::kStreamClose:
      return;  // Client never receives these; skip per protocol rules.
  }
}

void ServeClient::HandleAccepted(const AcceptedMsg& msg) {
  // Servers echo the submission's token: claim the first awaiting FIFO entry
  // carrying it. If a resent submission's original actually registered, the
  // server answers twice with the same token — by the second accept the job
  // is no longer awaiting, nothing matches, and the duplicate is dropped
  // WITHOUT popping the FIFO (popping would steal the next submission's
  // accept and shift every later correlation by one).
  PendingJob* job = nullptr;
  for (auto it = accept_fifo_.begin(); it != accept_fifo_.end(); ++it) {
    auto jit = jobs_.find(*it);
    if (jit == jobs_.end() || jit->second.state != JobState::kAwaitingAccept) {
      continue;
    }
    if (jit->second.token == msg.token) {
      job = &jit->second;
      accept_fifo_.erase(it);
      break;
    }
  }
  if (job == nullptr) {
    return;  // Duplicate (or unknown) token — swallow.
  }
  job->state = JobState::kAccepted;
  job->server_job_id = msg.job_id;
  job->accept_kind = msg.kind;
  if (job->is_stream) {
    if (!job->stream_staged.empty()) {
      link_.Send(ServeFrame::kStreamData,
                 EncodeStreamData(job->server_job_id, job->stream_staged));
      job->stream_staged.clear();
      job->stream_staged.shrink_to_fit();
    }
    if (job->close_requested) {
      link_.Send(ServeFrame::kStreamClose,
                 EncodeStreamClose(StreamCloseMsg{job->server_job_id}));
    }
  }
}

ServeClient::PendingJob* ServeClient::OldestAwaitingAccept() {
  while (!accept_fifo_.empty()) {
    auto it = jobs_.find(accept_fifo_.front());
    if (it != jobs_.end() && it->second.state == JobState::kAwaitingAccept) {
      return &it->second;
    }
    accept_fifo_.pop_front();  // Stale entry (job already resolved).
  }
  return nullptr;
}

ServeClient::PendingJob* ServeClient::ByServerJobId(uint64_t job_id) {
  for (auto& [handle, job] : jobs_) {
    if (job.server_job_id == job_id && job.state == JobState::kAccepted) {
      return &job;
    }
  }
  return nullptr;
}

const ServeClient::PendingJob& ServeClient::Get(uint64_t handle) const {
  static const PendingJob kEmpty;
  auto it = jobs_.find(handle);
  return it == jobs_.end() ? kEmpty : it->second;
}

bool ServeClient::done(uint64_t handle) const {
  JobState state = Get(handle).state;
  return state == JobState::kDone || state == JobState::kFailed;
}

bool ServeClient::failed(uint64_t handle) const {
  return Get(handle).state == JobState::kFailed;
}

ServeError ServeClient::error_code(uint64_t handle) const { return Get(handle).error; }

const std::string& ServeClient::error_message(uint64_t handle) const {
  return Get(handle).error_message;
}

const ServeJobResult& ServeClient::result(uint64_t handle) const {
  return Get(handle).result;
}

AcceptKind ServeClient::accept_kind(uint64_t handle) const {
  return Get(handle).accept_kind;
}

std::vector<ProgressMsg> ServeClient::TakeProgress(uint64_t handle) {
  auto it = jobs_.find(handle);
  if (it == jobs_.end()) {
    return {};
  }
  std::vector<ProgressMsg> out = std::move(it->second.progress);
  it->second.progress.clear();
  return out;
}

bool ServeClient::all_done() const {
  for (const auto& [handle, job] : jobs_) {
    if (job.state != JobState::kDone && job.state != JobState::kFailed) {
      return false;
    }
  }
  return true;
}

}  // namespace rose
