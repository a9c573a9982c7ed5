#include "src/serve/protocol.h"

#include "src/analyze/trace_validator.h"
#include "src/common/strings.h"

namespace rose {

std::string_view ServeErrorName(ServeError error) {
  switch (error) {
    case ServeError::kNone: return "none";
    case ServeError::kQueueFull: return "queue_full";
    case ServeError::kInvalidTrace: return "invalid_trace";
    case ServeError::kUnknownBug: return "unknown_bug";
    case ServeError::kBadFrame: return "bad_frame";
    case ServeError::kVersionMismatch: return "version_mismatch";
    case ServeError::kMalformedRequest: return "malformed_request";
    case ServeError::kRetriesExhausted: return "retries_exhausted";
    case ServeError::kConnectionLost: return "connection_lost";
  }
  return "?";
}

std::string ProgressMsg::ToString() const {
  const char* what = "";
  switch (kind) {
    case ProgressKind::kRunning: what = "running"; break;
    case ProgressKind::kLevelStart: what = "level-start"; break;
    case ProgressKind::kCandidate: what = "candidate"; break;
    case ProgressKind::kConfirm: what = "confirm"; break;
  }
  std::string line = StrFormat("job %llu %s L%u sched=%u runs=%u rate=%.1f%%",
                               static_cast<unsigned long long>(job_id), what, level,
                               schedules, runs, static_cast<double>(rate_permille) / 10.0);
  if (!detail.empty()) {
    line += "  [" + detail + "]";
  }
  return line;
}

// --- Framing -----------------------------------------------------------------

void AppendServeHeader(std::string* out) {
  AppendHeader(out, kServeFormat, kServeProtocolVersion);
}

void AppendServeFrame(std::string* out, ServeFrame kind, std::string_view payload) {
  AppendFrame(out, static_cast<uint8_t>(kind), payload);
}

FrameDecoder::Status FrameDecoder::Next(DecodedFrame* out) {
  Frame frame;
  switch (reader_.Next(&frame)) {
    case FrameReader::Status::kNeedMore:
      return Status::kNeedMore;
    case FrameReader::Status::kBadCrc:
      return Status::kCorruptFrame;
    case FrameReader::Status::kBadStream:
      return Status::kBadStream;
    case FrameReader::Status::kFrame:
      break;
  }
  out->kind = static_cast<ServeFrame>(frame.kind);
  out->payload.assign(frame.payload.data(), frame.payload.size());
  return Status::kFrame;
}

// --- Connections ---------------------------------------------------------------

ServeConnection::ServeConnection(std::shared_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  AppendServeHeader(outbox_.tail());
}

void ServeConnection::Send(ServeFrame kind, std::string_view payload) {
  if (!closed_) {
    AppendServeFrame(outbox_.tail(), kind, payload);
  }
}

FrameDecoder::Status ServeConnection::Next(DecodedFrame* out) {
  const FrameDecoder::Status status = decoder_.Next(out);
  if (status != FrameDecoder::Status::kNeedMore) {
    return status;
  }
  bool fed = false;
  for (std::string chunk = transport_->Read(kTransportReadSize); !chunk.empty();
       chunk = transport_->Read(kTransportReadSize)) {
    decoder_.Feed(chunk);
    fed = true;
  }
  return fed ? decoder_.Next(out) : status;
}

void ServeConnection::Flush() {
  if (!closed_) {
    outbox_.Flush(*transport_);
  }
}

void ServeConnection::Close() {
  Flush();
  closed_ = true;
  transport_->Close();
}

// --- Message codecs ----------------------------------------------------------

std::string EncodeSubmitBlob(std::string_view bug_id, uint64_t seed, std::string_view tag,
                             std::string_view profile_text, std::string_view trace_blob,
                             uint64_t token) {
  std::string payload;
  payload.reserve(bug_id.size() + tag.size() + profile_text.size() + trace_blob.size() + 32);
  PutBytes(&payload, bug_id);
  PutVarint(&payload, seed);
  PutBytes(&payload, tag);
  PutBytes(&payload, profile_text);
  PutBytes(&payload, trace_blob);
  if (token != 0) {
    // Optional trailing idempotency token. Pre-token decoders stop after
    // the blob and ignore trailing bytes, so this is additive within v1 —
    // and omitting it when 0 keeps historical submissions byte-identical.
    PutVarint(&payload, token);
  }
  return payload;
}

bool DecodeSubmitEnvelope(std::string payload, SubmitEnvelope* out) {
  std::string_view rest = payload;
  const char* base = rest.data();
  std::string_view bug_id;
  std::string_view tag;
  std::string_view profile_text;
  std::string_view trace_blob;
  uint64_t seed = 0;
  if (!GetBytes(&rest, &bug_id) || !GetVarint(&rest, &seed) ||
      !GetBytes(&rest, &tag) || !GetBytes(&rest, &profile_text) ||
      !GetBytes(&rest, &trace_blob)) {
    return false;
  }
  if (!ParseProfile(profile_text, &out->profile_)) {
    return false;
  }
  out->token_ = 0;
  if (!rest.empty() && !GetVarint(&rest, &out->token_)) {
    return false;
  }
  out->seed_ = seed;
  out->bug_id_off_ = static_cast<size_t>(bug_id.data() - base);
  out->bug_id_len_ = bug_id.size();
  out->tag_off_ = static_cast<size_t>(tag.data() - base);
  out->tag_len_ = tag.size();
  out->profile_off_ = static_cast<size_t>(profile_text.data() - base);
  out->profile_len_ = profile_text.size();
  out->trace_off_ = static_cast<size_t>(trace_blob.data() - base);
  out->trace_len_ = trace_blob.size();
  // Adopt last: the offsets above were measured against the same buffer the
  // move transfers (or, for SSO-short payloads, against bytes the offsets
  // re-find in the new buffer).
  out->payload_ = std::move(payload);
  return true;
}

ServeError AdmitSubmit(std::string payload, SubmitEnvelope* env, uint64_t* trace_hash,
                       std::string* why) {
  if (!DecodeSubmitEnvelope(std::move(payload), env)) {
    *why = "submit payload does not decode";
    return ServeError::kMalformedRequest;
  }
  // One streaming pass over the RTRC blob yields the canonical hash and the
  // container verdict (TB2xx: truncation, CRC) without building a Trace.
  size_t event_count = 0;
  std::vector<Diagnostic> container_diags;
  CanonicalBlobHash(env->trace_blob(), trace_hash, &container_diags, &event_count);
  if (HasErrors(container_diags)) {
    *why = "trace container damaged: " + container_diags.front().ToString();
    return ServeError::kInvalidTrace;
  }
  if (event_count == 0) {
    *why = "trace decoded to zero events";
    return ServeError::kInvalidTrace;
  }
  return ServeError::kNone;
}

std::string EncodeAccepted(const AcceptedMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.job_id);
  payload.push_back(static_cast<char>(msg.kind));
  PutVarint(&payload, msg.queue_depth);
  if (msg.token != 0) {
    PutVarint(&payload, msg.token);  // Optional trailing echo; see header.
  }
  return payload;
}

bool DecodeAccepted(std::string_view payload, AcceptedMsg* out) {
  if (!GetVarint(&payload, &out->job_id) || payload.empty()) {
    return false;
  }
  const uint8_t kind = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (kind > static_cast<uint8_t>(AcceptKind::kStream)) {
    return false;
  }
  out->kind = static_cast<AcceptKind>(kind);
  if (!GetVarint(&payload, &out->queue_depth)) {
    return false;
  }
  out->token = 0;
  return payload.empty() || GetVarint(&payload, &out->token);
}

std::string EncodeStreamOpen(const StreamOpenMsg& msg) {
  std::string payload;
  PutBytes(&payload, msg.bug_id);
  PutVarint(&payload, msg.seed);
  PutBytes(&payload, msg.tag);
  PutBytes(&payload, msg.profile_text);
  PutVarint(&payload, msg.token);
  return payload;
}

bool DecodeStreamOpen(std::string_view payload, StreamOpenMsg* out) {
  std::string_view bug_id;
  std::string_view tag;
  std::string_view profile_text;
  if (!GetBytes(&payload, &bug_id) || !GetVarint(&payload, &out->seed) ||
      !GetBytes(&payload, &tag) || !GetBytes(&payload, &profile_text) ||
      !GetVarint(&payload, &out->token)) {
    return false;
  }
  out->bug_id = std::string(bug_id);
  out->tag = std::string(tag);
  out->profile_text = std::string(profile_text);
  return true;
}

std::string EncodeStreamData(uint64_t job_id, std::string_view chunk) {
  std::string payload;
  payload.reserve(chunk.size() + 10);
  PutVarint(&payload, job_id);
  payload.append(chunk.data(), chunk.size());
  return payload;
}

bool DecodeStreamData(std::string_view payload, uint64_t* job_id, std::string_view* chunk) {
  if (!GetVarint(&payload, job_id)) {
    return false;
  }
  *chunk = payload;  // The rest of the frame is the raw RTRC byte run.
  return true;
}

std::string EncodeStreamClose(const StreamCloseMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.job_id);
  return payload;
}

bool DecodeStreamClose(std::string_view payload, StreamCloseMsg* out) {
  return GetVarint(&payload, &out->job_id) && payload.empty();
}

std::string EncodeThrottle(const ThrottleMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.job_id);
  payload.push_back(msg.on ? 1 : 0);
  PutVarint(&payload, msg.resident_bytes);
  return payload;
}

bool DecodeThrottle(std::string_view payload, ThrottleMsg* out) {
  if (!GetVarint(&payload, &out->job_id) || payload.empty()) {
    return false;
  }
  out->on = payload[0] != 0;
  payload.remove_prefix(1);
  return GetVarint(&payload, &out->resident_bytes) && payload.empty();
}

std::string EncodeProgress(const ProgressMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.job_id);
  payload.push_back(static_cast<char>(msg.kind));
  PutVarint(&payload, msg.level);
  PutVarint(&payload, msg.schedules);
  PutVarint(&payload, msg.runs);
  PutVarint(&payload, msg.rate_permille);
  PutBytes(&payload, msg.detail);
  return payload;
}

bool DecodeProgress(std::string_view payload, ProgressMsg* out) {
  if (!GetVarint(&payload, &out->job_id) || payload.empty()) {
    return false;
  }
  const uint8_t kind = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (kind > static_cast<uint8_t>(ProgressKind::kConfirm)) {
    return false;
  }
  out->kind = static_cast<ProgressKind>(kind);
  uint64_t level = 0, schedules = 0, runs = 0, rate = 0;
  std::string_view detail;
  if (!GetVarint(&payload, &level) || !GetVarint(&payload, &schedules) ||
      !GetVarint(&payload, &runs) || !GetVarint(&payload, &rate) ||
      !GetBytes(&payload, &detail)) {
    return false;
  }
  out->level = static_cast<uint32_t>(level);
  out->schedules = static_cast<uint32_t>(schedules);
  out->runs = static_cast<uint32_t>(runs);
  out->rate_permille = static_cast<uint32_t>(rate);
  out->detail = std::string(detail);
  return true;
}

std::string EncodeResult(const ResultMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.job_id);
  const uint8_t flags = static_cast<uint8_t>((msg.reproduced ? 1 : 0) |
                                             (msg.cached ? 2 : 0) | (msg.coalesced ? 4 : 0));
  payload.push_back(static_cast<char>(flags));
  PutVarint(&payload, msg.rate_permille);
  PutVarint(&payload, msg.level);
  PutVarint(&payload, msg.schedules);
  PutVarint(&payload, msg.runs);
  PutBytes(&payload, msg.schedule_yaml);
  PutBytes(&payload, msg.fault_summary);
  return payload;
}

bool DecodeResult(std::string_view payload, ResultMsg* out) {
  if (!GetVarint(&payload, &out->job_id) || payload.empty()) {
    return false;
  }
  const uint8_t flags = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  out->reproduced = (flags & 1) != 0;
  out->cached = (flags & 2) != 0;
  out->coalesced = (flags & 4) != 0;
  uint64_t rate = 0, level = 0, schedules = 0, runs = 0;
  std::string_view yaml;
  std::string_view summary;
  if (!GetVarint(&payload, &rate) || !GetVarint(&payload, &level) ||
      !GetVarint(&payload, &schedules) || !GetVarint(&payload, &runs) ||
      !GetBytes(&payload, &yaml) || !GetBytes(&payload, &summary)) {
    return false;
  }
  out->rate_permille = static_cast<uint32_t>(rate);
  out->level = static_cast<uint32_t>(level);
  out->schedules = static_cast<uint32_t>(schedules);
  out->runs = static_cast<uint32_t>(runs);
  out->schedule_yaml = std::string(yaml);
  out->fault_summary = std::string(summary);
  return true;
}

std::string EncodeError(const ErrorMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.job_id);
  payload.push_back(static_cast<char>(msg.code));
  PutBytes(&payload, msg.message);
  return payload;
}

std::string EncodeStats(const StatsMsg& msg) {
  std::string payload;
  PutVarint(&payload, msg.jobs_submitted);
  PutVarint(&payload, msg.jobs_completed);
  PutVarint(&payload, msg.cache_hits);
  PutVarint(&payload, msg.coalesced);
  PutVarint(&payload, msg.rejected_queue_full);
  PutVarint(&payload, msg.rejected_invalid);
  PutVarint(&payload, msg.corrupt_frames);
  PutVarint(&payload, msg.engine_runs);
  PutVarint(&payload, msg.queued_jobs);
  PutVarint(&payload, msg.running_jobs);
  PutBytes(&payload, msg.metrics_yaml);
  return payload;
}

bool DecodeStats(std::string_view payload, StatsMsg* out) {
  if (!GetVarint(&payload, &out->jobs_submitted) ||
      !GetVarint(&payload, &out->jobs_completed) ||
      !GetVarint(&payload, &out->cache_hits) ||
      !GetVarint(&payload, &out->coalesced) ||
      !GetVarint(&payload, &out->rejected_queue_full) ||
      !GetVarint(&payload, &out->rejected_invalid) ||
      !GetVarint(&payload, &out->corrupt_frames) ||
      !GetVarint(&payload, &out->engine_runs) ||
      !GetVarint(&payload, &out->queued_jobs) ||
      !GetVarint(&payload, &out->running_jobs)) {
    return false;
  }
  std::string_view yaml;
  if (!GetBytes(&payload, &yaml)) {
    return false;
  }
  out->metrics_yaml = std::string(yaml);
  return true;
}

std::string StatsMsg::ToString() const {
  return StrFormat(
      "jobs: %llu submitted, %llu done, %llu queued, %llu running | cache: %llu hits, "
      "%llu coalesced | rejects: %llu full, %llu invalid | %llu corrupt frames | "
      "%llu engine runs",
      static_cast<unsigned long long>(jobs_submitted),
      static_cast<unsigned long long>(jobs_completed),
      static_cast<unsigned long long>(queued_jobs),
      static_cast<unsigned long long>(running_jobs),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(rejected_queue_full),
      static_cast<unsigned long long>(rejected_invalid),
      static_cast<unsigned long long>(corrupt_frames),
      static_cast<unsigned long long>(engine_runs));
}

bool DecodeError(std::string_view payload, ErrorMsg* out) {
  if (!GetVarint(&payload, &out->job_id) || payload.empty()) {
    return false;
  }
  const uint8_t code = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (code > static_cast<uint8_t>(ServeError::kMalformedRequest)) {
    return false;
  }
  out->code = static_cast<ServeError>(code);
  std::string_view message;
  if (!GetBytes(&payload, &message)) {
    return false;
  }
  out->message = std::string(message);
  return true;
}

// --- Profile baseline serialization ------------------------------------------

std::string SerializeProfile(const Profile& profile) {
  std::string out = "rose-profile v1\n";
  out += StrFormat("duration %lld\n", static_cast<long long>(profile.duration));
  for (int32_t fid : profile.monitored_functions) {
    out += StrFormat("monitored %d\n", fid);
  }
  for (const auto& [fid, count] : profile.function_counts) {
    out += StrFormat("function %d %llu\n", fid, static_cast<unsigned long long>(count));
  }
  for (const auto& [sys, count] : profile.syscall_counts) {
    out += StrFormat("syscall %d %llu\n", sys, static_cast<unsigned long long>(count));
  }
  for (const std::string& sig : profile.benign_scf_signatures) {
    out += "benign_scf " + sig + "\n";
  }
  for (const auto& [src, dst] : profile.benign_nd_pairs) {
    out += "benign_nd " + src + " " + dst + "\n";
  }
  return out;
}

bool ParseProfile(std::string_view text, Profile* out) {
  *out = Profile();
  bool saw_header = false;
  for (const std::string& raw : Split(text, '\n')) {
    const std::string_view line = StripWhitespace(raw);
    if (line.empty()) {
      continue;
    }
    if (!saw_header) {
      if (line != "rose-profile v1") {
        return false;
      }
      saw_header = true;
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return false;
    }
    const std::string_view key = line.substr(0, space);
    const std::string_view rest = line.substr(space + 1);
    if (key == "duration") {
      int64_t value = 0;
      if (!ParseInt64(rest, &value)) {
        return false;
      }
      out->duration = value;
    } else if (key == "monitored") {
      int64_t fid = 0;
      if (!ParseInt64(rest, &fid)) {
        return false;
      }
      out->monitored_functions.insert(static_cast<int32_t>(fid));
    } else if (key == "function" || key == "syscall") {
      const size_t sep = rest.find(' ');
      int64_t id = 0;
      uint64_t count = 0;
      if (sep == std::string_view::npos || !ParseInt64(rest.substr(0, sep), &id) ||
          !ParseUint64(StripWhitespace(rest.substr(sep + 1)), &count)) {
        return false;
      }
      auto& map = key == "function" ? out->function_counts : out->syscall_counts;
      map[static_cast<int32_t>(id)] = count;
    } else if (key == "benign_scf") {
      out->benign_scf_signatures.insert(std::string(rest));
    } else if (key == "benign_nd") {
      const size_t sep = rest.find(' ');
      if (sep == std::string_view::npos) {
        return false;
      }
      out->benign_nd_pairs.emplace(std::string(rest.substr(0, sep)),
                                   std::string(StripWhitespace(rest.substr(sep + 1))));
    } else {
      // Unknown facts from a newer writer are skipped, mirroring the frame
      // rule: same-version extensions must stay readable.
      continue;
    }
  }
  return saw_header;
}

}  // namespace rose
