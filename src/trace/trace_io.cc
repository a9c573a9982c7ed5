#include "src/trace/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace rose {

namespace {

// rose::obs self-metrics for the container codec (docs/metrics.md
// "trace_io.*"). Resolved once; recording is relaxed-atomic and write-only.
struct IoMetrics {
  Counter* serialize_calls;
  Counter* serialize_events;
  Counter* serialize_bytes;
  Histogram* serialize_ns;
  Counter* parse_calls;
  Counter* parse_events;
  Counter* parse_bytes;
  Histogram* parse_ns;
  Counter* crc_failures;
};

IoMetrics& Metrics() {
  static IoMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* metrics = new IoMetrics();
    metrics->serialize_calls = reg.GetCounter("trace_io.serialize_calls");
    metrics->serialize_events = reg.GetCounter("trace_io.serialize_events");
    metrics->serialize_bytes = reg.GetCounter("trace_io.serialize_bytes");
    metrics->serialize_ns = reg.GetHistogram("trace_io.serialize_ns");
    metrics->parse_calls = reg.GetCounter("trace_io.parse_calls");
    metrics->parse_events = reg.GetCounter("trace_io.parse_events");
    metrics->parse_bytes = reg.GetCounter("trace_io.parse_bytes");
    metrics->parse_ns = reg.GetHistogram("trace_io.parse_ns");
    metrics->crc_failures = reg.GetCounter("trace_io.crc_failures");
    return metrics;
  }();
  return *m;
}

}  // namespace

// --- Streaming frame protocol -----------------------------------------------

std::string EncodeStreamEpoch(const StreamEpoch& epoch) {
  std::string payload;
  PutVarint(&payload, epoch.epoch);
  PutVarint(&payload, ZigZagEncode(epoch.start_ts));
  PutBytes(&payload, epoch.source);
  return payload;
}

bool DecodeStreamEpoch(std::string_view payload, StreamEpoch* out) {
  uint64_t epoch = 0;
  uint64_t ts = 0;
  std::string_view source;
  if (!GetVarint(&payload, &epoch) || !GetVarint(&payload, &ts) ||
      !GetBytes(&payload, &source) || !payload.empty()) {
    return false;
  }
  out->epoch = epoch;
  out->start_ts = ZigZagDecode(ts);
  out->source.assign(source);
  return true;
}

std::string EncodeOracleMark(const OracleMark& mark) {
  std::string payload;
  PutVarint(&payload, ZigZagEncode(mark.ts));
  PutBytes(&payload, mark.detail);
  return payload;
}

bool DecodeOracleMark(std::string_view payload, OracleMark* out) {
  uint64_t ts = 0;
  std::string_view detail;
  if (!GetVarint(&payload, &ts) || !GetBytes(&payload, &detail) ||
      !payload.empty()) {
    return false;
  }
  out->ts = ZigZagDecode(ts);
  out->detail.assign(detail);
  return true;
}

bool DecodeRtrcPoolFrame(std::string_view payload, StringPool* pool) {
  uint64_t first_id = 0;
  uint64_t count = 0;
  if (!GetVarint(&payload, &first_id) || !GetVarint(&payload, &count)) {
    return false;
  }
  if (first_id != pool->size() || count > payload.size()) {
    // Ids must be dense and in stream order, or event ids resolve wrongly;
    // every string takes at least one byte, so a larger count is hostile.
    return false;
  }
  for (uint64_t i = 0; i < count; i++) {
    std::string_view s;
    // Intern hands back an existing id for an empty or duplicate string,
    // which would desynchronize ids.
    const size_t id = pool->size();
    if (!GetBytes(&payload, &s) || pool->Intern(s) != id) {
      return false;
    }
  }
  return payload.empty();
}

bool DecodeRtrcEventFrame(std::string_view payload, uint16_t format_version,
                          size_t pool_size, SimTime* prev_ts, std::vector<TraceEvent>* out) {
  uint64_t count = 0;
  if (!GetVarint(&payload, &count) || count > payload.size()) {
    return false;  // Every record takes at least one byte.
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; i++) {
    uint64_t raw = 0;
    if (!GetVarint(&payload, &raw)) {
      return false;
    }
    TraceEvent event;
    // Deltas wrap modulo 2^64 on both sides, so any int64 sequence
    // round-trips and hostile deltas cannot overflow.
    event.ts = static_cast<SimTime>(static_cast<uint64_t>(*prev_ts) +
                                    static_cast<uint64_t>(ZigZagDecode(raw)));
    *prev_ts = event.ts;
    if (payload.empty()) {
      return false;
    }
    const auto type = static_cast<uint8_t>(payload[0]);
    payload.remove_prefix(1);
    if (type > static_cast<uint8_t>(EventType::kPS)) {
      return false;
    }
    event.type = static_cast<EventType>(type);
    if (!GetVarint(&payload, &raw)) {
      return false;
    }
    event.node = static_cast<NodeId>(ZigZagDecode(raw));
    switch (event.type) {
      case EventType::kSCF: {
        ScfInfo info;
        uint64_t sys = 0;
        uint64_t filename = 0;
        uint64_t err = 0;
        uint64_t pid = 0;
        uint64_t fd = 0;
        if (!GetVarint(&payload, &pid) || !GetVarint(&payload, &sys) ||
            !GetVarint(&payload, &fd) || !GetVarint(&payload, &filename) ||
            !GetVarint(&payload, &err) || filename >= pool_size) {
          return false;
        }
        info.pid = static_cast<Pid>(ZigZagDecode(pid));
        info.sys = static_cast<Sys>(sys);
        info.fd = static_cast<int32_t>(ZigZagDecode(fd));
        info.filename = static_cast<StrId>(filename);
        info.err = static_cast<Err>(err);
        if (format_version >= 2) {
          // Version 2's execution-index stamp (context digest, sequence
          // number): read past, never kept.
          uint64_t stamp = 0;
          if (!GetVarint(&payload, &stamp) || !GetVarint(&payload, &stamp)) {
            return false;
          }
        }
        event.info = info;
        break;
      }
      case EventType::kAF: {
        AfInfo info;
        uint64_t pid = 0;
        uint64_t fid = 0;
        if (!GetVarint(&payload, &pid) || !GetVarint(&payload, &fid)) {
          return false;
        }
        info.pid = static_cast<Pid>(ZigZagDecode(pid));
        info.function_id = static_cast<int32_t>(ZigZagDecode(fid));
        event.info = info;
        break;
      }
      case EventType::kND: {
        NdInfo info;
        uint64_t src = 0;
        uint64_t dst = 0;
        uint64_t duration = 0;
        uint64_t packets = 0;
        if (!GetVarint(&payload, &src) || !GetVarint(&payload, &dst) ||
            !GetVarint(&payload, &duration) || !GetVarint(&payload, &packets) ||
            src >= pool_size || dst >= pool_size) {
          return false;
        }
        info.src_ip = static_cast<StrId>(src);
        info.dst_ip = static_cast<StrId>(dst);
        info.duration = ZigZagDecode(duration);
        info.packet_count = packets;
        event.info = info;
        break;
      }
      case EventType::kPS: {
        PsInfo info;
        uint64_t pid = 0;
        uint64_t duration = 0;
        if (!GetVarint(&payload, &pid) || payload.empty()) {
          return false;
        }
        info.pid = static_cast<Pid>(ZigZagDecode(pid));
        info.state = static_cast<ProcState>(payload[0]);
        payload.remove_prefix(1);
        if (!GetVarint(&payload, &duration)) {
          return false;
        }
        info.duration = ZigZagDecode(duration);
        event.info = info;
        break;
      }
    }
    out->push_back(event);
  }
  return payload.empty();
}

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(std::string* out, const StringPool* pool, size_t events_per_frame)
    : out_(out), pool_(pool), events_per_frame_(events_per_frame == 0 ? 1 : events_per_frame) {
  AppendRtrcHeader(out_);
}

void TraceWriter::FlushPool() {
  if (pool_flushed_ >= pool_->size()) {
    return;
  }
  std::string payload;
  PutVarint(&payload, pool_flushed_);
  PutVarint(&payload, pool_->size() - pool_flushed_);
  for (size_t id = pool_flushed_; id < pool_->size(); id++) {
    PutBytes(&payload, pool_->View(static_cast<StrId>(id)));
  }
  pool_flushed_ = pool_->size();
  AppendRtrcFrame(out_, kFramePool, payload);
}

void TraceWriter::FlushEvents() {
  if (buffered_ == 0) {
    return;
  }
  // Strings first: an event frame only references ids already streamed.
  FlushPool();
  std::string payload;
  PutVarint(&payload, buffered_);
  payload.append(events_payload_);
  AppendRtrcFrame(out_, kFrameEvents, payload);
  events_payload_.clear();
  buffered_ = 0;
}

void TraceWriter::Flush() {
  // FlushEvents emits the pool delta ahead of the event frame; the second
  // call covers pool growth with no buffered events (a pool-only delta).
  FlushEvents();
  FlushPool();
}

void TraceWriter::Add(const TraceEvent& event) {
  std::string* p = &events_payload_;
  PutVarint(p, ZigZagEncode(static_cast<int64_t>(static_cast<uint64_t>(event.ts) -
                                                 static_cast<uint64_t>(prev_ts_))));
  prev_ts_ = event.ts;
  p->push_back(static_cast<char>(event.type));
  PutVarint(p, ZigZagEncode(event.node));
  switch (event.type) {
    case EventType::kSCF: {
      const ScfInfo& info = event.scf();
      PutVarint(p, ZigZagEncode(info.pid));
      PutVarint(p, static_cast<uint64_t>(info.sys));
      PutVarint(p, ZigZagEncode(info.fd));
      PutVarint(p, info.filename);
      PutVarint(p, static_cast<uint64_t>(info.err));
      break;
    }
    case EventType::kAF: {
      const AfInfo& info = event.af();
      PutVarint(p, ZigZagEncode(info.pid));
      PutVarint(p, ZigZagEncode(info.function_id));
      break;
    }
    case EventType::kND: {
      const NdInfo& info = event.nd();
      PutVarint(p, info.src_ip);
      PutVarint(p, info.dst_ip);
      PutVarint(p, ZigZagEncode(info.duration));
      PutVarint(p, info.packet_count);
      break;
    }
    case EventType::kPS: {
      const PsInfo& info = event.ps();
      PutVarint(p, ZigZagEncode(info.pid));
      p->push_back(static_cast<char>(info.state));
      PutVarint(p, ZigZagEncode(info.duration));
      break;
    }
  }
  if (++buffered_ >= events_per_frame_) {
    FlushEvents();
  }
}

void TraceWriter::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  FlushEvents();
  // The full pool is part of the artifact even when no event references the
  // tail (e.g. an empty trace still round-trips its pool).
  FlushPool();
  AppendRtrcFrame(out_, kFrameEnd, {});
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(std::string_view data) : rest_(data) {
  uint16_t version = 0;
  switch (ReadHeader(kRtrcFormat, data, &version)) {
    case HeaderStatus::kOk:
      break;
    case HeaderStatus::kShort:
      Fail(DiagCode::kTruncatedTrace, Severity::kError,
           StrFormat("stream ends inside the container header (%zu bytes)", data.size()),
           "the dump was cut off while writing its first 8 bytes");
      return;
    case HeaderStatus::kBadMagic:
      Fail(DiagCode::kBadTraceMagic, Severity::kError,
           StrFormat("input does not start with the RTRC magic (%zu bytes)", data.size()),
           "text listings are display-only; load a binary dump");
      return;
    case HeaderStatus::kBadVersion:
      Fail(DiagCode::kBadTraceVersion, Severity::kError,
           StrFormat("container version %u, this reader understands 1..%u", version,
                     kRtrcFormat.max_version),
           "re-dump with this build, or upgrade the reader");
      return;
  }
  format_version_ = version;
  MetricRegistry::Global().GetGauge("trace_io.rtrc_version")->Set(version);
  rest_.remove_prefix(kStreamHeaderSize);
}

void TraceReader::Fail(DiagCode code, Severity severity, std::string message,
                       std::string hint) {
  Diagnostic diag;
  diag.code = code;
  diag.severity = severity;
  diag.message = std::move(message);
  diag.hint = std::move(hint);
  diags_.push_back(std::move(diag));
  if (severity == Severity::kError) {
    done_ = true;
  }
}

bool TraceReader::ok() const {
  for (const Diagnostic& diag : diags_) {
    if (diag.severity == Severity::kError) {
      return false;
    }
  }
  return true;
}

bool TraceReader::DecodeEventFrame(std::string_view payload) {
  frame_events_.clear();
  frame_pos_ = 0;
  return DecodeRtrcEventFrame(payload, format_version_, pool_.size(), &prev_ts_,
                              &frame_events_);
}

bool TraceReader::LoadFrame() {
  while (!done_) {
    if (rest_.empty()) {
      if (!saw_end_) {
        Fail(DiagCode::kTruncatedTrace, Severity::kError,
             "stream ends without an end-of-stream frame",
             "the dump was cut off at a frame boundary; events up to here are intact");
      }
      done_ = true;
      return false;
    }
    if (saw_end_) {
      Fail(DiagCode::kMalformedTraceFrame, Severity::kWarning,
           StrFormat("%zu trailing bytes after the end-of-stream frame", rest_.size()),
           "trailing garbage is ignored");
      done_ = true;
      return false;
    }
    // A dump is in hand as a whole, so no length cap applies: an announced
    // length past the end is truncation.
    Frame frame;
    switch (SplitFrame(&rest_, UINT32_MAX, &frame)) {
      case SplitResult::kFrame:
        break;
      case SplitResult::kShort:
      case SplitResult::kTooLong:
        if (rest_.size() < kFrameHeaderSize) {
          Fail(DiagCode::kTruncatedTrace, Severity::kError,
               StrFormat("stream ends inside a frame header (%zu bytes left)", rest_.size()),
               "the dump was cut off mid-frame; events up to here are intact");
        } else {
          Fail(DiagCode::kTruncatedTrace, Severity::kError,
               StrFormat("frame announces %u payload bytes but only %zu remain", frame.length,
                         rest_.size() - kFrameHeaderSize),
               "the dump was cut off mid-frame; events up to here are intact");
        }
        return false;
      case SplitResult::kBadCrc:
        Metrics().crc_failures->Inc();
        Fail(DiagCode::kCorruptTraceFrame, Severity::kError,
             StrFormat("frame payload (%u bytes, kind %u) fails its CRC32", frame.length,
                       frame.kind),
             "the dump was corrupted at rest; events before this frame are intact");
        return false;
    }
    switch (frame.kind) {
      case kFramePool:
        if (!DecodeRtrcPoolFrame(frame.payload, &pool_)) {
          Fail(DiagCode::kMalformedTraceFrame, Severity::kError,
               "string-pool frame does not decode",
               "the dump was written by a broken or incompatible writer");
          return false;
        }
        break;
      case kFrameEvents:
        if (!DecodeEventFrame(frame.payload)) {
          frame_events_.clear();
          frame_pos_ = 0;
          Fail(DiagCode::kMalformedTraceFrame, Severity::kError,
               "event frame does not decode",
               "the dump was written by a broken or incompatible writer");
          return false;
        }
        if (!frame_events_.empty()) {
          return true;
        }
        break;
      case kFrameEnd:
        saw_end_ = true;
        break;
      default:
        // Unknown frame kinds are skippable by construction (forward
        // compatibility): the CRC already proved the payload intact.
        break;
    }
  }
  return false;
}

bool TraceReader::Next(TraceEvent* out) {
  if (frame_pos_ >= frame_events_.size()) {
    if (!LoadFrame()) {
      return false;
    }
  }
  *out = frame_events_[frame_pos_++];
  return true;
}

// --- StreamDecoder ----------------------------------------------------------

StreamDecoder::Item StreamDecoder::Next() {
  for (;;) {
    Frame frame;
    switch (reader_.Next(&frame)) {
      case FrameReader::Status::kNeedMore:
        return Item::kNeedMore;
      case FrameReader::Status::kBadStream:
        return Item::kBadStream;
      case FrameReader::Status::kBadCrc:
        Metrics().crc_failures->Inc();
        corrupt_frames_++;
        return Item::kCorrupt;
      case FrameReader::Status::kFrame:
        break;
    }
    switch (frame.kind) {
      case kFramePool:
        if (!DecodeRtrcPoolFrame(frame.payload, &pool_)) {
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        break;  // Absorbed silently; keep scanning.
      case kFrameEvents:
        events_.clear();
        if (!DecodeRtrcEventFrame(frame.payload, reader_.version(), pool_.size(), &prev_ts_,
                                  &events_)) {
          events_.clear();
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        if (events_.empty()) {
          break;
        }
        return Item::kEvents;
      case kFrameEnd:
        return Item::kEnd;
      case kFrameStreamEpoch:
        if (!DecodeStreamEpoch(frame.payload, &epoch_)) {
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        return Item::kEpoch;
      case kFrameOracleMark:
        if (!DecodeOracleMark(frame.payload, &oracle_)) {
          corrupt_frames_++;
          return Item::kCorrupt;
        }
        return Item::kOracleMark;
      default:
        // Unknown kinds are skippable by construction (forward compat).
        break;
    }
  }
}

// --- Trace binary entry points ---------------------------------------------

std::string Trace::SerializeBinary() const {
  IoMetrics& metrics = Metrics();
  ScopedTimer timer(metrics.serialize_ns);
  std::string out;
  TraceWriter writer(&out, &pool_);
  for (const TraceEvent& event : events_) {
    writer.Add(event);
  }
  writer.Finish();
  metrics.serialize_calls->Inc();
  metrics.serialize_events->Inc(events_.size());
  metrics.serialize_bytes->Inc(out.size());
  return out;
}

Trace Trace::ParseBinary(std::string_view data, std::vector<Diagnostic>* diags) {
  IoMetrics& metrics = Metrics();
  ScopedTimer timer(metrics.parse_ns);
  TraceReader reader(data);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.Next(&event)) {
    events.push_back(event);
  }
  metrics.parse_calls->Inc();
  metrics.parse_events->Inc(events.size());
  metrics.parse_bytes->Inc(data.size());
  if (diags != nullptr) {
    diags->insert(diags->end(), reader.diagnostics().begin(), reader.diagnostics().end());
  }
  // The reader interned ids in stream order, so its pool resolves the
  // decoded events directly.
  return Trace(std::move(events), reader.ReleasePool());
}

bool ReadFileBytes(const std::string& path, std::string* out, int* errno_out) {
  if (errno_out != nullptr) {
    *errno_out = 0;
  }
  // fstat + read into an exact-sized buffer: one copy, no stringstream.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno_out != nullptr) {
      *errno_out = errno;
    }
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    if (errno_out != nullptr) {
      *errno_out = errno != 0 ? errno : EINVAL;
    }
    ::close(fd);
    return false;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n = ::read(fd, out->data() + done, out->size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno_out != nullptr) {
        *errno_out = errno;
      }
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;  // File shrank under us; keep what was read.
    }
    done += static_cast<size_t>(n);
  }
  out->resize(done);
  ::close(fd);
  return true;
}

LoadedTrace LoadTraceFile(const std::string& path) {
  LoadedTrace loaded;
  int read_errno = 0;
  if (!ReadFileBytes(path, &loaded.bytes, &read_errno)) {
    loaded.bytes.clear();
    Diagnostic diag;
    diag.code = DiagCode::kTraceFileUnreadable;
    diag.severity = Severity::kError;
    diag.message = StrFormat("cannot open trace file %s: %s", path.c_str(),
                             read_errno != 0 ? std::strerror(read_errno) : "unknown error");
    diag.hint = "check the path and permissions";
    loaded.diagnostics.push_back(std::move(diag));
    return loaded;
  }
  loaded.trace = Trace::ParseBinary(loaded.bytes, &loaded.diagnostics);
  return loaded;
}

bool SaveTraceFile(const std::string& path, const Trace& trace, bool text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  const std::string encoded = text ? trace.Serialize() : trace.SerializeBinary();
  out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  return out.good();
}

}  // namespace rose
