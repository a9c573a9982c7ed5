#include "src/cluster/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include "src/trace/mmap_file.h"

namespace rose {

// --- Record codecs -----------------------------------------------------------

std::string EncodeDispatch(const DispatchRecord& record) {
  std::string out;
  PutVarint(&out, record.job_id);
  PutVarint(&out, record.key);
  PutVarint(&out, record.trace_hash);
  PutBytes(&out, record.shard);
  PutVarint(&out, record.redispatch ? 1 : 0);
  PutBytes(&out, record.payload);
  return out;
}

bool DecodeDispatch(std::string_view payload, DispatchRecord* out) {
  uint64_t redispatch = 0;
  std::string_view shard;
  std::string_view submit;
  if (!GetVarint(&payload, &out->job_id) || !GetVarint(&payload, &out->key) ||
      !GetVarint(&payload, &out->trace_hash) || !GetBytes(&payload, &shard) ||
      !GetVarint(&payload, &redispatch) || !GetBytes(&payload, &submit)) {
    return false;
  }
  out->shard = std::string(shard);
  out->redispatch = redispatch != 0;
  out->payload = std::string(submit);
  return payload.empty();
}

std::string EncodeRingEpoch(const RingEpochRecord& record) {
  std::string out;
  PutVarint(&out, record.epoch);
  PutVarint(&out, record.shards.size());
  for (const std::string& shard : record.shards) {
    PutBytes(&out, shard);
  }
  return out;
}

bool DecodeRingEpoch(std::string_view payload, RingEpochRecord* out) {
  uint64_t count = 0;
  if (!GetVarint(&payload, &out->epoch) || !GetVarint(&payload, &count)) {
    return false;
  }
  out->shards.clear();
  for (uint64_t i = 0; i < count; i++) {
    std::string_view shard;
    if (!GetBytes(&payload, &shard)) {
      return false;
    }
    out->shards.emplace_back(shard);
  }
  return payload.empty();
}

std::string EncodeComplete(const CompleteRecord& record) {
  std::string out;
  PutVarint(&out, record.job_id);
  PutVarint(&out, record.reproduced ? 1 : 0);
  return out;
}

bool DecodeComplete(std::string_view payload, CompleteRecord* out) {
  uint64_t reproduced = 0;
  if (!GetVarint(&payload, &out->job_id) || !GetVarint(&payload, &reproduced)) {
    return false;
  }
  out->reproduced = reproduced != 0;
  return payload.empty();
}

// --- ClusterJournal ----------------------------------------------------------

namespace {

// Writes every byte to `fd` (continuing after short writes, stopping at an
// error), then fsyncs; returns the bytes written. The one write path for the
// leader's records and the follower's copy.
size_t WriteAndSync(int fd, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      break;
    }
    written += static_cast<size_t>(n);
  }
  ::fsync(fd);
  return written;
}

}  // namespace

ClusterJournal::ClusterJournal(const std::string& path, std::shared_ptr<Transport> follower)
    : follower_(std::move(follower)) {
  std::string intact = Replay(path);
  if (!path.empty()) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ >= 0) {
      // Position after the last intact record: replay dropped a torn tail,
      // and the file must agree before the next append.
      if (recovered_torn_tail_) {
        (void)::ftruncate(fd_, static_cast<off_t>(intact.size()));
      }
      (void)::lseek(fd_, static_cast<off_t>(intact.size()), SEEK_SET);
    }
  }
  if (intact.empty()) {
    AppendHeader(&intact, kJournalFormat, kJournalFormatVersion);
    Emit(intact);
  } else if (follower_ != nullptr) {
    outbox_.Append(intact);  // Already on disk; the follower starts at byte 0.
  }
}

ClusterJournal::~ClusterJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::string ClusterJournal::Replay(const std::string& path) {
  std::string bytes;
  if (path.empty() || !ReadFileBytes(path, &bytes) || bytes.empty()) {
    return {};
  }
  uint16_t version = 0;
  if (ReadHeader(kJournalFormat, bytes, &version) != HeaderStatus::kOk) {
    // Not a journal (or a torn or unknown header): refuse to adopt it.
    // Appends start a fresh stream at offset zero (the constructor
    // truncates).
    recovered_torn_tail_ = true;
    return {};
  }
  // Everything before the first short, over-long, CRC-broken or
  // undecodable record is intact; that record and all after it are the torn
  // tail of a crash mid-append.
  std::string_view rest = std::string_view(bytes).substr(kStreamHeaderSize);
  size_t last_good = kStreamHeaderSize;
  Frame frame;
  while (SplitFrame(&rest, kJournalFormat.max_payload, &frame) == SplitResult::kFrame) {
    bool decoded = true;
    switch (static_cast<JournalRecordType>(frame.kind)) {
      case JournalRecordType::kRingEpoch: {
        RingEpochRecord record;
        decoded = DecodeRingEpoch(frame.payload, &record);
        if (decoded) {
          last_epoch_ = std::move(record);
        }
        break;
      }
      case JournalRecordType::kDispatch: {
        DispatchRecord record;
        decoded = DecodeDispatch(frame.payload, &record);
        if (decoded) {
          if (record.job_id >= next_job_id_) {
            next_job_id_ = record.job_id + 1;
          }
          pending_[record.job_id] = std::move(record);
        }
        break;
      }
      case JournalRecordType::kComplete: {
        CompleteRecord record;
        decoded = DecodeComplete(frame.payload, &record);
        if (decoded) {
          pending_.erase(record.job_id);
        }
        break;
      }
      default:
        // Unknown record type from a future version: skip, framing is
        // self-describing (the serve protocol's extension rule).
        break;
    }
    if (!decoded) {
      break;  // A framed-but-undecodable record is corruption, not extension.
    }
    last_good = bytes.size() - rest.size();
    replayed_records_++;
  }
  recovered_torn_tail_ = last_good != bytes.size();
  bytes.resize(last_good);
  return bytes;
}

void ClusterJournal::Emit(std::string_view bytes) {
  if (fd_ >= 0) {
    bytes_written_ += WriteAndSync(fd_, bytes);
    fsyncs_++;
  }
  if (follower_ != nullptr) {
    outbox_.Append(bytes);
  }
}

void ClusterJournal::Append(JournalRecordType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(&frame, static_cast<uint8_t>(type), payload);
  appends_++;
  Emit(frame);
}

void ClusterJournal::AppendRingEpoch(const RingEpochRecord& record) {
  Append(JournalRecordType::kRingEpoch, EncodeRingEpoch(record));
  last_epoch_ = record;
}

void ClusterJournal::AppendDispatch(DispatchRecord record) {
  Append(JournalRecordType::kDispatch, EncodeDispatch(record));
  if (record.job_id >= next_job_id_) {
    next_job_id_ = record.job_id + 1;
  }
  const uint64_t job_id = record.job_id;
  pending_[job_id] = std::move(record);
}

void ClusterJournal::AppendComplete(const CompleteRecord& record) {
  Append(JournalRecordType::kComplete, EncodeComplete(record));
  pending_.erase(record.job_id);
}

void ClusterJournal::PumpReplication() {
  if (follower_ == nullptr) {
    return;
  }
  // A follower that hung up will never drain its backlog: drop it rather
  // than queue every later record for it.
  if (follower_->AtEof()) {
    follower_.reset();
    outbox_ = Outbox();
    return;
  }
  outbox_.Flush(*follower_);
}

// --- JournalFollower ---------------------------------------------------------

JournalFollower::JournalFollower(std::string path, std::shared_ptr<Transport> transport)
    : path_(std::move(path)), transport_(std::move(transport)) {
  if (!path_.empty()) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
}

JournalFollower::~JournalFollower() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void JournalFollower::Poll() {
  for (;;) {
    const std::string chunk = transport_->Read(kTransportReadSize);
    if (chunk.empty()) {
      return;
    }
    bytes_received_ += chunk.size();
    if (fd_ >= 0) {
      WriteAndSync(fd_, chunk);
    }
  }
}

}  // namespace rose
