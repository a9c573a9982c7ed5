#include "src/cluster/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

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

ClusterJournal::ClusterJournal(std::string path) : path_(std::move(path)) {
  Replay();
  if (!path_.empty()) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ >= 0) {
      // Position after the last intact record: replay truncated a torn tail
      // out of history_, and the file must agree before the next append.
      if (recovered_torn_tail_) {
        (void)::ftruncate(fd_, static_cast<off_t>(history_.size()));
      }
      (void)::lseek(fd_, static_cast<off_t>(history_.size()), SEEK_SET);
    }
  }
  if (history_.empty()) {
    AppendHeader(&history_, kJournalFormat, kJournalFormatVersion);
    if (fd_ >= 0) {
      (void)!::write(fd_, history_.data(), history_.size());
      ::fsync(fd_);
      fsyncs_++;
      bytes_written_ += history_.size();
    }
  }
}

ClusterJournal::~ClusterJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void ClusterJournal::Replay() {
  std::string bytes;
  if (path_.empty() || !ReadFileBytes(path_, &bytes) || bytes.empty()) {
    return;
  }
  uint16_t version = 0;
  if (ReadHeader(kJournalFormat, bytes, &version) != HeaderStatus::kOk) {
    // Not a journal (or a torn or unknown header): refuse to adopt it.
    // Appends start a fresh stream at offset zero (the constructor
    // truncates).
    recovered_torn_tail_ = true;
    return;
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
  history_ = std::move(bytes);
}

void ClusterJournal::Append(JournalRecordType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(&frame, static_cast<uint8_t>(type), payload);
  history_ += frame;
  appends_++;
  if (fd_ >= 0) {
    size_t written = 0;
    while (written < frame.size()) {
      const ssize_t n = ::write(fd_, frame.data() + written, frame.size() - written);
      if (n <= 0) {
        break;
      }
      written += static_cast<size_t>(n);
    }
    bytes_written_ += written;
    ::fsync(fd_);
    fsyncs_++;
  }
  for (Follower& follower : followers_) {
    follower.outbox.Append(frame);
  }
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

void ClusterJournal::AttachFollower(std::shared_ptr<Transport> transport) {
  Follower follower;
  follower.transport = std::move(transport);
  follower.outbox.Append(history_);  // Full history first, then tail.
  followers_.push_back(std::move(follower));
}

void ClusterJournal::PumpReplication() {
  // A follower that hung up will never drain its backlog: drop it rather
  // than queue every later record for it.
  followers_.erase(std::remove_if(followers_.begin(), followers_.end(),
                                  [](const Follower& f) { return f.transport->AtEof(); }),
                   followers_.end());
  for (Follower& follower : followers_) {
    follower.outbox.Flush(*follower.transport);
  }
}

bool ClusterJournal::replication_idle() const {
  for (const Follower& follower : followers_) {
    if (!follower.outbox.empty()) {
      return false;
    }
  }
  return true;
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
    bytes_ += chunk;
    if (fd_ >= 0) {
      size_t written = 0;
      while (written < chunk.size()) {
        const ssize_t n = ::write(fd_, chunk.data() + written, chunk.size() - written);
        if (n <= 0) {
          break;
        }
        written += static_cast<size_t>(n);
      }
      ::fsync(fd_);
    }
  }
}

}  // namespace rose
