#include "src/common/framing.h"

#include <array>

namespace rose {

namespace {

void PutU16LE(std::string* out, uint16_t value) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>(value >> 8));
}

void PutU32LE(std::string* out, uint32_t value) {
  const char bytes[4] = {static_cast<char>(value & 0xff), static_cast<char>((value >> 8) & 0xff),
                         static_cast<char>((value >> 16) & 0xff),
                         static_cast<char>(value >> 24)};
  out->append(bytes, 4);
}

uint16_t GetU16LE(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               static_cast<uint8_t>(p[1]) << 8);
}

// Endian-neutral; the compilers of interest fold this to one mov on
// little-endian hosts.
uint32_t GetU32LE(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k further zero bytes, letting the hot loop fold
// eight input bytes per iteration with eight independent lookups. The
// resulting CRC is bit-identical to the byte-at-a-time form.
const std::array<std::array<uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; bit++) {
        crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; k++) {
      for (uint32_t i = 0; i < 256; i++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(std::string_view* data, uint64_t* value) {
  // One-byte fast path: the dominant case in event frames (deltas, small
  // ids, fds) — skips the shift/accumulate loop entirely.
  if (!data->empty()) {
    const auto byte0 = static_cast<uint8_t>((*data)[0]);
    if ((byte0 & 0x80) == 0) {
      data->remove_prefix(1);
      *value = byte0;
      return true;
    }
  }
  uint64_t result = 0;
  int shift = 0;
  size_t i = 0;
  while (i < data->size() && shift < 64) {
    const auto byte = static_cast<uint8_t>((*data)[i++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      data->remove_prefix(i);
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // Ran off the end, or more than 10 continuation bytes.
}

uint32_t Crc32(std::string_view data) {
  const auto& t = Crc32Tables();
  uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t one = crc ^ GetU32LE(p);
    const uint32_t two = GetU32LE(p + 4);
    crc = t[7][one & 0xff] ^ t[6][(one >> 8) & 0xff] ^ t[5][(one >> 16) & 0xff] ^
          t[4][one >> 24] ^ t[3][two & 0xff] ^ t[2][(two >> 8) & 0xff] ^
          t[1][(two >> 16) & 0xff] ^ t[0][two >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xff];
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out->append(bytes.data(), bytes.size());
}

bool GetBytes(std::string_view* data, std::string_view* out) {
  uint64_t len = 0;
  if (!GetVarint(data, &len) || len > data->size()) {
    return false;
  }
  *out = data->substr(0, static_cast<size_t>(len));
  data->remove_prefix(static_cast<size_t>(len));
  return true;
}

// --- Header and frames -------------------------------------------------------

void AppendHeader(std::string* out, const FrameFormat& format, uint16_t version) {
  out->append(format.magic, sizeof(format.magic));
  PutU16LE(out, version);
  PutU16LE(out, 0);  // Reserved.
}

void AppendFrame(std::string* out, uint8_t kind, std::string_view payload) {
  out->push_back(static_cast<char>(kind));
  PutU32LE(out, static_cast<uint32_t>(payload.size()));
  PutU32LE(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

HeaderStatus ReadHeader(const FrameFormat& format, std::string_view data, uint16_t* version) {
  const std::string_view magic(format.magic, sizeof(format.magic));
  if (!magic.starts_with(data.substr(0, magic.size()))) {
    return HeaderStatus::kBadMagic;
  }
  if (data.size() < kStreamHeaderSize) {
    return HeaderStatus::kShort;
  }
  *version = GetU16LE(data.data() + 4);
  return *version == 0 || *version > format.max_version ? HeaderStatus::kBadVersion
                                                        : HeaderStatus::kOk;
}

SplitResult SplitFrame(std::string_view* data, uint32_t max_payload, Frame* frame) {
  if (data->size() < kFrameHeaderSize) {
    return SplitResult::kShort;
  }
  frame->kind = static_cast<uint8_t>((*data)[0]);
  frame->length = GetU32LE(data->data() + 1);
  if (frame->length > max_payload) {
    return SplitResult::kTooLong;
  }
  if (data->size() - kFrameHeaderSize < frame->length) {
    return SplitResult::kShort;
  }
  const uint32_t crc = GetU32LE(data->data() + 5);
  frame->payload = data->substr(kFrameHeaderSize, frame->length);
  data->remove_prefix(kFrameHeaderSize + frame->length);
  return Crc32(frame->payload) == crc ? SplitResult::kFrame : SplitResult::kBadCrc;
}

// --- FrameReader --------------------------------------------------------------

void FrameReader::Feed(std::string_view bytes) {
  if (dead_) {
    return;
  }
  // Reclaim the consumed prefix once it dominates the buffer, amortizing the
  // memmove across many small frames.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameReader::Status FrameReader::Next(Frame* frame) {
  if (dead_) {
    return Status::kBadStream;
  }
  std::string_view rest = std::string_view(buffer_).substr(consumed_);
  if (version_ == 0) {
    uint16_t version = 0;
    switch (ReadHeader(format_, rest, &version)) {
      case HeaderStatus::kOk:
        break;
      case HeaderStatus::kShort:
        return Status::kNeedMore;
      case HeaderStatus::kBadMagic:
      case HeaderStatus::kBadVersion:
        return Die();
    }
    version_ = version;
    consumed_ += kStreamHeaderSize;
    rest.remove_prefix(kStreamHeaderSize);
  }
  const SplitResult split = SplitFrame(&rest, format_.max_payload, frame);
  if (split == SplitResult::kShort) {
    return Status::kNeedMore;
  }
  if (split == SplitResult::kTooLong) {
    // A length this large cannot be a real frame; resynchronization is
    // impossible without trusting it, so the stream is dead.
    return Die();
  }
  // The length is trusted, the payload is not: a CRC mismatch skips exactly
  // this frame.
  consumed_ += kFrameHeaderSize + frame->length;
  return split == SplitResult::kFrame ? Status::kFrame : Status::kBadCrc;
}

FrameReader::Status FrameReader::Die() {
  dead_ = true;
  buffer_ = std::string();
  consumed_ = 0;
  return Status::kBadStream;
}

}  // namespace rose
