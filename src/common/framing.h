// Shared framing for Rose's binary formats (docs/wire_protocol.md).
//
// Trace dumps and streams (RTRC), serve connections (RSRV) and the router's
// journal (RJNL) all use one byte grammar:
//
//   header:  magic[4] | u16 version (LE) | u16 reserved
//   frame:   u8 kind | u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//
// A format is data — its magic, its highest version and its payload cap —
// and every rule here applies to all three alike: a header is valid when the
// magic matches and 1 <= version <= max_version. Payloads are built from the
// primitives below (LEB128 varints, zigzag, little-endian integers and
// varint-length-prefixed byte strings); what a payload means is each
// format's own business.
//
// Two ways to read frames:
//   - SplitFrame, a stateless splitter over bytes already in hand (a mapped
//     dump, a journal file). Its caller decides what a damaged frame means.
//   - FrameReader, an incremental reader for bytes arriving in chunks (a
//     serve connection, a trace stream). A length over the format's cap
//     kills the stream; a CRC mismatch skips exactly that frame.
#ifndef SRC_COMMON_FRAMING_H_
#define SRC_COMMON_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rose {

// --- Payload primitives ------------------------------------------------------

// LEB128 unsigned varint.
void PutVarint(std::string* out, uint64_t value);
// Consumes a varint from the front of `*data`; false on overrun/overflow.
bool GetVarint(std::string_view* data, uint64_t* value);

// Zigzag maps small-magnitude signed values (timestamp deltas, fds, pids)
// onto small unsigned varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320).
uint32_t Crc32(std::string_view data);

// A length-prefixed byte string: a varint byte count, then the bytes.
void PutBytes(std::string* out, std::string_view bytes);
// Consumes one length-prefixed byte string; `*out` views into `*data`.
bool GetBytes(std::string_view* data, std::string_view* out);

// --- Header and frames -------------------------------------------------------

struct FrameFormat {
  char magic[4];
  uint16_t max_version;
  // Largest payload an incremental reader buffers; a longer announced
  // length means the stream is desynchronized.
  uint32_t max_payload;
};

// magic + u16 version + u16 reserved.
inline constexpr size_t kStreamHeaderSize = 4 + 2 + 2;
// u8 kind + u32 payload_len + u32 crc32.
inline constexpr size_t kFrameHeaderSize = 1 + 4 + 4;

void AppendHeader(std::string* out, const FrameFormat& format, uint16_t version);
void AppendFrame(std::string* out, uint8_t kind, std::string_view payload);

enum class HeaderStatus : uint8_t {
  kOk,
  kShort,       // Fewer than kStreamHeaderSize bytes, all consistent so far.
  kBadMagic,
  kBadVersion,  // 0, or newer than format.max_version.
};

// Checks the stream header at the front of `data`, setting `*version` to
// the announced version whenever a whole header is present. The magic is
// checked over whatever bytes are present, so garbage is refused before a
// full header arrives.
HeaderStatus ReadHeader(const FrameFormat& format, std::string_view data, uint16_t* version);

struct Frame {
  uint8_t kind = 0;
  uint32_t length = 0;       // Announced payload length.
  std::string_view payload;  // Set for kFrame and kBadCrc.
};

enum class SplitResult : uint8_t {
  kFrame,    // `*frame` holds one intact frame; it was consumed from `*data`.
  kShort,    // `*data` holds less than one whole frame; nothing consumed.
  kTooLong,  // The announced length exceeds `max_payload`; nothing consumed.
  kBadCrc,   // The payload fails its CRC; the frame was consumed.
};

// Splits the frame at the front of `*data`. `frame->kind` and
// `frame->length` are set whenever a whole frame header is present.
SplitResult SplitFrame(std::string_view* data, uint32_t max_payload, Frame* frame);

// Reassembles frames of one format from a byte stream fed in arbitrary
// chunks. The header is checked first; after it, frames come out one at a
// time. Bytes fed to a dead reader are dropped, so memory stays bounded by
// the cap plus one frame header plus the last chunk.
class FrameReader {
 public:
  enum class Status : uint8_t {
    kNeedMore,   // No complete frame buffered; Feed() more bytes.
    kFrame,      // `*frame` holds the next intact frame.
    kBadCrc,     // One frame failed its CRC and was skipped.
    kBadStream,  // Bad header or a length over the cap; the reader is dead.
  };

  explicit FrameReader(const FrameFormat& format) : format_(format) {}

  void Feed(std::string_view bytes);
  // `frame->payload` views into the reader's buffer and stays valid until
  // the next Feed().
  Status Next(Frame* frame);

  // The version the stream header announced (0 before it arrived).
  uint16_t version() const { return version_; }
  bool dead() const { return dead_; }
  // Bytes fed but not yet consumed.
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Status Die();

  FrameFormat format_;
  std::string buffer_;
  size_t consumed_ = 0;
  uint16_t version_ = 0;
  bool dead_ = false;
};

}  // namespace rose

#endif  // SRC_COMMON_FRAMING_H_
