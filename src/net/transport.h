// Byte-stream transports for the diagnosis service (DESIGN.md §10).
//
// On Linux the rose_served daemon would listen on a Unix/TCP socket; this
// repo's OS substrate is simulated, so the "wire" is an in-process transport
// abstraction instead. The substitution is deliberate and narrow: only the
// bottom-most read/write syscalls are replaced. Everything a socket makes
// hard — partial writes under a bounded send buffer, short reads, half-close,
// frames split across arbitrary read boundaries — is preserved, so the serve
// protocol's framing, backpressure, and corruption handling are exercised for
// real in tests.
//
// One implementation: MakePipePair(), a connected pair of endpoints over two
// bounded byte queues (the loopback "wire"). A daemon's listen/accept is
// nothing more than the server end of a fresh pair.
//
// Thread safety: endpoints are internally locked, so a service Poll()ing on
// one thread and a client on another may share a pair. Determinism is the
// caller's concern — the serve tests pump client and server from one thread.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace rose {

// A bidirectional, bounded, in-order byte stream. Writes accept at most the
// free space of the peer-facing buffer (backpressure shows up as a short
// write, never blocking); reads drain whatever has arrived.
class Transport {
 public:
  virtual ~Transport() = default;

  // Appends up to buffer-space bytes of `data`; returns how many were
  // accepted (0 when the buffer is full or the stream is closed).
  virtual size_t Write(std::string_view data) = 0;

  // Removes and returns up to `max` buffered bytes (possibly fewer, possibly
  // empty — a short read, exactly like a socket).
  virtual std::string Read(size_t max) = 0;

  // Bytes currently readable / writable without blocking.
  virtual size_t readable() const = 0;
  virtual size_t writable() const = 0;

  // Half-closes the write side: the peer still drains what was sent, then
  // observes end-of-stream.
  virtual void Close() = 0;

  // True once the *peer* closed its write side and every byte it sent has
  // been read (end-of-stream for this endpoint's reads).
  virtual bool AtEof() const = 0;
};

inline constexpr size_t kDefaultTransportCapacity = 64 * 1024;
// How much one Read() asks for when an endpoint drains its transport.
inline constexpr size_t kTransportReadSize = 16 * 1024;

// Bytes waiting for a transport that accepts only what fits. Every endpoint
// of the serve plane writes through one (DESIGN.md §10), so this is the one
// place bytes leave a daemon, router, client or journal leader.
class Outbox {
 public:
  void Append(std::string_view bytes) { bytes_.append(bytes.data(), bytes.size()); }
  // The queue's backing string, for encoders that append in place. Only
  // append to it.
  std::string* tail() { return &bytes_; }

  // Writes as much of the queue as `transport` accepts. Sent bytes are
  // dropped once the queue empties, or once they pass 64 KiB and half the
  // buffer, so the sent prefix never outgrows both 64 KiB and the unsent rest.
  void Flush(Transport& transport);

  bool empty() const { return sent_ >= bytes_.size(); }

 private:
  std::string bytes_;
  size_t sent_ = 0;
};

// A connected endpoint pair sharing two bounded buffers (a.Write -> b.Read
// and vice versa). `capacity` bounds each direction independently.
std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>> MakePipePair(
    size_t capacity = kDefaultTransportCapacity);

}  // namespace rose

#endif  // SRC_NET_TRANSPORT_H_
