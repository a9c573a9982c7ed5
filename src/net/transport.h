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
// Two implementations:
//   - MakePipePair(): a connected pair of endpoints over two bounded byte
//     queues (the loopback "wire").
//   - SimSocketSpace: a Unix-socket-style namespace — a server Listen()s on a
//     path, clients Connect() to it, the server Accept()s the peer endpoint.
//     Connect fails when nobody listens or the backlog is full (the ECONNREFUSED
//     analogue).
//
// Thread safety: endpoints are internally locked, so a service Poll()ing on
// one thread and a client on another may share a pair. Determinism is the
// caller's concern — the serve tests pump client and server from one thread.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
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

// Unix-socket-style namespace for in-process endpoints.
class SimSocketSpace {
 public:
  explicit SimSocketSpace(size_t backlog = 8) : backlog_(backlog) {}

  // Claims `path`; false when already claimed.
  bool Listen(const std::string& path);
  void CloseListener(const std::string& path);

  // Creates a connected pair, queues the server end on `path`'s backlog, and
  // returns the client end — or nullptr when nobody listens or the backlog
  // is full.
  std::shared_ptr<Transport> Connect(const std::string& path,
                                     size_t capacity = kDefaultTransportCapacity);

  // Pops the next pending server-side endpoint for `path` (nullptr if none).
  std::shared_ptr<Transport> Accept(const std::string& path);

 private:
  mutable std::mutex mutex_;
  size_t backlog_;
  // path -> pending server-side endpoints (listening paths map to a queue,
  // possibly empty; absent key = not listening).
  std::map<std::string, std::deque<std::shared_ptr<Transport>>> listeners_;
};

}  // namespace rose

#endif  // SRC_NET_TRANSPORT_H_
