// Zero-copy trace loading (DESIGN.md §13).
//
// Trace::ParseBinary copies every pool string into a private arena and the
// whole file through a heap buffer before the first event is usable. For
// read-only consumers — diagnosis, validation, stats — those copies buy
// nothing: the events decode into one contiguous vector either way, and the
// pool strings already sit in the file bytes. MappedTrace keeps the file
// bytes alive (mmap via MmapTraceFile, or an adopted in-memory buffer from a
// serve submission) and decodes the RTRC frames with an external-arena
// StringPool whose entries are offsets into those bytes. CRC validation is
// unchanged — every frame is checked as the decode walk reaches it, which on
// a mapped file means pages fault in lazily instead of being read up front.
//
// A MappedTrace is a cheap shared handle: copies share one backing mapping
// and decoded state, and the mapping is unmapped when the last copy drops.
// TraceViews taken from it are valid only while some copy is alive — the
// guard() handle makes that testable (tests/trace_io_test.cc).
//
// Every valid handle is a zero-copy decode: bytes without the RTRC magic
// (a text listing, say) decode to no events plus a TB201 diagnostic, exactly
// as Trace::ParseBinary reports them.
#ifndef SRC_TRACE_MAPPED_TRACE_H_
#define SRC_TRACE_MAPPED_TRACE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/analyze/diagnostic.h"
#include "src/trace/event.h"
#include "src/trace/mmap_file.h"

namespace rose {

class MappedTrace {
 public:
  // An empty handle: valid() is false, view() is empty.
  MappedTrace() = default;

  // Maps `path` (heap read fallback off-POSIX) and decodes it. An unreadable
  // file yields an invalid handle plus a TB206 diagnostic with the errno
  // text; container damage decodes the intact prefix and appends TB2xx
  // diagnostics, exactly as LoadTraceFile does.
  static MappedTrace OpenFile(const std::string& path);

  // Adopts `storage` (e.g. a serve submission's trace blob, moved in without
  // copying) and decodes it in place. The decoded pool aliases `storage`'s
  // bytes, which the handle owns.
  static MappedTrace FromBuffer(std::string storage);

  // False only for default-constructed handles and unreadable files; damaged
  // containers are valid-with-diagnostics, matching LoadTraceFile.
  bool valid() const { return impl_ != nullptr; }

  // The decoded events + pool. Valid while any copy of this handle is alive.
  TraceView view() const;
  // The raw backing bytes (the RTRC container for binary dumps) — what a
  // zero-copy submission ships over the serve wire. Same lifetime as view().
  std::string_view bytes() const;
  size_t event_count() const;
  const std::vector<Diagnostic>& diagnostics() const;

  // True when the backing bytes live in an mmap region (false for adopted
  // buffers and MmapTraceFile's read() fallback).
  bool mapped() const;
  size_t mapped_bytes() const;

  // Copy-on-write promotion: materializes an owning Trace (private pool,
  // same ids — strings re-interned in id order) for call sites that must
  // mutate (Merge, AppendRemapped, --save after edits). Counted in
  // trace_io.promotions.
  Trace Promote() const;

  // Expires exactly when the last copy of this handle drops — a test can
  // hold this, release the handle, and assert the mapping is gone before
  // (not) touching the view.
  std::weak_ptr<const void> guard() const { return impl_; }

 private:
  struct Impl;
  static MappedTrace Decode(std::shared_ptr<Impl> impl);

  std::shared_ptr<Impl> impl_;
  // Set only on unreadable-file handles (no backing bytes, no Impl): the
  // TB206 diagnostic the caller reports. shared_ptr keeps copies cheap.
  std::shared_ptr<std::vector<Diagnostic>> invalid_diags_;
};

}  // namespace rose

#endif  // SRC_TRACE_MAPPED_TRACE_H_
