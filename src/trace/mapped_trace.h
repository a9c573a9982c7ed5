// Mapped trace loading (DESIGN.md §13).
//
// A MappedTrace keeps a dump's container bytes alive (mmap via
// MmapTraceFile, or an adopted in-memory buffer) next to the owning Trace
// that Trace::ParseBinary decodes from them. The bytes are what a CLI ships
// over the serve wire verbatim (SubmitBlob), so a mapped dump is submitted
// without a heap read; the decoded trace is what diagnosis, validation and
// stats read through view(). Decoding is Trace::ParseBinary's — same
// frames, CRCs, diagnostics and trace_io.parse_* counts — so bytes without
// the RTRC magic (a text listing, say) decode to no events plus TB201.
//
// A MappedTrace is a cheap shared handle: copies share one backing mapping
// and decoded trace, and the mapping is unmapped when the last copy drops.
// TraceViews taken from it are valid only while some copy is alive — the
// guard() handle makes that testable (tests/trace_io_test.cc).
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

  // Maps `path` (falling back to a heap read where mmap refuses) and decodes
  // it. An unreadable file yields an invalid handle plus a TB206 diagnostic
  // with the errno text; container damage decodes the intact prefix and
  // appends TB2xx diagnostics, exactly as LoadTraceFile does.
  static MappedTrace OpenFile(const std::string& path);

  // Adopts `storage` (moved in without copying) as the backing bytes and
  // decodes it.
  static MappedTrace FromBuffer(std::string storage);

  // False only for default-constructed handles and unreadable files; damaged
  // containers are valid-with-diagnostics, matching LoadTraceFile.
  bool valid() const { return impl_ != nullptr; }

  // The decoded trace. Valid while any copy of this handle is alive.
  TraceView view() const;
  // The raw backing bytes (the RTRC container for binary dumps) — what a
  // blob submission ships over the serve wire. Same lifetime as view().
  std::string_view bytes() const;
  size_t event_count() const;
  const std::vector<Diagnostic>& diagnostics() const;

  // True when the backing bytes live in an mmap region (false for adopted
  // buffers and MmapTraceFile's read() fallback).
  bool mapped() const;
  size_t mapped_bytes() const;

  // A copy of the decoded trace (same ids and strings) for call sites that
  // must mutate it (Merge, AppendRemapped, --save after edits).
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
