// Read-only memory-mapped trace files (DESIGN.md §13).
//
// The diagnosis phase re-reads a dumped window many times; reading it
// through a stream copies every byte into a heap buffer before the first
// event decodes. MmapTraceFile maps the file instead (PROT_READ/MAP_PRIVATE)
// so the container bytes are paged in on demand: a reader that needs only
// the leading frames touches only their pages, and a CLI ships a mapped
// dump's bytes verbatim (MappedTrace::bytes). Files mmap refuses (exotic
// filesystems, say) fall back transparently to one fstat-sized read() into
// an owned buffer; `mapped()` reports which path was taken. An empty file
// opens as a valid, unmapped, empty range.
#ifndef SRC_TRACE_MMAP_FILE_H_
#define SRC_TRACE_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace rose {

// Reads all of `path` with one fstat + read loop into `*out` (preallocated
// to the file size — no stream-buffer double copy). False on failure, with
// the failing errno in `*errno_out` when non-null. The shared non-mmap load
// path for LoadTraceFile and the MmapTraceFile fallback.
bool ReadFileBytes(const std::string& path, std::string* out, int* errno_out = nullptr);

// Move-only RAII mapping of one file. Invalid instances hold no bytes.
class MmapTraceFile {
 public:
  MmapTraceFile() = default;
  ~MmapTraceFile() { Reset(); }

  MmapTraceFile(MmapTraceFile&& other) noexcept { *this = std::move(other); }
  MmapTraceFile& operator=(MmapTraceFile&& other) noexcept;
  MmapTraceFile(const MmapTraceFile&) = delete;
  MmapTraceFile& operator=(const MmapTraceFile&) = delete;

  // Maps `path` read-only; on any mmap failure falls back to ReadFileBytes.
  // An unreadable file yields an invalid instance with the errno in
  // `*errno_out`.
  static MmapTraceFile Open(const std::string& path, int* errno_out = nullptr);

  // The file's bytes — stable for the lifetime of this object (and only
  // that lifetime: views into a mapping dangle after destruction).
  std::string_view bytes() const { return {data_, size_}; }
  bool valid() const { return valid_; }
  // True when bytes() lives in an actual mmap region (vs the heap fallback).
  bool mapped() const { return mapped_; }
  size_t size() const { return size_; }

 private:
  void Reset();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool valid_ = false;
  bool mapped_ = false;
  std::string fallback_;  // Owns the bytes when !mapped_.
};

}  // namespace rose

#endif  // SRC_TRACE_MMAP_FILE_H_
