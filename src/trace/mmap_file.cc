#include "src/trace/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/obs/metrics.h"

namespace rose {

namespace {

// rose::obs self-metrics for the mapped load path (docs/metrics.md
// "trace_io.mmap_*").
struct MmapMetrics {
  Counter* opens;
  Counter* bytes;
  Counter* fallbacks;
};

MmapMetrics& Metrics() {
  static MmapMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* metrics = new MmapMetrics();
    metrics->opens = reg.GetCounter("trace_io.mmap_opens");
    metrics->bytes = reg.GetCounter("trace_io.mmap_bytes");
    metrics->fallbacks = reg.GetCounter("trace_io.mmap_fallbacks");
    return metrics;
  }();
  return *m;
}

}  // namespace

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

MmapTraceFile& MmapTraceFile::operator=(MmapTraceFile&& other) noexcept {
  if (this != &other) {
    Reset();
    fallback_ = std::move(other.fallback_);
    mapped_ = other.mapped_;
    valid_ = other.valid_;
    size_ = other.size_;
    // Fallback bytes live in fallback_, whose heap buffer just moved here;
    // recompute rather than trusting the moved-from pointer.
    data_ = mapped_ ? other.data_ : fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.valid_ = false;
    other.mapped_ = false;
  }
  return *this;
}

void MmapTraceFile::Reset() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
  mapped_ = false;
  fallback_.clear();
}

MmapTraceFile MmapTraceFile::Open(const std::string& path, int* errno_out) {
  MmapTraceFile file;
  if (errno_out != nullptr) {
    *errno_out = 0;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const auto size = static_cast<size_t>(st.st_size);
      if (size == 0) {
        // mmap(0) is EINVAL; an empty file is a valid (empty) byte range.
        ::close(fd);
        file.valid_ = true;
        Metrics().opens->Inc();
        return file;
      }
      void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (addr != MAP_FAILED) {
        file.data_ = static_cast<const char*>(addr);
        file.size_ = size;
        file.valid_ = true;
        file.mapped_ = true;
        Metrics().opens->Inc();
        Metrics().bytes->Inc(size);
        return file;
      }
    } else {
      ::close(fd);
    }
  }
  // mmap refused: one exact-sized read into an owned buffer.
  int read_errno = 0;
  if (!ReadFileBytes(path, &file.fallback_, &read_errno)) {
    if (errno_out != nullptr) {
      *errno_out = read_errno;
    }
    return file;
  }
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  file.valid_ = true;
  Metrics().fallbacks->Inc();
  return file;
}

}  // namespace rose
