#include "src/trace/mapped_trace.h"

#include <cstring>
#include <utility>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/trace/trace_io.h"

namespace rose {

namespace {

// rose::obs self-metrics for the zero-copy load path (docs/metrics.md
// "trace_io.*").
struct MappedMetrics {
  Counter* zero_copy_decodes;
  Counter* promotions;
};

MappedMetrics& Metrics() {
  static MappedMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* metrics = new MappedMetrics();
    metrics->zero_copy_decodes = reg.GetCounter("trace_io.zero_copy_decodes");
    metrics->promotions = reg.GetCounter("trace_io.promotions");
    return metrics;
  }();
  return *m;
}

}  // namespace

struct MappedTrace::Impl {
  // Exactly one of `file` / `buffer` backs `bytes`.
  MmapTraceFile file;
  std::string buffer;
  bool file_backed = false;

  std::vector<TraceEvent> events;
  StringPool pool;  // External arena over `bytes`.
  std::vector<Diagnostic> diags;

  std::string_view bytes() const { return file_backed ? file.bytes() : buffer; }
};

MappedTrace MappedTrace::Decode(std::shared_ptr<Impl> impl) {
  // Zero-copy walk: same frames, CRCs, and failure diagnostics as
  // Trace::ParseBinary, but pool strings stay in the backing bytes.
  const std::string_view bytes = impl->bytes();
  TraceReader reader(bytes, bytes.data());
  TraceEvent event;
  while (reader.Next(&event)) {
    impl->events.push_back(event);
  }
  impl->diags = reader.diagnostics();
  impl->pool = reader.ReleasePool();
  Metrics().zero_copy_decodes->Inc();
  MappedTrace out;
  out.impl_ = std::move(impl);
  return out;
}

MappedTrace MappedTrace::OpenFile(const std::string& path) {
  auto impl = std::make_shared<Impl>();
  int open_errno = 0;
  impl->file = MmapTraceFile::Open(path, &open_errno);
  if (!impl->file.valid()) {
    MappedTrace out;  // invalid(): unreadable file, nothing to decode.
    out.invalid_diags_ = std::make_shared<std::vector<Diagnostic>>();
    Diagnostic diag;
    diag.code = DiagCode::kTraceFileUnreadable;
    diag.severity = Severity::kError;
    diag.message = StrFormat("cannot open trace file %s: %s", path.c_str(),
                             open_errno != 0 ? std::strerror(open_errno) : "unknown error");
    diag.hint = "check the path and permissions";
    out.invalid_diags_->push_back(std::move(diag));
    return out;
  }
  impl->file_backed = true;
  return Decode(std::move(impl));
}

MappedTrace MappedTrace::FromBuffer(std::string storage) {
  auto impl = std::make_shared<Impl>();
  impl->buffer = std::move(storage);
  impl->file_backed = false;
  return Decode(std::move(impl));
}

TraceView MappedTrace::view() const {
  if (impl_ == nullptr) {
    return TraceView();
  }
  return TraceView(impl_->events.data(), impl_->events.size(), &impl_->pool);
}

std::string_view MappedTrace::bytes() const {
  return impl_ != nullptr ? impl_->bytes() : std::string_view();
}

size_t MappedTrace::event_count() const {
  return impl_ != nullptr ? impl_->events.size() : 0;
}

const std::vector<Diagnostic>& MappedTrace::diagnostics() const {
  static const std::vector<Diagnostic> kEmpty;
  if (impl_ != nullptr) {
    return impl_->diags;
  }
  return invalid_diags_ != nullptr ? *invalid_diags_ : kEmpty;
}

bool MappedTrace::mapped() const { return impl_ != nullptr && impl_->file.mapped(); }

size_t MappedTrace::mapped_bytes() const { return mapped() ? impl_->file.size() : 0; }

Trace MappedTrace::Promote() const {
  if (impl_ == nullptr) {
    return Trace();
  }
  Metrics().promotions->Inc();
  // Re-intern in id order so the promoted pool assigns identical ids and the
  // copied events need no remapping.
  StringPool pool;
  for (StrId id = 1; id < impl_->pool.size(); id++) {
    pool.Intern(impl_->pool.View(id));
  }
  return Trace(impl_->events, std::move(pool));
}

}  // namespace rose
