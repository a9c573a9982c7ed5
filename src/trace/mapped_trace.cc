#include "src/trace/mapped_trace.h"

#include <cstring>
#include <utility>

#include "src/common/strings.h"

namespace rose {

struct MappedTrace::Impl {
  // Exactly one of `file` / `buffer` backs `bytes`.
  MmapTraceFile file;
  std::string buffer;
  bool file_backed = false;

  Trace trace;
  std::vector<Diagnostic> diags;

  std::string_view bytes() const { return file_backed ? file.bytes() : buffer; }
};

MappedTrace MappedTrace::Decode(std::shared_ptr<Impl> impl) {
  impl->trace = Trace::ParseBinary(impl->bytes(), &impl->diags);
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
  return impl_ != nullptr ? TraceView(impl_->trace) : TraceView();
}

std::string_view MappedTrace::bytes() const {
  return impl_ != nullptr ? impl_->bytes() : std::string_view();
}

size_t MappedTrace::event_count() const {
  return impl_ != nullptr ? impl_->trace.size() : 0;
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

Trace MappedTrace::Promote() const { return impl_ != nullptr ? impl_->trace : Trace(); }

}  // namespace rose
