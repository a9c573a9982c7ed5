#include "src/trace/event.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>


namespace rose {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSCF:
      return "SCF";
    case EventType::kAF:
      return "AF";
    case EventType::kND:
      return "ND";
    case EventType::kPS:
      return "PS";
  }
  return "??";
}

std::string TraceEvent::ToLine(const StringPool& pool) const {
  std::string out;
  AppendLine(&out, pool);
  return out;
}

namespace {

// printf-append into an existing buffer; the one allocation-free formatter
// the streaming canonical hash leans on. Falls back to a heap buffer for the
// rare line (a long interned pathname) that outgrows the stack one.
void AppendFormat(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFormat(std::string* out, const char* fmt, ...) {
  char stack_buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, ap);
  va_end(ap);
  if (needed < 0) {
    return;
  }
  if (static_cast<size_t>(needed) < sizeof(stack_buf)) {
    out->append(stack_buf, static_cast<size_t>(needed));
    return;
  }
  std::vector<char> heap_buf(static_cast<size_t>(needed) + 1);
  va_start(ap, fmt);
  std::vsnprintf(heap_buf.data(), heap_buf.size(), fmt, ap);
  va_end(ap);
  out->append(heap_buf.data(), static_cast<size_t>(needed));
}

}  // namespace

void TraceEvent::AppendLine(std::string* out, const StringPool& pool) const {
  switch (type) {
    case EventType::kSCF: {
      const auto& scf_info = scf();
      const std::string filename(pool.View(scf_info.filename));
      AppendFormat(out, "%lld SCF node=%d pid=%d sys=%s fd=%d file=%s errno=%s",
                   static_cast<long long>(ts), node, scf_info.pid,
                   std::string(SysName(scf_info.sys)).c_str(), scf_info.fd,
                   filename.empty() ? "-" : filename.c_str(),
                   std::string(ErrName(scf_info.err)).c_str());
      return;
    }
    case EventType::kAF: {
      const auto& af_info = af();
      AppendFormat(out, "%lld AF node=%d pid=%d fid=%d", static_cast<long long>(ts),
                   node, af_info.pid, af_info.function_id);
      return;
    }
    case EventType::kND: {
      const auto& nd_info = nd();
      AppendFormat(out, "%lld ND node=%d src=%s dst=%s dur=%lld pkts=%llu",
                   static_cast<long long>(ts), node,
                   std::string(pool.View(nd_info.src_ip)).c_str(),
                   std::string(pool.View(nd_info.dst_ip)).c_str(),
                   static_cast<long long>(nd_info.duration),
                   static_cast<unsigned long long>(nd_info.packet_count));
      return;
    }
    case EventType::kPS: {
      const auto& ps_info = ps();
      AppendFormat(out, "%lld PS node=%d pid=%d state=%s dur=%lld",
                   static_cast<long long>(ts), node, ps_info.pid,
                   std::string(ProcStateName(ps_info.state)).c_str(),
                   static_cast<long long>(ps_info.duration));
      return;
    }
  }
}

namespace {

// Re-interns one id from `source` into `dest`, memoizing via `cache` (a
// source-id -> dest-id table) when provided.
StrId RemapId(StrId id, const StringPool& source, StringPool* dest,
              std::vector<StrId>* cache) {
  if (id == kEmptyStrId) {
    return kEmptyStrId;
  }
  constexpr StrId kUnmapped = static_cast<StrId>(-1);
  if (cache != nullptr) {
    if (cache->size() < source.size()) {
      cache->resize(source.size(), kUnmapped);
    }
    if (id < cache->size() && (*cache)[id] != kUnmapped) {
      return (*cache)[id];
    }
  }
  const StrId mapped = dest->Intern(source.View(id));
  if (cache != nullptr && id < cache->size()) {
    (*cache)[id] = mapped;
  }
  return mapped;
}

}  // namespace

void Trace::AppendRemapped(const TraceEvent& event, const StringPool& source,
                           std::vector<StrId>* cache) {
  TraceEvent copy = event;
  switch (copy.type) {
    case EventType::kSCF: {
      auto& info = std::get<ScfInfo>(copy.info);
      info.filename = RemapId(info.filename, source, &pool_, cache);
      break;
    }
    case EventType::kND: {
      auto& info = std::get<NdInfo>(copy.info);
      info.src_ip = RemapId(info.src_ip, source, &pool_, cache);
      info.dst_ip = RemapId(info.dst_ip, source, &pool_, cache);
      break;
    }
    case EventType::kAF:
    case EventType::kPS:
      break;
  }
  events_.push_back(std::move(copy));
}

std::vector<TraceEvent> Trace::OfType(EventType type) const {
  std::vector<TraceEvent> out;
  for (const auto& event : events_) {
    if (event.type == type) {
      out.push_back(event);
    }
  }
  return out;
}

std::vector<AfInfo> Trace::FunctionsBefore(NodeId node, SimTime before) const {
  return TraceView(*this).FunctionsBefore(node, before);
}

std::vector<AfInfo> TraceView::FunctionsBefore(NodeId node, SimTime before) const {
  std::vector<AfInfo> out;
  for (const auto& event : *this) {
    if (event.ts > before) {
      break;  // Inclusive: an AF at the fault's own timestamp (the function
              // the process was executing when it died) still precedes it.
    }
    if (event.type == EventType::kAF && event.node == node) {
      out.push_back(event.af());
    }
  }
  std::reverse(out.begin(), out.end());  // Most recent first.
  return out;
}

bool TraceEquals(TraceView a, TraceView b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    const TraceEvent& ea = a[i];
    const TraceEvent& eb = b[i];
    if (ea.ts != eb.ts || ea.node != eb.node || ea.type != eb.type) {
      return false;
    }
    switch (ea.type) {
      case EventType::kSCF: {
        const ScfInfo& sa = ea.scf();
        const ScfInfo& sb = eb.scf();
        if (sa.pid != sb.pid || sa.sys != sb.sys || sa.fd != sb.fd || sa.err != sb.err ||
            a.str(sa.filename) != b.str(sb.filename)) {
          return false;
        }
        break;
      }
      case EventType::kAF: {
        const AfInfo& fa = ea.af();
        const AfInfo& fb = eb.af();
        if (fa.pid != fb.pid || fa.function_id != fb.function_id) {
          return false;
        }
        break;
      }
      case EventType::kND: {
        const NdInfo& na = ea.nd();
        const NdInfo& nb = eb.nd();
        if (na.duration != nb.duration || na.packet_count != nb.packet_count ||
            a.str(na.src_ip) != b.str(nb.src_ip) || a.str(na.dst_ip) != b.str(nb.dst_ip)) {
          return false;
        }
        break;
      }
      case EventType::kPS: {
        const PsInfo& pa = ea.ps();
        const PsInfo& pb = eb.ps();
        if (pa.pid != pb.pid || pa.state != pb.state || pa.duration != pb.duration) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

std::string Trace::Serialize() const {
  std::string out;
  for (const auto& event : events_) {
    out += event.ToLine(pool_);
    out += '\n';
  }
  return out;
}

Trace Trace::Merge(const std::vector<Trace>& traces) {
  // The inputs, concatenated in argument order into one pool, are a window
  // like any other: FromWindow's stable sort keeps ties in input order and
  // its remap gives the pool first-appearance order.
  Trace all;
  for (const Trace& trace : traces) {
    std::vector<StrId> remap;
    for (const TraceEvent& event : trace.events_) {
      all.AppendRemapped(event, trace.pool_, &remap);
    }
  }
  return FromWindow(std::move(all.events_), all.pool_);
}

Trace Trace::FromWindow(std::vector<TraceEvent> events, const StringPool& pool) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  Trace trace;
  trace.events_.reserve(events.size());
  std::vector<StrId> remap;
  for (const TraceEvent& event : events) {
    trace.AppendRemapped(event, pool, &remap);
  }
  return trace;
}

TraceIndex::TraceIndex(TraceView trace) {
  for (const TraceEvent& event : trace) {
    if (event.type != EventType::kAF) {
      continue;
    }
    NodeAfs& bucket = per_node_[event.node];
    bucket.ts.push_back(event.ts);
    bucket.afs.push_back(event.af());
  }
}

std::vector<AfInfo> TraceIndex::FunctionsBefore(NodeId node, SimTime before) const {
  std::vector<AfInfo> out;
  const auto it = per_node_.find(node);
  if (it == per_node_.end()) {
    return out;
  }
  const NodeAfs& bucket = it->second;
  // Inclusive cutoff, mirroring the linear scan: an AF at the fault's own
  // timestamp still precedes it.
  const auto end = std::upper_bound(bucket.ts.begin(), bucket.ts.end(), before);
  const size_t count = static_cast<size_t>(end - bucket.ts.begin());
  out.reserve(count);
  for (size_t i = count; i > 0; i--) {  // Most recent first.
    out.push_back(bucket.afs[i - 1]);
  }
  return out;
}

}  // namespace rose
