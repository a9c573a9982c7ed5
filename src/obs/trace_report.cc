#include "src/obs/trace_report.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>

#include "src/sim/time.h"
#include "src/trace/trace_io.h"

namespace rose {

namespace {

std::string LowerName(EventType type) {
  std::string name(EventTypeName(type));
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

void Append(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

}  // namespace

std::string RenderTraceStats(TraceView trace, MetricRegistry* registry,
                             bool with_encoded_sizes) {
  std::map<EventType, uint64_t> by_type;
  std::map<NodeId, uint64_t> by_node;
  for (const TraceEvent& event : trace) {
    by_type[event.type]++;
    by_node[event.node]++;
  }

  if (registry != nullptr) {
    for (const auto& [type, count] : by_type) {
      registry->GetCounter("trace.events." + LowerName(type))->Inc(count);
    }
    for (const auto& [node, count] : by_node) {
      registry->GetCounter("trace.events.node." + std::to_string(node))->Inc(count);
    }
    registry->GetGauge("trace.window.occupancy")
        ->Set(static_cast<int64_t>(trace.size()));
    registry->GetGauge("trace.pool.strings")
        ->Set(static_cast<int64_t>(trace.pool().size()));
    registry->GetGauge("trace.pool.payload_bytes")
        ->Set(static_cast<int64_t>(trace.pool().payload_bytes()));
  }

  std::string out;
  Append(&out, "--- window statistics ---\n");
  Append(&out, "events: %zu\n", trace.size());
  for (const auto& [type, count] : by_type) {
    Append(&out, "  %-3s %llu\n", std::string(EventTypeName(type)).c_str(),
           static_cast<unsigned long long>(count));
  }
  Append(&out, "events by node:\n");
  for (const auto& [node, count] : by_node) {
    Append(&out, "  node %d: %llu\n", node, static_cast<unsigned long long>(count));
  }
  Append(&out, "string pool: %zu strings, %zu payload bytes\n", trace.pool().size(),
         trace.pool().payload_bytes());
  if (!trace.empty()) {
    Append(&out, "window span: %.3fs .. %.3fs (%.3fs)\n", ToSeconds(trace[0].ts),
           ToSeconds(trace[trace.size() - 1].ts),
           ToSeconds(trace[trace.size() - 1].ts - trace[0].ts));
  }
  if (with_encoded_sizes) {
    // Encode straight from the view — works for owning and mapped traces
    // alike.
    std::string binary;
    TraceWriter writer(&binary, &trace.pool());
    for (const TraceEvent& event : trace) {
      writer.Add(event);
    }
    writer.Finish();
    std::string text;
    for (const TraceEvent& event : trace) {
      event.AppendLine(&text, trace.pool());
      text.push_back('\n');
    }
    const size_t binary_bytes = binary.size();
    const size_t text_bytes = text.size();
    Append(&out, "encoded size: binary %zu bytes, text %zu bytes (%.0f%%)\n",
           binary_bytes, text_bytes,
           text_bytes == 0 ? 0.0 : 100.0 * static_cast<double>(binary_bytes) /
                                       static_cast<double>(text_bytes));
  }
  return out;
}

}  // namespace rose
