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
                             bool with_encoded_sizes, bool with_index_stats) {
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
    // alike (TraceWriter resolves pool ids through View, which an
    // external-arena pool serves from the mapped bytes).
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
  if (with_index_stats) {
    // Execution-index quality (DESIGN.md §14): coverage (how many SCFs carry
    // an index), collisions (a recorded address — (ctx, seq, sys, input) on
    // one node — occurring twice means the digest aliased two distinct
    // calling contexts and the address no longer names a unique invocation),
    // and the seq-depth histogram (how deep same-context repetition runs).
    uint64_t indexed = 0;
    uint64_t unindexed = 0;
    uint32_t max_seq = 0;
    uint64_t depth[5] = {0, 0, 0, 0, 0};  // seq 1 / 2 / 3-4 / 5-8 / >8.
    std::map<std::string, uint64_t> addresses;
    for (const TraceEvent& event : trace) {
      if (event.type != EventType::kSCF) {
        continue;
      }
      const ScfInfo& scf = event.scf();
      if (scf.ctx_digest == 0) {
        unindexed++;
        continue;
      }
      indexed++;
      const uint32_t seq = scf.ctx_seq;
      if (seq > max_seq) {
        max_seq = seq;
      }
      depth[seq <= 1 ? 0 : seq == 2 ? 1 : seq <= 4 ? 2 : seq <= 8 ? 3 : 4]++;
      char key[64];
      std::snprintf(key, sizeof(key), "%d|%llx|%u|%d", event.node,
                    static_cast<unsigned long long>(scf.ctx_digest), seq,
                    static_cast<int>(scf.sys));
      addresses[std::string(key) + std::string(trace.str(scf.filename))]++;
    }
    uint64_t colliding = 0;
    for (const auto& [key, count] : addresses) {
      if (count > 1) {
        colliding++;
      }
    }
    if (registry != nullptr) {
      registry->GetGauge("trace.index.indexed_scf")->Set(static_cast<int64_t>(indexed));
      registry->GetGauge("trace.index.addresses")
          ->Set(static_cast<int64_t>(addresses.size()));
      registry->GetGauge("trace.index.collisions")->Set(static_cast<int64_t>(colliding));
      Histogram* hist = registry->GetHistogram("trace.index.seq_depth");
      for (const TraceEvent& event : trace) {
        if (event.type == EventType::kSCF && event.scf().ctx_digest != 0) {
          hist->Record(event.scf().ctx_seq);
        }
      }
    }
    Append(&out, "execution index: %llu of %llu SCF events indexed (%llu unindexed)\n",
           static_cast<unsigned long long>(indexed),
           static_cast<unsigned long long>(indexed + unindexed),
           static_cast<unsigned long long>(unindexed));
    Append(&out, "index addresses: %zu distinct, %llu colliding\n", addresses.size(),
           static_cast<unsigned long long>(colliding));
    Append(&out,
           "context seq depth: 1:%llu 2:%llu 3-4:%llu 5-8:%llu >8:%llu (max %u)\n",
           static_cast<unsigned long long>(depth[0]),
           static_cast<unsigned long long>(depth[1]),
           static_cast<unsigned long long>(depth[2]),
           static_cast<unsigned long long>(depth[3]),
           static_cast<unsigned long long>(depth[4]), max_seq);
  }
  return out;
}

}  // namespace rose
