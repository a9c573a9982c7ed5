#include "perfbench/spans.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};

// How far back an idle span looks for an idle sibling to merge into.
constexpr size_t kMergeLookback = 16;

// Logs of every thread that recorded since the last TakeSpans(). Each log is
// written only by its own thread; the registry is touched under the mutex
// when a thread first records and when the logs are taken.
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;
// Bumped by TakeSpans() so threads drop their cached pointer to a taken log.
std::atomic<uint64_t> g_generation{1};

struct ThreadSlot {
  ThreadLog* log = nullptr;
  uint64_t generation = 0;
};
thread_local ThreadSlot t_slot;

ThreadLog* CurrentLog() {
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (t_slot.log == nullptr || t_slot.generation != generation) {
    std::lock_guard<std::mutex> lock(g_mutex);
    auto log = std::make_unique<ThreadLog>();
    log->thread = static_cast<int>(g_logs.size());
    log->spans.reserve(1 << 12);
    t_slot.log = log.get();
    t_slot.generation = generation;
    g_logs.push_back(std::move(log));
  }
  return t_slot.log;
}

void JsonString(std::FILE* out, const char* text) {
  std::fputc('"', out);
  for (const char* p = text; *p != '\0'; p++) {
    if (*p == '"' || *p == '\\') {
      std::fputc('\\', out);
    }
    std::fputc(*p, out);
  }
  std::fputc('"', out);
}

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "bench", "harness", "profile", "diagnose", "causal", "trace_io", "serve", "cluster"};
  return kNames[static_cast<size_t>(layer)];
}

void SetSpansEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(const char* name, Layer layer, uint64_t job) {
  if (!SpansEnabled()) {
    return;
  }
  log_ = CurrentLog();
  Span span;
  span.name = name;
  span.layer = layer;
  span.job = job;
  span.parent = log_->open.empty() ? -1 : log_->open.back();
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->open.push_back(index_);
  span.start_ns = NowNs();
  log_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) {
    return;
  }
  const int64_t end = NowNs();
  std::vector<Span>& spans = log_->spans;
  Span& span = spans[static_cast<size_t>(index_)];
  span.end_ns = end;
  span.idle = idle_;
  log_->open.pop_back();
  const int64_t duration = end - span.start_ns;
  if (span.parent >= 0) {
    spans[static_cast<size_t>(span.parent)].child_ns += duration;
  }
  // Merge an idle leaf into a recent idle sibling of the same name. A poll
  // loop alternates a few idle calls (clients, service, router), so the
  // search looks back over the last kMergeLookback spans. A merged span keeps
  // its first start and its end becomes start plus the summed durations:
  // durations and self times stay exact, positions on the timeline do not.
  if (idle_ && span.child_ns == 0 && static_cast<size_t>(index_) + 1 == spans.size()) {
    const size_t first =
        static_cast<size_t>(index_) > kMergeLookback ? static_cast<size_t>(index_) - kMergeLookback : 0;
    for (size_t i = static_cast<size_t>(index_); i-- > first;) {
      Span& prev = spans[i];
      if (prev.parent != span.parent) {
        break;  // Left the sibling run.
      }
      if (prev.idle && prev.name == span.name && prev.child_ns == 0) {
        prev.calls += 1;
        prev.end_ns += duration;
        spans.pop_back();
        break;
      }
    }
  }
}

const SpanStats::ByName* SpanStats::Find(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? nullptr : &it->second;
}

int64_t SpanStats::SelfSum() const {
  int64_t sum = 0;
  for (int64_t ns : layer_self_ns) {
    sum += ns;
  }
  return sum;
}

std::vector<ThreadLog> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<ThreadLog> out;
  out.reserve(g_logs.size());
  for (auto& log : g_logs) {
    out.push_back(std::move(*log));
  }
  g_logs.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  return out;
}

SpanStats Aggregate(const std::vector<ThreadLog>& logs) {
  SpanStats stats;
  for (const ThreadLog& log : logs) {
    for (const Span& span : log.spans) {
      const int64_t duration = span.end_ns - span.start_ns;
      const int64_t self = duration - span.child_ns;
      SpanStats::ByName& entry = stats.by_name[span.name];
      entry.calls += span.calls;
      entry.total_ns += duration;
      entry.self_ns += self;
      if (!span.idle) {
        entry.busy_ns += duration;
        entry.durations_ns.push_back(duration);
      }
      const size_t layer = static_cast<size_t>(span.layer);
      stats.layer_self_ns[layer] += self;
      stats.spans++;
    }
  }
  return stats;
}

bool WriteSpans(const std::vector<ThreadLog>& logs, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const ThreadLog& log : logs) {
    for (size_t i = 0; i < log.spans.size(); i++) {
      const Span& span = log.spans[i];
      std::fprintf(out, "{\"thread\":%d,\"id\":%zu,\"parent\":%d,\"name\":", log.thread, i,
                   span.parent);
      JsonString(out, span.name);
      std::fprintf(out,
                   ",\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld,"
                   "\"job\":%llu,\"calls\":%u}\n",
                   LayerName(span.layer), static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.end_ns - span.start_ns - span.child_ns),
                   static_cast<unsigned long long>(span.job), span.calls);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
