// Outside-in spans for the Rose benchmark.
//
// The benchmark wraps every call it makes into one of Rose's layers in a
// ScopedSpan. Spans live in per-thread logs in memory while a workload runs
// and are aggregated (and optionally written out as JSON lines) when it
// ends. Nothing inside src/ is instrumented: a span covers the whole public
// call, so a layer's self time is its spans' time minus the time of the
// benchmark-side spans nested inside them (e.g. DiagnosisEngine::Run minus
// the schedule runs the benchmark's runner wraps).
//
// With spans disabled (the untraced run that produces the end-to-end
// metrics) a ScopedSpan costs one relaxed atomic load.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// The repository's modules as seen from outside. kBench is the benchmark's
// own loop (load generation, bookkeeping, waiting).
enum class Layer : uint8_t {
  kBench = 0,
  kHarness,
  kProfile,
  kDiagnose,
  kCausal,
  kTraceIo,
  kServe,
  kCluster,
};
inline constexpr size_t kLayerCount = 8;
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // Time covered by direct children.
  int32_t parent = -1;   // Index in the same thread's log; -1 = root.
  uint64_t job = 0;      // Request / job / bug the span worked for (0 = none).
  // > 1 when idle calls were merged; end_ns is then start_ns plus their
  // summed durations.
  uint32_t calls = 1;
  bool idle = false;
};

struct ThreadLog {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;  // Stack of open span indices.
};

void SetSpansEnabled(bool enabled);
bool SpansEnabled();
int64_t NowNs();

class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, uint64_t job = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Marks the call as having done no work. An idle span is merged into a
  // recent idle sibling of the same name, which keeps busy-poll loops from
  // filling memory with empty spans.
  void set_idle(bool idle) { idle_ = idle; }

 private:
  ThreadLog* log_ = nullptr;
  int32_t index_ = -1;
  bool idle_ = false;
};

// Per-name and per-layer totals over a set of spans.
struct SpanStats {
  struct ByName {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    int64_t busy_ns = 0;                // Time of the calls that did work.
    std::vector<int64_t> durations_ns;  // Busy (non-idle) spans only.
  };
  std::map<std::string, ByName> by_name;
  std::array<int64_t, kLayerCount> layer_self_ns{};
  size_t spans = 0;

  const ByName* Find(const std::string& name) const;
  int64_t SelfSum() const;
};

// Moves every thread's spans out of the recorder. Call only while no
// thread is recording.
std::vector<ThreadLog> TakeSpans();
SpanStats Aggregate(const std::vector<ThreadLog>& logs);
// One JSON object per span. Returns false if the file cannot be written.
bool WriteSpans(const std::vector<ThreadLog>& logs, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
