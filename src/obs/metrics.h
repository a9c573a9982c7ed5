#ifndef ROSE_OBS_METRICS_H_
#define ROSE_OBS_METRICS_H_

// rose::obs — lock-cheap self-metrics for the pipeline (DESIGN.md §11).
//
// The registry hands out stable pointers to named counters / gauges /
// histograms; hot paths cache the pointer once and mutate it with relaxed
// atomics, so recording costs one uncontended atomic RMW. Registration (the
// only mutex) happens on cold paths.
//
// Determinism contract: metrics are strictly write-only from the simulation's
// point of view. Nothing in src/ may branch on a metric value — the
// (seed, schedule) pair alone determines an execution, and
// tools/check_determinism.sh continues to enforce the byte-identical
// guarantee with ROSE_OBS=ON.
//
// ROSE_OBS=OFF (-DROSE_OBS_ENABLED=0) compiles every record operation to an
// inline no-op; the registry and snapshot API keep working (all zeros) so
// callers need no #ifdefs.

#ifndef ROSE_OBS_ENABLED
#define ROSE_OBS_ENABLED 1
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rose {

// Monotonic counter. Inc() is a relaxed fetch_add — safe from any thread.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
#if ROSE_OBS_ENABLED
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value (queue depth, window occupancy).
class Gauge {
 public:
  void Set(int64_t v) {
#if ROSE_OBS_ENABLED
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void Add(int64_t d) {
#if ROSE_OBS_ENABLED
    value_.fetch_add(d, std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket log-linear histogram: 8 linear buckets for values 0..7, then
// 8 linear sub-buckets per power-of-two octave. Quantile estimates carry at
// most one sub-bucket of relative error (≤ 12.5%), which is plenty for p50 /
// p99 latency reporting. Recording is one relaxed fetch_add on a bucket plus
// two on count/sum; concurrent recorders never contend on a lock.
class Histogram {
 public:
  static constexpr int kSubBits = 3;                      // 8 sub-buckets
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 64 - kSubBits;          // values < 2^64
  static constexpr int kBuckets = kSub + kOctaves * kSub;

  void Record(uint64_t v) {
#if ROSE_OBS_ENABLED
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  // Records the wall nanoseconds elapsed since `start`, for a span that
  // outlives one scope (ScopedTimer covers the ones that do not). With
  // ROSE_OBS=OFF the clock is not even read.
  void RecordSince(std::chrono::steady_clock::time_point start) {
#if ROSE_OBS_ENABLED
    Record(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - start)
                                     .count()));
#else
    (void)start;
#endif
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  // Quantile estimate for q in [0, 1]; 0 when empty. Returns the midpoint of
  // the bucket holding the q-th recorded value.
  uint64_t Quantile(double q) const;
  // Midpoint of the highest non-empty bucket (≈ observed maximum).
  uint64_t ApproxMax() const;
  void Reset();

  static int BucketIndex(uint64_t v);
  // [lower, width) of a bucket — exposed for the accuracy-bound tests.
  static uint64_t BucketLower(int index);
  static uint64_t BucketWidth(int index);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// RAII phase timer: records elapsed wall nanoseconds into a histogram at
// scope exit. Uses std::chrono::steady_clock (monotonic, allowed by the
// determinism lint) and never feeds the reading back into the simulation.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
#if ROSE_OBS_ENABLED
    start_ = std::chrono::steady_clock::now();
#endif
  }
  ~ScopedTimer() {
#if ROSE_OBS_ENABLED
    if (hist_ != nullptr) {
      hist_->RecordSince(start_);
    }
#endif
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
#if ROSE_OBS_ENABLED
  std::chrono::steady_clock::time_point start_;
#endif
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

// A stable, name-sorted copy of every registered metric.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::string ToYaml() const;  // deterministic: sorted by metric name
};

// Name → metric map. GetX() find-or-creates under a mutex and returns a
// pointer that stays valid for the registry's lifetime, so hot paths resolve
// a metric once (usually in a constructor) and record lock-free after that.
// Every metric name must appear in docs/metrics.md.
class MetricRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric (pointers stay valid). Tests and
  // bench harnesses use this between iterations.
  void Reset();

  // Process-wide registry used by the built-in instrumentation.
  static MetricRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Writes MetricRegistry::Global()'s snapshot as YAML ("# rose-obs v1") to
// `path`; false on I/O failure. The --stats-out flag of reproduce_bug /
// trace_explorer / rose_served lands here.
bool WriteStatsFile(const std::string& path);

}  // namespace rose

#endif  // ROSE_OBS_METRICS_H_
