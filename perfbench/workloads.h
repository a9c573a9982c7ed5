// The Rose benchmark's workloads (see perfbench/README.md):
//
//   catalogue     offline pipeline over the 20 registered bugs, one thread
//   serve_hits    open-loop cache hits into one DiagnosisService
//   serve_cold    closed-loop distinct jobs, classic submits and stream sessions
//   cluster_hits  the serve_hits traffic through a 2-shard ClusterRouter
//
// Every workload drives Rose only through its public headers and wraps each
// call into a layer in a ScopedSpan (perfbench/spans.h).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Set up once, print the set-up time and exit (used for the extra set-ups).
  bool setup_only = false;
  // Where the traced run writes its spans ("" = keep them in memory only).
  std::string spans_out;
  // Scratch directory for serve_cold's persisted result cache.
  std::string tmp_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one measured pass of a workload produced.
struct Sample {
  // The end-to-end figures every workload reports (see BENCHMARK.json):
  double p50_ms = 0;       // Median time of the workload's operation.
  double tail_ms = 0;      // Its tail percentile (workload-specific).
  double ops_per_s = 0;    // Operations completed per second.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Wall time of the measured region (the workload's root span).
  double measured_ms = 0;
  // The same figures under the workload's own names, plus the rest of its
  // end-to-end detail, for the human-readable report.
  std::vector<Metric> named;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input and service from the seed, replacing the previous
  // set-up. Timed as setup_s.
  virtual void Setup() = 0;
  // Correctness checks that need offline recomputation; outside any timing.
  virtual void Check() = 0;
  // One measured pass of about `seconds`.
  virtual Sample Measure(double seconds) = 0;
  // Per-layer figures of the traced pass. `setup` holds the spans of the
  // traced set-up, `measure` those of the traced pass.
  virtual void LayerMetrics(const SpanStats& setup, const SpanStats& measure,
                            std::map<std::string, double>* out) = 0;

  // Failed correctness checks (each also counts as a failed operation).
  const std::vector<std::string>& failures() const { return failures_; }

 protected:
  void Fail(std::string message) { failures_.push_back(std::move(message)); }

 private:
  std::vector<std::string> failures_;
};

// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
