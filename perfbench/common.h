// Helpers shared by the benchmark's workloads.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/diagnose/engine.h"
#include "src/harness/bug.h"
#include "src/net/transport.h"
#include "src/trace/event.h"

namespace perfbench {

// The pipeline seed of the paper's Table 1 (bench_table1_bugs).
inline constexpr uint64_t kTableSeed = 42;

// One production dump and the profile it was traced against, produced in
// set-up — the only inputs the served workloads hand to the program under
// test.
struct Dump {
  const rose::BugSpec* spec = nullptr;
  // Profiling/production seed; also the diagnosis seed of its warm-up job.
  uint64_t seed = 0;
  rose::Profile profile;
  std::string profile_text;
  rose::Trace trace;
  std::string blob;  // RTRC container bytes, as shipped over the wire.
};

// One dump per registered bug, traced as Table 1's pipeline traces it: the
// profiling and production runs at seed 42, or at ReproduceBugRobust's retry
// seeds (+101 each) when the bug does not surface. The corpus is the same
// for every workload seed, so runs with different seeds do comparable work;
// the seed varies the traffic made from it. In traced set-ups also probes
// the causal, extraction and blob-hash layers on each dump (spans only).
// Runs on the least contended core (FastestCore).
std::vector<Dump> MakeDumps(std::vector<std::string>* errors);

// Offline reference: phases 3+4 of the pipeline on `dump` under diagnosis
// seed `seed`, the computation a served job must reproduce byte for byte.
rose::DiagnosisResult OfflineDiagnosis(const Dump& dump, uint64_t seed);

// Value at quantile q (0..1) of `values`, by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

double SecondsSince(int64_t start_ns);

// SplitMix64: seeded, platform-independent input generation.
uint64_t Mix(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++); }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential inter-arrival gap for a Poisson process of `rate` per second.
  double ExpGap(double rate);
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Keeps single-threaded work on the least contended core.
//
// On a shared host a core's speed changes by up to 1.5x within seconds as
// other tenants load the physical core under it, and the cores change
// independently. Ranked() runs a short allocation-heavy probe on each core
// the thread may use; Repin() pins the thread to the fastest. The destructor
// gives the thread its original cores back. A thread started while pinned
// inherits the pin.
class FastestCore {
 public:
  FastestCore();
  ~FastestCore();
  FastestCore(const FastestCore&) = delete;
  FastestCore& operator=(const FastestCore&) = delete;

  // The cores the thread may use, fastest first; empty if it may use only
  // one. Leaves the thread pinned to the last core probed.
  std::vector<int> Ranked();
  void Repin();
  // Pins the calling thread to `cores`.
  static bool PinTo(const std::vector<int>& cores);

 private:
  std::vector<int> cores_;  // The cores the thread may use.
  bool saved_ = false;
};

// Wraps a transport end and counts the bytes moved through it both ways.
class CountingTransport : public rose::Transport {
 public:
  CountingTransport(std::shared_ptr<rose::Transport> inner, uint64_t* bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}

  size_t Write(std::string_view data) override {
    const size_t n = inner_->Write(data);
    *bytes_ += n;
    return n;
  }
  std::string Read(size_t max) override {
    std::string data = inner_->Read(max);
    *bytes_ += data.size();
    return data;
  }
  size_t readable() const override { return inner_->readable(); }
  size_t writable() const override { return inner_->writable(); }
  void Close() override { inner_->Close(); }
  bool AtEof() const override { return inner_->AtEof(); }

 private:
  std::shared_ptr<rose::Transport> inner_;
  uint64_t* bytes_;
};

// Total duration of spans named `name`, in microseconds per `per` units.
double SpanUsPer(const SpanStats& stats, const char* name, double per);
// The same over the calls that did work (idle polls left out).
double SpanBusyUsPer(const SpanStats& stats, const char* name, double per);
double SpanTotalMs(const SpanStats& stats, const char* name);
double SpanCalls(const SpanStats& stats, const char* name);
// Quantile of the busy durations of spans named `name`, in milliseconds.
double SpanQuantileMs(const SpanStats& stats, const char* name, double q);

std::unique_ptr<Workload> MakeCatalogue(const Options& options);
std::unique_ptr<Workload> MakeServeHits(const Options& options, bool routed);
std::unique_ptr<Workload> MakeServeCold(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
