#include "perfbench/common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "src/analyze/trace_validator.h"
#include "src/causal/causal_graph.h"
#include "src/diagnose/extract.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/serve/protocol.h"

namespace perfbench {
namespace {

// Blob-hash probe repetitions per dump: one hash of a few-KiB blob is a few
// microseconds, so single calls would be dominated by clock reads.
constexpr int kHashProbeReps = 50;

// Traced set-ups only: time the layers the served workloads reach inside
// the program (causal graph, fault extraction, admission hash) on each dump,
// from outside.
void ProbeLayers(const Dump& dump, uint64_t job) {
  {
    ScopedSpan span("causal.CausalGraph", Layer::kCausal, job);
    const rose::CausalGraph graph(dump.trace);
    (void)graph.size();
  }
  {
    ScopedSpan span("diagnose.ExtractFaults", Layer::kDiagnose, job);
    const rose::ExtractionResult extraction = rose::ExtractFaults(dump.trace, dump.profile);
    (void)extraction;
  }
  ScopedSpan span("trace_io.CanonicalBlobHash x50", Layer::kTraceIo, job);
  for (int i = 0; i < kHashProbeReps; i++) {
    uint64_t hash = 0;
    rose::CanonicalBlobHash(dump.blob, &hash);
  }
}

uint64_t probe_sink = 0;

// FastestCore's probe: ordered-map inserts and lookups with small string
// allocations, the mix of work Rose's simulator does. Best of two.
double CoreProbeNs() {
  double best = 0;
  for (int r = 0; r < 2; r++) {
    const int64_t start = NowNs();
    std::map<uint64_t, std::string> map;
    uint64_t x = 7;
    for (int i = 0; i < 1500; i++) {
      x = Mix(x);
      map[x % 4000] = std::to_string(x);
    }
    for (int i = 0; i < 1500; i++) {
      x = Mix(x);
      const auto it = map.find(x % 4000);
      probe_sink += it != map.end() ? it->second.size() : 0;
    }
    const double ns = static_cast<double>(NowNs() - start);
    best = r == 0 ? ns : std::min(best, ns);
  }
  return best;
}

}  // namespace

FastestCore::FastestCore() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return;
  }
  saved_ = true;
  for (int core = 0; core < CPU_SETSIZE; core++) {
    if (CPU_ISSET(core, &set)) {
      cores_.push_back(core);
    }
  }
}

FastestCore::~FastestCore() {
  if (!saved_) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int core : cores_) {
    CPU_SET(core, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

bool FastestCore::PinTo(const std::vector<int>& cores) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int core : cores) {
    CPU_SET(core, &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::vector<int> FastestCore::Ranked() {
  if (cores_.size() < 2) {
    return {};
  }
  ScopedSpan span("bench.FastestCore::Ranked", Layer::kBench);
  std::vector<std::pair<double, int>> probed;
  for (int core : cores_) {
    if (PinTo({core})) {
      probed.emplace_back(CoreProbeNs(), core);
    }
  }
  std::sort(probed.begin(), probed.end());
  std::vector<int> ranked;
  for (const auto& [ns, core] : probed) {
    ranked.push_back(core);
  }
  return ranked;
}

void FastestCore::Repin() {
  const std::vector<int> ranked = Ranked();
  if (!ranked.empty()) {
    PinTo({ranked.front()});
  }
}

std::vector<Dump> MakeDumps(std::vector<std::string>* errors) {
  // Single-threaded: the calling thread runs on the least contended core
  // until the dumps are made.
  FastestCore core;
  core.Repin();
  std::vector<Dump> dumps;
  const std::vector<const rose::BugSpec*>& bugs = rose::AllBugs();
  for (size_t b = 0; b < bugs.size(); b++) {
    const rose::BugSpec* spec = bugs[b];
    const uint64_t job = b + 1;
    rose::BugRunner runner(spec);
    bool produced = false;
    for (uint64_t attempt = 0; attempt < 3 && !produced; attempt++) {
      Dump dump;
      dump.spec = spec;
      dump.seed = kTableSeed + 101 * attempt;
      {
        ScopedSpan span("profile.RunProfiling", Layer::kProfile, job);
        dump.profile = runner.RunProfiling(dump.seed);
      }
      std::optional<rose::Trace> production;
      {
        ScopedSpan span("harness.ObtainProductionTrace", Layer::kHarness, job);
        production = runner.ObtainProductionTrace(dump.profile, dump.seed + 17);
      }
      if (!production.has_value()) {
        continue;
      }
      dump.trace = std::move(*production);
      {
        ScopedSpan span("trace_io.SerializeBinary", Layer::kTraceIo, job);
        dump.blob = dump.trace.SerializeBinary();
      }
      dump.profile_text = rose::SerializeProfile(dump.profile);
      if (SpansEnabled()) {
        ProbeLayers(dump, job);
      }
      dumps.push_back(std::move(dump));
      produced = true;
    }
    if (!produced) {
      errors->push_back(spec->id + ": the bug never surfaced in a production run");
    }
  }
  return dumps;
}

rose::DiagnosisResult OfflineDiagnosis(const Dump& dump, uint64_t seed) {
  // The service diagnoses against the profile as it arrives over the wire.
  rose::Profile profile;
  rose::ParseProfile(dump.profile_text, &profile);
  rose::RoseConfig config;
  config.seed = seed;
  return rose::DiagnoseTrace(*dump.spec, profile, dump.trace, config);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  const size_t rank = std::min(
      values.size() - 1, static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
                             (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Rng::ExpGap(double rate) { return -std::log(1.0 - Uniform()) / rate; }

double SpanTotalMs(const SpanStats& stats, const char* name) {
  const SpanStats::ByName* entry = stats.Find(name);
  return entry == nullptr ? 0 : static_cast<double>(entry->total_ns) / 1e6;
}

double SpanCalls(const SpanStats& stats, const char* name) {
  const SpanStats::ByName* entry = stats.Find(name);
  return entry == nullptr ? 0 : static_cast<double>(entry->calls);
}

double SpanUsPer(const SpanStats& stats, const char* name, double per) {
  return per > 0 ? SpanTotalMs(stats, name) * 1e3 / per : 0;
}

double SpanBusyUsPer(const SpanStats& stats, const char* name, double per) {
  const SpanStats::ByName* entry = stats.Find(name);
  return entry == nullptr || per <= 0 ? 0 : static_cast<double>(entry->busy_ns) / 1e3 / per;
}

double SpanQuantileMs(const SpanStats& stats, const char* name, double q) {
  const SpanStats::ByName* entry = stats.Find(name);
  if (entry == nullptr) {
    return 0;
  }
  std::vector<double> ms;
  ms.reserve(entry->durations_ns.size());
  for (int64_t ns : entry->durations_ns) {
    ms.push_back(static_cast<double>(ns) / 1e6);
  }
  return Quantile(std::move(ms), q);
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "catalogue") {
    return MakeCatalogue(options);
  }
  if (options.workload == "serve_hits") {
    return MakeServeHits(options, /*routed=*/false);
  }
  if (options.workload == "cluster_hits") {
    return MakeServeHits(options, /*routed=*/true);
  }
  if (options.workload == "serve_cold") {
    return MakeServeCold(options);
  }
  return nullptr;
}

}  // namespace perfbench
