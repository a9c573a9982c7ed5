// rose_bench — one command for Rose's end-to-end benchmark.
//
//   rose_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans-out FILE] [--tmp-dir DIR]
//
// Sets the workload up kSetups times (all but one in child processes run
// with --setup-only 1; setup_s is the median), runs its offline
// correctness checks, then measures it for S seconds with spans off. With
// --trace 1 it measures a second time with spans on and reports per-layer
// figures, the layers' self times and the tracing overhead instead of the
// end-to-end metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and runs it.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

// The per-layer metrics of a traced run, in BENCHMARK.json's order. Figures
// a workload's calls never reach are reported as 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"harness.run_ms_p50", "ms"},
      {"harness.run_ms_p90", "ms"},
      {"harness.runs", "count"},
      {"harness.trace_run_ms_p50", "ms"},
      {"harness.confirm_run_ms_p50", "ms"},
      {"sim.virtual_s_per_host_s", "s/s"},
      {"os.syscalls_per_host_s", "1/s"},
      {"trace.events_per_run", "count"},
      {"harness.profiling_ms", "ms"},
      {"harness.production_ms", "ms"},
      {"harness.production_attempts", "count"},
      {"diagnose.engine_self_ms", "ms"},
      {"diagnose.extract_ms", "ms"},
      {"diagnose.candidate_runs", "count"},
      {"diagnose.confirm_runs", "count"},
      {"diagnose.schedules", "count"},
      {"diagnose.pruned", "count"},
      {"diagnose.candidate_hit_ratio", "ratio"},
      {"causal.build_ms", "ms"},
      {"causal.events_per_s", "1/s"},
      {"trace_io.blob_hash_us", "us"},
      {"trace_io.blob_hash_mb_per_s", "MB/s"},
      {"serve.wire_bytes_per_req", "bytes"},
      {"serve.poll_us_per_req", "us"},
      {"serve.client_submit_us", "us"},
      {"serve.client_poll_us_per_req", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.engine_runs", "count"},
      {"serve.queue_depth_max", "count"},
      {"stream.ship_us_per_mb", "us/MB"},
      {"stream.peak_resident_bytes", "bytes"},
      {"stream.throttle_events", "count"},
      {"cluster.router_poll_us_per_req", "us"},
      {"cluster.shard_poll_us_per_req", "us"},
      {"cluster.journal_appends_per_req", "count"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.backlog_max", "count"},
      {"bench.self_ms", "ms"},
      {"harness.self_ms", "ms"},
      {"profile.self_ms", "ms"},
      {"diagnose.self_ms", "ms"},
      {"causal.self_ms", "ms"},
      {"trace_io.self_ms", "ms"},
      {"serve.self_ms", "ms"},
      {"cluster.self_ms", "ms"},
      {"bench.traced_wall_ms", "ms"},
      {"bench.self_sum_ms", "ms"},
      {"bench.spans", "count"},
      {"bench.trace_overhead_pct", "%"},
  };
  return metrics;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "rose_bench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed" && ParseDouble(value, &number) && number >= 0) {
      options->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseDouble(value, &number) && number > 0) {
      options->seconds = number;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      options->trace = value[0] == '1';
    } else if (flag == "--setup-only" && (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      options->setup_only = value[0] == '1';
    } else if (flag == "--spans-out") {
      options->spans_out = value;
    } else if (flag == "--tmp-dir") {
      options->tmp_dir = value;
    } else {
      std::fprintf(stderr, "rose_bench: bad option %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  return true;
}

// Runs one set-up in a child process (this binary with the same arguments
// plus --setup-only 1) and reads back its duration.
bool SpawnSetup(int argc, char** argv, double* seconds) {
  std::vector<std::string> args(argv, argv + argc);
  args.push_back("--setup-only");
  args.push_back("1");
  std::vector<char*> cargs;
  for (std::string& arg : args) {
    cargs.push_back(arg.data());
  }
  cargs.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, cargs.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) > 0) {
    out.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) {
    return false;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return false;
  }
  const size_t at = out.rfind("setup_s ");
  return at != std::string::npos && ParseDouble(out.substr(at + 8, out.find('\n', at) - at - 8).c_str(), seconds);
}

// JSON has no infinity; a failed operation's latency is reported as -1.
double Finite(double value) { return std::isfinite(value) ? value : -1; }

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), Finite(metrics[i].value), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintMetric(const Metric& metric) {
  std::printf("  %-36s %14.6g %s\n", metric.name.c_str(), Finite(metric.value),
              metric.unit.c_str());
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "rose_bench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  // setup_s is the median over kSetups set-ups. All but one run in child
  // processes (--setup-only 1), so the measured pass always follows exactly
  // one set-up in a fresh process: repeated set-ups in one process leave the
  // heap in a different state, which measurably slows the serve paths that
  // follow. The traced run sets up once, with spans on.
  std::vector<double> setup_s;
  if (!options.trace && !options.setup_only) {
    for (int i = 1; i < kSetups; i++) {
      double seconds = 0;
      if (!SpawnSetup(argc, argv, &seconds)) {
        std::fprintf(stderr, "rose_bench: set-up in a child process failed\n");
        return 2;
      }
      setup_s.push_back(seconds);
      std::printf("  set-up %d (child process): %.3f s\n", i, seconds);
    }
  }
  SetSpansEnabled(options.trace);
  const int64_t setup_start = NowNs();
  {
    ScopedSpan root("bench.setup", Layer::kBench);
    workload->Setup();
  }
  setup_s.push_back(SecondsSince(setup_start));
  SetSpansEnabled(false);
  if (options.setup_only) {
    for (const std::string& failure : workload->failures()) {
      std::fprintf(stderr, "rose_bench: set-up check failed: %s\n", failure.c_str());
    }
    std::printf("setup_s %.9f\n", setup_s.back());
    return workload->failures().empty() ? 0 : 1;
  }
  std::printf("  set-up %zu: %.3f s\n", setup_s.size(), setup_s.back());
  SpanStats setup_stats;
  std::vector<ThreadLog> all_logs;
  if (options.trace) {
    all_logs = TakeSpans();
    setup_stats = Aggregate(all_logs);
  }
  workload->Check();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Sample plain = workload->Measure(options.seconds);
  attempted += plain.attempted;
  failed += plain.failed;
  std::printf("end-to-end (untraced):\n");
  PrintMetric({"setup_s", Median(setup_s), "s"});
  for (const Metric& metric : plain.named) {
    PrintMetric(metric);
  }
  PrintMetric({"ops", static_cast<double>(plain.attempted), "count"});
  PrintMetric({"ops_failed", static_cast<double>(plain.failed), "count"});

  std::vector<Metric> result;
  if (!options.trace) {
    result = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", plain.p50_ms, "ms"},
        {"tail_ms", plain.tail_ms, "ms"},
        {"ops_per_s", plain.ops_per_s, "1/s"},
    };
  } else {
    SetSpansEnabled(true);
    const Sample traced = workload->Measure(options.seconds);
    const double wall_ms = traced.measured_ms;
    SetSpansEnabled(false);
    attempted += traced.attempted;
    failed += traced.failed;
    std::vector<ThreadLog> logs = TakeSpans();
    const SpanStats stats = Aggregate(logs);
    std::map<std::string, double> values;
    workload->LayerMetrics(setup_stats, stats, &values);
    for (size_t l = 0; l < kLayerCount; l++) {
      values[std::string(LayerName(static_cast<Layer>(l))) + ".self_ms"] =
          static_cast<double>(stats.layer_self_ns[l]) / 1e6;
    }
    values["bench.traced_wall_ms"] = wall_ms;
    values["bench.self_sum_ms"] = static_cast<double>(stats.SelfSum()) / 1e6;
    values["bench.spans"] = static_cast<double>(stats.spans);
    values["bench.trace_overhead_pct"] =
        plain.p50_ms > 0 ? 100.0 * (traced.p50_ms - plain.p50_ms) / plain.p50_ms : 0;
    std::printf("per-layer (traced):\n");
    for (const auto& [name, unit] : PerLayerMetrics()) {
      result.push_back({name, values.count(name) != 0 ? values[name] : 0.0, unit});
      PrintMetric(result.back());
    }
    for (const auto& [name, value] : values) {
      bool listed = false;
      for (const auto& metric : PerLayerMetrics()) {
        listed = listed || name == metric.first;
      }
      if (!listed) {
        std::fprintf(stderr, "rose_bench: unlisted per-layer metric %s\n", name.c_str());
        return 2;
      }
    }
    // Self times partition the traced pass: their sum must match its wall
    // time to within the tracing overhead.
    const double gap_pct = 100.0 * std::fabs(values["bench.self_sum_ms"] - wall_ms) / wall_ms;
    std::printf("  self-time sum %.1f ms vs traced wall %.1f ms (%.2f%% apart), overhead %.2f%%\n",
                values["bench.self_sum_ms"], wall_ms, gap_pct, values["bench.trace_overhead_pct"]);
    for (ThreadLog& log : logs) {
      all_logs.push_back(std::move(log));
    }
    if (!options.spans_out.empty() && !WriteSpans(all_logs, options.spans_out)) {
      std::fprintf(stderr, "rose_bench: cannot write %s\n", options.spans_out.c_str());
      return 2;
    }
  }

  const std::vector<std::string>& failures = workload->failures();
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "rose_bench: check failed: %s\n", failure.c_str());
  }
  failed += failures.size();
  PrintJson(failures.empty() && failed == 0, attempted, failed, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
