// reproduce_bug — run the full Rose pipeline on any bug from the catalogue.
//
// Usage:
//   ./build/examples/reproduce_bug                 # list known bugs
//   ./build/examples/reproduce_bug RedisRaft-43    # reproduce one bug
//   ./build/examples/reproduce_bug all             # reproduce every bug
//
// Flags:
//   --parallelism=N     worker threads for candidate execution (default: the
//                       machine's hardware concurrency). Any value yields the
//                       identical report; it only changes wall-clock time.
//   --tries=N           retry with fresh seeds up to N times when a run ends
//                       without reproduction (default 3).
//   --schedule-out=FILE write the confirmed schedule's canonical YAML to FILE
//                       (single-bug mode; the same bytes `rose_served` caches
//                       and `rose_serve_cli` prints).
//   --stats-out=FILE    write the rose::obs metrics snapshot (YAML) after the
//                       run; see docs/metrics.md for every metric.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/common/parallel.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/obs/metrics.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: reproduce_bug [<bug-id>|all] [seed] [flags]

Run the full Rose pipeline: profile the healthy system, trigger the bug
under a nemesis, dump the trace window, diagnose (Levels 1-3), and confirm
the fault schedule. With no arguments, lists the bug catalogue.

positional arguments:
  <bug-id>|all        one catalogued bug (e.g. RedisRaft-43), or every bug
  seed                base RNG seed (default 42); (seed, schedule) fully
                      determines an execution

flags:
  --parallelism=N     worker threads for candidate execution (default: the
                      machine's hardware concurrency); any value yields the
                      identical report, only wall-clock time changes
  --tries=N           retry with fresh seeds up to N times when a run ends
                      without reproduction (default 3)
  --schedule-out=FILE write the confirmed schedule's canonical YAML to FILE
                      (single-bug mode)
  --stats-out=FILE    write the rose::obs metrics snapshot (YAML) to FILE
                      after the run (see docs/metrics.md)
  --help              show this help and exit
)";

int RunOne(const rose::BugSpec& spec, uint64_t seed, int parallelism, int tries,
           bool verbose, const std::string& schedule_out) {
  rose::RoseConfig config;
  config.seed = seed;
  config.diagnosis.parallelism = parallelism;
  const rose::RoseReport report = rose::ReproduceBugRobust(spec, config, tries);
  if (!report.trace_obtained) {
    std::printf("%-18s  NO PRODUCTION TRACE (after %d attempts)\n", spec.id.c_str(),
                report.production_attempts);
    return 1;
  }
  std::printf("%-18s  %s  L%d  RR=%3.0f%%  sched=%-3d runs=%-3d time=%5.1fm  FR=%2.0f%%  [%s]\n",
              spec.id.c_str(), report.reproduced() ? "REPRODUCED " : "NOT-REPRO  ",
              report.diagnosis.level, report.replay_rate(), report.schedules(),
              report.runs(), report.minutes(), report.fr_percent(),
              report.diagnosis.fault_summary.c_str());
  if (verbose && report.reproduced()) {
    std::printf("%s\n", report.diagnosis.schedule.ToYaml().c_str());
  }
  if (!schedule_out.empty() && report.reproduced()) {
    std::ofstream out(schedule_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "reproduce_bug: cannot write %s\n", schedule_out.c_str());
      return 2;
    }
    // Byte-exact ToYaml so the file diffs cleanly against served results.
    out << report.diagnosis.schedule.ToYaml();
    std::printf("confirmed schedule written to %s\n", schedule_out.c_str());
  }
  return report.reproduced() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int parallelism = rose::WorkerPool::DefaultParallelism();
  int tries = 3;
  std::string schedule_out;
  std::string stats_out;
  // Peel off flags; what remains is <bug-id>|all [seed].
  const char* positional[2] = {nullptr, nullptr};
  int num_positional = 0;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strncmp(argv[i], "--stats-out=", 12) == 0) {
      stats_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_out = argv[++i];  // Space form, as the other CLIs accept.
    } else if (std::strncmp(argv[i], "--parallelism=", 14) == 0) {
      parallelism = std::atoi(argv[i] + 14);
      if (parallelism < 1) {
        std::fprintf(stderr, "--parallelism must be >= 1\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--tries=", 8) == 0) {
      tries = std::atoi(argv[i] + 8);
      if (tries < 1) {
        std::fprintf(stderr, "--tries must be >= 1\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--schedule-out=", 15) == 0) {
      schedule_out = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s (see --help)\n", argv[i]);
      return 2;
    } else if (num_positional < 2) {
      positional[num_positional++] = argv[i];
    }
  }
  if (num_positional == 0) {
    std::printf("known bugs:\n");
    for (const rose::BugSpec* spec : rose::AllBugs()) {
      std::printf("  %-18s %-32s %s\n", spec->id.c_str(), spec->system.c_str(),
                  spec->description.c_str());
    }
    std::printf("\nusage: %s <bug-id>|all [seed] [--parallelism=N]\n", argv[0]);
    return 0;
  }
  const uint64_t seed =
      num_positional > 1 ? static_cast<uint64_t>(std::atoll(positional[1])) : 42;
  const auto flush_stats = [&stats_out] {
    if (stats_out.empty()) {
      return true;
    }
    if (!rose::WriteStatsFile(stats_out)) {
      std::fprintf(stderr, "reproduce_bug: cannot write %s\n", stats_out.c_str());
      return false;
    }
    std::printf("metrics snapshot written to %s\n", stats_out.c_str());
    return true;
  };
  if (std::strcmp(positional[0], "all") == 0) {
    int failures = 0;
    for (const rose::BugSpec* spec : rose::AllBugs()) {
      failures += RunOne(*spec, seed, parallelism, tries, /*verbose=*/false,
                         /*schedule_out=*/"");
    }
    if (!flush_stats()) {
      return 2;
    }
    return failures == 0 ? 0 : 1;
  }
  const rose::BugSpec* spec = rose::FindBug(positional[0]);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown bug id: %s\n", positional[0]);
    return 2;
  }
  const int rc = RunOne(*spec, seed, parallelism, tries, /*verbose=*/true, schedule_out);
  if (!flush_stats()) {
    return 2;
  }
  return rc;
}
