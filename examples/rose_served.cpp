// rose_served — the diagnosis daemon, serving several clients at once.
//
// Stands up a DiagnosisService, connects one client per requested job over an
// in-process pipe (MakePipePair), and pumps everything until the queue drains.
// Each submission is either a saved dump pair (bug=BASE loads BASE.trc +
// BASE.profile) or generated on the fly by simulating phases 1–2 for the
// named bug. Confirmed schedules land in --out as <bug>-<seed>.yaml —
// byte-identical to offline `reproduce_bug --schedule-out` for the same seed.
//
// With --cache-dir the result store persists: restart the daemon on the same
// directory and resubmissions are answered from disk without an engine run.
//
// Usage:
//   ./build/examples/rose_served [flags] <bug-id>[=DUMPBASE] ...
//
// Flags:
//   --cache-dir DIR    persist confirmed schedules across restarts
//   --out DIR          write confirmed schedule YAML files here (default ".")
//   --concurrency N    diagnosis jobs running at once (default 2)
//   --queue N          queued-job bound; overflow is rejected with kQueueFull
//   --seed N           submission seed (default 42)
//   --stats-out FILE   write the rose::obs metrics snapshot (YAML) at shutdown
//   --stats-interval S one-line service summary every S host seconds (0 = off)
//   --stream-window B  per-stream-session resident window bound in bytes
//
// Example — three bugs, two of them identical (the duplicate coalesces):
//   ./build/examples/rose_served RedisRaft-43 MiniZK-1058 RedisRaft-43
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "examples/obtain_dump.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/service.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: rose_served [flags] <bug-id>[=DUMPBASE] ...

The diagnosis daemon, serving several clients at once. Stands up a
DiagnosisService, connects one client per requested job over an
in-process pipe, and pumps everything until the queue drains. Each
submission is a saved dump pair (bug=BASE loads BASE.trc + BASE.profile)
or is generated by simulating phases 1-2 for the named bug. Confirmed
schedules land in --out as <bug>-<seed>.yaml, byte-identical to offline
`reproduce_bug --schedule-out` for the same seed.

flags:
  --cache-dir DIR    persist confirmed schedules across restarts
  --out DIR          write confirmed schedule YAML files here (default .)
  --concurrency N    diagnosis jobs running at once (default 2)
  --queue N          queued-job bound; overflow is rejected with kQueueFull
  --seed N           submission seed (default 42)
  --stats-out FILE   write the rose::obs metrics snapshot (YAML) to FILE
                     at shutdown (see docs/metrics.md)
  --stats-interval S print a one-line service summary every S seconds of
                     host time while pumping (0 = off, default 2)
  --stream-window B  per-stream-session resident window bound in bytes;
                     the oldest events past it drop (default 4 MiB; see
                     DESIGN.md section 16)
  --help             show this help and exit

example (three bugs, two identical -- the duplicate coalesces):
  rose_served RedisRaft-43 MiniZK-1058 RedisRaft-43
)";

struct Submission {
  std::string bug_id;
  std::string dump_base;  // Empty = simulate phases 1-2.
  std::unique_ptr<rose::ServeClient> client;
  uint64_t handle = 0;
  bool reported = false;
};

}  // namespace

int main(int argc, char** argv) {
  rose::ServeConfig config;
  std::string out_dir = ".";
  std::string stats_out;
  double stats_interval = 2.0;
  uint64_t seed = 42;
  std::vector<Submission> submissions;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      config.cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--concurrency") == 0 && i + 1 < argc) {
      config.max_concurrent_jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      config.queue_capacity = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_out = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--stream-window") == 0 && i + 1 < argc) {
      config.stream_window_bytes = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      Submission sub;
      const char* eq = std::strchr(argv[i], '=');
      if (eq != nullptr) {
        sub.bug_id.assign(argv[i], static_cast<size_t>(eq - argv[i]));
        sub.dump_base = eq + 1;
      } else {
        sub.bug_id = argv[i];
      }
      submissions.push_back(std::move(sub));
    }
  }
  if (submissions.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--cache-dir DIR] [--out DIR] [--concurrency N] [--queue N] "
                 "[--seed N] [--stats-out FILE] [--stats-interval S] [--stream-window B] "
                 "<bug-id>[=DUMPBASE] ...  (see --help)\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  rose::DiagnosisService service(config);
  std::printf("rose_served: listening (concurrency=%d queue=%zu cache=%s)\n",
              config.max_concurrent_jobs, config.queue_capacity,
              config.cache_dir.empty() ? "memory" : config.cache_dir.c_str());

  // One connection per submission — the daemon's per-client fairness and
  // duplicate coalescing are visible with several tenants.
  size_t client_index = 0;
  for (Submission& sub : submissions) {
    client_index++;
    rose_examples::DumpPayload payload;
    if (!rose_examples::ObtainDump("rose_served", sub.bug_id, sub.dump_base, seed, &payload)) {
      return 1;
    }
    auto [client_end, service_end] = rose::MakePipePair();
    service.Attach(service_end);
    sub.client = std::make_unique<rose::ServeClient>(client_end);
    sub.handle = sub.client->SubmitBlob(sub.bug_id, seed, sub.bug_id, payload.profile_text,
                                        payload.dump.bytes);
    std::printf("client %zu: submitted %s (%zu events)\n", client_index,
                sub.bug_id.c_str(), payload.dump.trace.size());
  }

  int failures = 0;
  // Periodic one-line service summary — the daemon's heartbeat. Host wall
  // time only; never feeds back into the simulation.
  auto last_summary = std::chrono::steady_clock::now();
  for (;;) {
    if (stats_interval > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_summary).count() >= stats_interval) {
        last_summary = now;
        std::printf("rose_served: %s\n", service.BuildStats().ToString().c_str());
      }
    }
    bool all_done = true;
    for (Submission& sub : submissions) {
      sub.client->Poll();
      for (const rose::ProgressMsg& msg : sub.client->TakeProgress(sub.handle)) {
        std::printf("  [%s] %s\n", sub.bug_id.c_str(), msg.ToString().c_str());
      }
      if (!sub.client->done(sub.handle)) {
        all_done = false;
        continue;
      }
      if (sub.reported) {
        continue;
      }
      sub.reported = true;
      if (sub.client->failed(sub.handle)) {
        std::printf("%-18s  REJECTED: %s\n", sub.bug_id.c_str(),
                    sub.client->error_message(sub.handle).c_str());
        failures++;
        continue;
      }
      const rose::ServeJobResult& result = sub.client->result(sub.handle);
      const char* how = result.cached ? "cache" : result.coalesced ? "coalesced" : "ran";
      std::printf("%-18s  %s  L%d  RR=%3.0f%%  sched=%d runs=%d  (%s)  [%s]\n",
                  sub.bug_id.c_str(), result.reproduced ? "REPRODUCED " : "NOT-REPRO  ",
                  result.level, result.replay_rate, result.schedules, result.runs, how,
                  result.fault_summary.c_str());
      if (result.reproduced) {
        const std::string path = out_dir + "/" + sub.bug_id + "-" +
                                 std::to_string(seed) + ".yaml";
        std::ofstream out(path, std::ios::binary);
        out << result.schedule_yaml;
        std::printf("  schedule -> %s\n", path.c_str());
      } else {
        failures++;
      }
    }
    service.Poll();
    if (all_done && service.idle()) {
      break;
    }
  }

  // Final summary through the same formatter the periodic line and the
  // STATS wire reply use — one code path, one output format.
  std::printf("\nstats: %s\n", service.BuildStats().ToString().c_str());
  if (!stats_out.empty()) {
    if (!rose::WriteStatsFile(stats_out)) {
      std::fprintf(stderr, "rose_served: cannot write %s\n", stats_out.c_str());
      return 2;
    }
    std::printf("metrics snapshot written to %s\n", stats_out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
