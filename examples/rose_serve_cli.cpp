// rose_serve_cli — submit a production dump to the diagnosis service.
//
// The serve daemon replaces the paper's "carry the dump to the diagnosis
// machine" step. This client obtains a dump (simulating phases 1–2, or
// loading a saved .trc + .profile pair), submits it over the serve wire
// protocol, tails the progress stream, and prints the confirmed schedule —
// byte-identical to what an offline `reproduce_bug` run would produce for
// the same (dump, profile, seed).
//
// The OS substrate is simulated, so the daemon runs in-process and the wire
// is a bounded in-memory pipe; every protocol layer (framing, CRCs,
// backpressure, resynchronization) behaves as it would over a socket.
//
// Usage:
//   ./build/examples/rose_serve_cli <bug-id> [seed] [flags]
//
// Flags:
//   --dump FILE       load the production dump from FILE instead of simulating
//                     (its raw container bytes are submitted as-is)
//   --profile FILE    load the profiling baseline (required with --dump)
//   --save-dump BASE  after generating, write BASE.trc + BASE.profile
//   --yaml-out FILE   write the confirmed schedule YAML to FILE
//   --cache-dir DIR   persist confirmed schedules across daemon restarts
//   --again           resubmit the identical dump; the second submission must
//                     be served from the cache with zero extra engine runs
//   --stream          replay the dump through a stream session (open / data
//                     chunks / oracle mark) instead of one kSubmit
//   --chunk N         stream chunk size in bytes (default 4096)
//   --server-stats    send a STATS request and print the server's reply
//   --quiet           suppress the progress tail
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "src/harness/bug_registry.h"
#include "src/harness/runner.h"
#include "src/net/transport.h"
#include "src/serve/client.h"
#include "src/serve/service.h"
#include "src/trace/trace_io.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: rose_serve_cli <bug-id> [seed] [flags]

Submit a production dump to the diagnosis service. Obtains a dump
(simulating phases 1-2, or loading a saved .trc + .profile pair), submits
it over the serve wire protocol, tails the progress stream, and prints the
confirmed schedule -- byte-identical to what an offline `reproduce_bug`
run would produce for the same (dump, profile, seed). The daemon runs
in-process over a bounded in-memory pipe; every protocol layer (framing,
CRCs, backpressure, resynchronization) behaves as it would over a socket.

positional arguments:
  <bug-id>          one catalogued bug (e.g. RedisRaft-43)
  seed              submission seed (default 42)

flags:
  --dump FILE       load the production dump from FILE instead of simulating;
                    its raw container bytes are submitted verbatim
  --profile FILE    load the profiling baseline (required with --dump)
  --save-dump BASE  after generating, write BASE.trc + BASE.profile
  --yaml-out FILE   write the confirmed schedule YAML to FILE
  --cache-dir DIR   persist confirmed schedules across daemon restarts
  --again           resubmit the identical dump; the second submission must
                    be served from the cache with zero extra engine runs
                    (with --stream this re-submits over the classic kSubmit
                    path, proving the streamed window materialized to the
                    same cache key)
  --stream          replay the dump through a stream session instead of one
                    kSubmit: open the session, ship the container bytes in
                    --chunk sized kStreamData frames, then append an
                    oracle-mark frame -- the daemon materializes its window
                    and diagnoses under the session id (DESIGN.md section 16)
  --chunk N         stream chunk size in bytes (default 4096)
  --server-stats    send a STATS request after the job and print the
                    server's reply (counters, queue, metrics YAML)
  --quiet           suppress the progress tail
  --help            show this help and exit
)";

// Interleaves client and service pumps until `handle` resolves.
void PumpUntilDone(rose::ServeClient& client, rose::DiagnosisService& service,
                   uint64_t handle, bool quiet) {
  while (!client.done(handle)) {
    client.Poll();
    service.Poll();
    for (const rose::ProgressMsg& msg : client.TakeProgress(handle)) {
      if (!quiet) {
        std::printf("  %s\n", msg.ToString().c_str());
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string bug_id;
  uint64_t seed = 42;
  std::string dump_path;
  std::string profile_path;
  std::string save_dump;
  std::string yaml_out;
  std::string cache_dir;
  bool again = false;
  bool quiet = false;
  bool server_stats = false;
  bool stream = false;
  size_t chunk = 4096;
  int num_positional = 0;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--save-dump") == 0 && i + 1 < argc) {
      save_dump = argv[++i];
    } else if (std::strcmp(argv[i], "--yaml-out") == 0 && i + 1 < argc) {
      yaml_out = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--again") == 0) {
      again = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      chunk = static_cast<size_t>(std::atoll(argv[++i]));
      if (chunk == 0) {
        std::fprintf(stderr, "rose_serve_cli: --chunk must be positive\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--server-stats") == 0) {
      server_stats = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (num_positional == 0) {
      bug_id = argv[i];
      num_positional++;
    } else {
      seed = static_cast<uint64_t>(std::atoll(argv[i]));
    }
  }
  if (bug_id.empty()) {
    std::fprintf(stderr, "usage: %s <bug-id> [seed] [--dump FILE --profile FILE] "
                         "[--save-dump BASE] [--yaml-out FILE] [--cache-dir DIR] "
                         "[--again] [--stream] [--chunk N] [--server-stats] [--quiet]"
                         "  (see --help)\n", argv[0]);
    return 2;
  }
  const rose::BugSpec* spec = rose::FindBug(bug_id);
  if (spec == nullptr) {
    std::fprintf(stderr, "rose_serve_cli: unknown bug id %s\n", bug_id.c_str());
    return 2;
  }

  // --- Obtain the dump + baseline: load a saved pair or simulate phases 1-2.
  // Either way the dump is one LoadedTrace whose raw container bytes are
  // shipped to the server as-is (SubmitBlob); nothing re-encodes them.
  rose::LoadedTrace dump;
  std::string profile_text;
  if (!dump_path.empty()) {
    if (profile_path.empty()) {
      std::fprintf(stderr, "rose_serve_cli: --dump requires --profile\n");
      return 2;
    }
    dump = rose::LoadTraceFile(dump_path);
    for (const rose::Diagnostic& diag : dump.diagnostics) {
      std::fprintf(stderr, "  %s\n", diag.ToString().c_str());
    }
    if (rose::HasErrors(dump.diagnostics)) {
      std::fprintf(stderr, "rose_serve_cli: dump %s is damaged\n", dump_path.c_str());
      return 1;
    }
    rose::Profile profile;
    if (!rose::ReadFileBytes(profile_path, &profile_text) ||
        !rose::ParseProfile(profile_text, &profile)) {
      std::fprintf(stderr, "rose_serve_cli: cannot read profile %s\n", profile_path.c_str());
      return 2;
    }
    std::printf("loaded dump %s (%zu events) + profile %s\n", dump_path.c_str(),
                dump.trace.size(), profile_path.c_str());
  } else {
    rose::BugRunner runner(spec);
    std::printf("--- phases 1-2: profiling + production tracing (%s, seed %llu) ---\n",
                bug_id.c_str(), static_cast<unsigned long long>(seed));
    const rose::Profile profile = runner.RunProfiling(seed);
    int attempts = 0;
    std::optional<rose::Trace> production =
        runner.ObtainProductionTrace(profile, seed + 17, &attempts);
    if (!production.has_value()) {
      std::fprintf(stderr, "rose_serve_cli: bug never surfaced (after %d attempts)\n",
                   attempts);
      return 1;
    }
    dump.bytes = production->SerializeBinary();
    dump.trace = std::move(*production);
    profile_text = rose::SerializeProfile(profile);
    std::printf("dump window holds %zu events (%d production attempt(s))\n",
                dump.trace.size(), attempts);
  }

  if (!save_dump.empty()) {
    const std::string trc = save_dump + ".trc";
    const std::string prof = save_dump + ".profile";
    std::ofstream prof_out(prof, std::ios::binary);
    if (!rose::SaveTraceFile(trc, dump.trace) || !prof_out) {
      std::fprintf(stderr, "rose_serve_cli: cannot write %s\n", save_dump.c_str());
      return 2;
    }
    prof_out << profile_text;
    std::printf("saved %s + %s\n", trc.c_str(), prof.c_str());
  }

  // --- Stand up the in-process daemon and connect over a bounded pipe.
  rose::ServeConfig serve_config;
  serve_config.cache_dir = cache_dir;
  rose::DiagnosisService service(serve_config);
  auto [client_end, server_end] = rose::MakePipePair();
  service.Attach(server_end);
  rose::ServeClient client(client_end);

  auto submit_job = [&]() {
    return client.SubmitBlob(bug_id, seed, "cli", profile_text, dump.bytes);
  };

  // --stream: replay the same container bytes through a stream session. The
  // daemon's window re-canonicalizes to the identical blob a kSubmit would
  // have carried, so the result (and the cache key) must match byte for byte.
  auto stream_job = [&]() {
    const std::string_view blob = dump.bytes;
    const uint64_t handle = client.OpenStream(bug_id, seed, "cli", profile_text);
    for (size_t off = 0; off < blob.size(); off += chunk) {
      client.StreamData(handle, blob.substr(off, chunk));
      client.Poll();
      service.Poll();
    }
    // The in-band "failure fired" signal: diagnosis starts on what the
    // daemon's window holds.
    rose::OracleMark mark;
    mark.detail = "cli replay";
    std::string tail;
    rose::AppendRtrcFrame(&tail, rose::kFrameOracleMark, rose::EncodeOracleMark(mark));
    client.StreamData(handle, tail);
    return handle;
  };

  std::printf("\n--- submitting to rose_served%s ---\n",
              stream ? " (stream session)" : "");
  const uint64_t first = stream ? stream_job() : submit_job();
  PumpUntilDone(client, service, first, quiet);
  if (stream) {
    client.CloseStream(first);
    while (service.stream_sessions() > 0) {
      client.Poll();
      service.Poll();
    }
  }
  if (client.failed(first)) {
    std::fprintf(stderr, "rose_serve_cli: rejected: %s (%s)\n",
                 client.error_message(first).c_str(),
                 std::string(rose::ServeErrorName(client.error_code(first))).c_str());
    return 1;
  }
  const rose::ServeJobResult& result = client.result(first);
  std::printf("%s  %s  L%d  RR=%3.0f%%  sched=%d runs=%d  [%s]\n", bug_id.c_str(),
              result.reproduced ? "REPRODUCED " : "NOT-REPRO  ", result.level,
              result.replay_rate, result.schedules, result.runs,
              result.fault_summary.c_str());
  if (result.reproduced) {
    std::printf("%s\n", result.schedule_yaml.c_str());
  }
  if (!yaml_out.empty() && result.reproduced) {
    std::ofstream out(yaml_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "rose_serve_cli: cannot write %s\n", yaml_out.c_str());
      return 2;
    }
    out << result.schedule_yaml;
    std::printf("schedule written to %s\n", yaml_out.c_str());
  }

  if (again) {
    const uint64_t runs_before = service.stats().engine_runs;
    std::printf("\n--- resubmitting the identical dump ---\n");
    const uint64_t second = submit_job();
    PumpUntilDone(client, service, second, quiet);
    const rose::ServeJobResult& cached = client.result(second);
    const bool hit = client.accept_kind(second) == rose::AcceptKind::kCacheHit;
    const uint64_t extra_runs = service.stats().engine_runs - runs_before;
    std::printf("disposition: %s; extra engine runs: %llu; yaml identical: %s\n",
                hit ? "cache hit" : "MISS (unexpected)",
                static_cast<unsigned long long>(extra_runs),
                cached.schedule_yaml == result.schedule_yaml ? "yes" : "NO");
    if (!hit || extra_runs != 0 || cached.schedule_yaml != result.schedule_yaml) {
      return 1;
    }
  }

  if (server_stats) {
    // Exercise the STATS wire round-trip rather than peeking at the
    // in-process service object: request, pump, print the decoded reply.
    std::printf("\n--- STATS request over the wire ---\n");
    client.RequestStats();
    while (!client.stats_available()) {
      client.Poll();
      service.Poll();
    }
    const rose::StatsMsg& remote = client.stats();
    std::printf("server: %s\n", remote.ToString().c_str());
    if (!quiet && !remote.metrics_yaml.empty()) {
      std::printf("%s", remote.metrics_yaml.c_str());
    }
  }

  // Same formatter as the daemon's periodic heartbeat and the STATS reply.
  std::printf("\nserver stats: %s\n", service.BuildStats().ToString().c_str());
  return result.reproduced ? 0 : 1;
}
