// rose_routerd — the serve cluster's router/coordinator daemon.
//
// Stands up N in-process rose_served backends behind one ClusterRouter and
// pushes every submission through the router: jobs shard by canonical trace
// hash onto a consistent-hash ring, dispatches are journaled (and optionally
// replicated to a follower file), and a shard crashed mid-job (--kill-shard)
// is failed over — its jobs re-dispatch to the ring successor and finish
// with byte-identical results, courtesy of engine determinism. Clients speak
// the unchanged serve protocol; nothing distinguishes the router from a
// single daemon on the wire.
//
// Usage:
//   ./build/examples/rose_routerd [flags] <bug-id>[=DUMPBASE] ...
//
// Example — two shards, one killed mid-job; the survivor finishes all jobs:
//   ./build/examples/rose_routerd --shards 2 --kill-shard shard0 RedisRaft-42 RedisRaft-43
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "examples/obtain_dump.h"
#include "src/cluster/journal.h"
#include "src/cluster/router.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/service.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: rose_routerd [flags] <bug-id>[=DUMPBASE] ...

The serve cluster's router/coordinator. Stands up N in-process rose_served
backends behind one ClusterRouter: submissions shard by canonical trace
hash onto a consistent-hash ring, every dispatch is journaled before it is
forwarded, and a shard killed mid-job (--kill-shard) fails over to the
ring successor with byte-identical results. Clients speak the unchanged
serve wire protocol; confirmed schedules land in --out as
<bug>-<seed>.yaml, byte-identical to a single rose_served daemon and to
offline `reproduce_bug --schedule-out` for the same seed.

flags:
  --shards N         in-process rose_served backends on the ring (default 2)
  --journal FILE     append the coordinator journal to FILE (default: memory
                     only); a restarted router replays FILE and re-poses
                     whatever never completed
  --follower FILE    replicate the journal byte-for-byte to FILE over a
                     follower link while serving
  --kill-shard NAME  crash shard NAME as soon as it starts its first job;
                     its in-flight jobs re-dispatch to the ring successor
  --cache-dir DIR    per-shard result caches in DIR/<shard-name>
  --out DIR          write confirmed schedule YAML files here (default .)
  --concurrency N    per-shard concurrent diagnosis jobs (default 2)
  --seed N           submission seed (default 42)
  --stats-out FILE   write the rose::obs metrics snapshot (YAML) to FILE
                     at shutdown (see docs/metrics.md)
  --help             show this help and exit

example (two shards, one killed mid-job; the survivor finishes all jobs):
  rose_routerd --shards 2 --kill-shard shard0 RedisRaft-42 RedisRaft-43
)";

struct Submission {
  std::string bug_id;
  std::string dump_base;  // Empty = simulate phases 1-2.
  std::unique_ptr<rose::ServeClient> client;
  uint64_t handle = 0;
  bool reported = false;
};

// One backend shard: a full DiagnosisService on its own "socket".
struct ShardProc {
  std::string name;
  std::unique_ptr<rose::DiagnosisService> service;
  std::shared_ptr<rose::Transport> service_end;
  bool alive = true;
};

}  // namespace

int main(int argc, char** argv) {
  int shard_count = 2;
  rose::ServeConfig shard_config;
  rose::RouterConfig router_config;
  std::string follower_path;
  std::string kill_shard;
  std::string cache_dir;
  std::string out_dir = ".";
  std::string stats_out;
  uint64_t seed = 42;
  std::vector<Submission> submissions;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_count = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      router_config.journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--follower") == 0 && i + 1 < argc) {
      follower_path = argv[++i];
    } else if (std::strcmp(argv[i], "--kill-shard") == 0 && i + 1 < argc) {
      kill_shard = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--concurrency") == 0 && i + 1 < argc) {
      shard_config.max_concurrent_jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_out = argv[++i];
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
  if (submissions.empty() || shard_count < 1) {
    std::fprintf(stderr,
                 "usage: %s [--shards N] [--journal FILE] [--follower FILE] "
                 "[--kill-shard NAME] [--cache-dir DIR] [--out DIR] [--concurrency N] "
                 "[--seed N] [--stats-out FILE] <bug-id>[=DUMPBASE] ...  (see --help)\n",
                 argv[0]);
    return 2;
  }
  if (!kill_shard.empty() && shard_count < 2) {
    std::fprintf(stderr, "rose_routerd: --kill-shard needs --shards >= 2 "
                         "(someone must survive to take over)\n");
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  std::unique_ptr<rose::JournalFollower> follower;
  if (!follower_path.empty()) {
    auto [leader_end, follower_end] = rose::MakePipePair();
    router_config.journal_follower = leader_end;
    follower = std::make_unique<rose::JournalFollower>(follower_path, follower_end);
  }
  rose::ClusterRouter router(router_config);
  std::vector<ShardProc> shards(static_cast<size_t>(shard_count));
  for (size_t i = 0; i < shards.size(); i++) {
    shards[i].name = "shard" + std::to_string(i);
    rose::ServeConfig config = shard_config;
    if (!cache_dir.empty()) {
      config.cache_dir = cache_dir + "/" + shards[i].name;
    }
    shards[i].service = std::make_unique<rose::DiagnosisService>(config);
    auto [router_end, service_end] = rose::MakePipePair();
    shards[i].service_end = service_end;
    shards[i].service->Attach(service_end);
    router.AttachShard(shards[i].name, router_end);
  }
  std::printf("rose_routerd: %d shards on the ring (journal=%s epoch=%llu)\n",
              shard_count,
              router_config.journal_path.empty() ? "memory"
                                                 : router_config.journal_path.c_str(),
              static_cast<unsigned long long>(router.ring().epoch()));

  size_t client_index = 0;
  for (Submission& sub : submissions) {
    client_index++;
    rose_examples::DumpPayload payload;
    if (!rose_examples::ObtainDump("rose_routerd", sub.bug_id, sub.dump_base, seed, &payload)) {
      return 1;
    }
    auto [client_end, router_end] = rose::MakePipePair();
    router.AttachClient(router_end);
    sub.client = std::make_unique<rose::ServeClient>(client_end);
    sub.handle = sub.client->SubmitBlob(sub.bug_id, seed, sub.bug_id, payload.profile_text,
                                        payload.dump.bytes);
    std::printf("client %zu: submitted %s (%zu events)\n", client_index,
                sub.bug_id.c_str(), payload.dump.trace.size());
  }

  int failures = 0;
  bool killed = kill_shard.empty();
  for (;;) {
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
    router.Poll();
    for (ShardProc& shard : shards) {
      if (!shard.alive) {
        continue;
      }
      shard.service->Poll();
      if (!killed && shard.name == kill_shard &&
          shard.service->stats().jobs_submitted > 0) {
        // Crash mid-job: stop the backend cold (its transport half-closes),
        // tell the router, and let failover re-pose whatever it owned.
        killed = true;
        shard.alive = false;
        shard.service_end->Close();
        router.DetachShard(shard.name);
        std::printf("rose_routerd: killed %s mid-job; re-dispatching to ring "
                    "successor (failovers=%llu)\n",
                    shard.name.c_str(),
                    static_cast<unsigned long long>(router.stats().failovers));
      }
    }
    if (follower != nullptr) {
      follower->Poll();
    }
    bool shards_idle = true;
    for (ShardProc& shard : shards) {
      if (shard.alive && !shard.service->idle()) {
        shards_idle = false;
      }
    }
    if (all_done && shards_idle && router.idle()) {
      break;
    }
  }

  std::printf("\nstats: %s\n", router.BuildStats().ToString().c_str());
  std::printf("cluster: routed=%llu completed=%llu failovers=%llu redispatches=%llu "
              "journal_appends=%llu\n",
              static_cast<unsigned long long>(router.stats().jobs_routed),
              static_cast<unsigned long long>(router.stats().completions),
              static_cast<unsigned long long>(router.stats().failovers),
              static_cast<unsigned long long>(router.stats().redispatches),
              static_cast<unsigned long long>(router.journal().appends()));
  if (follower != nullptr) {
    std::printf("follower: %llu journal bytes replicated to %s\n",
                static_cast<unsigned long long>(follower->bytes_received()),
                follower->path().c_str());
  }
  if (!stats_out.empty()) {
    if (!rose::WriteStatsFile(stats_out)) {
      std::fprintf(stderr, "rose_routerd: cannot write %s\n", stats_out.c_str());
      return 2;
    }
    std::printf("metrics snapshot written to %s\n", stats_out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
