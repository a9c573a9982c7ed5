// Tests for rose::cluster — consistent-hash ring stability, the replicated
// coordinator journal (replay determinism, torn tails, a failed append cut
// off, follower byte identity), and the router end to end: clustered output
// parity with a single daemon, mid-job shard kill -> re-dispatch ->
// byte-identical result, corrupt-frame resynchronization, journal-replay
// restart recovery, the per-client reply order across shards, a refused
// stream open, and failover on a damaged shard frame.
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analyze/trace_validator.h"
#include "src/cluster/hash_ring.h"
#include "src/cluster/journal.h"
#include "src/cluster/router.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/harness/runner.h"
#include "src/net/transport.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/trace/mmap_file.h"

namespace rose {
namespace {

// --- HashRing ---------------------------------------------------------------

TEST(HashRingTest, MembershipAndEpochs) {
  HashRing ring;
  EXPECT_EQ(ring.OwnerOf(1), "");  // Empty ring owns nothing.
  EXPECT_TRUE(ring.AddShard("a"));
  EXPECT_FALSE(ring.AddShard("a"));  // Duplicate: no change, no epoch bump.
  EXPECT_TRUE(ring.AddShard("b"));
  EXPECT_EQ(ring.epoch(), 2u);
  EXPECT_TRUE(ring.HasShard("a"));
  EXPECT_FALSE(ring.RemoveShard("zz"));
  EXPECT_TRUE(ring.RemoveShard("a"));
  EXPECT_EQ(ring.epoch(), 3u);
  EXPECT_EQ(ring.shards(), std::vector<std::string>{"b"});
}

TEST(HashRingTest, AddRemoveOnlyRemapsTheTouchedShardsKeys) {
  HashRing ring;
  ring.AddShard("a");
  ring.AddShard("b");
  ring.AddShard("c");
  std::map<uint64_t, std::string> before;
  for (uint64_t key = 0; key < 2000; key++) {
    before[key] = ring.OwnerOf(key);
  }
  // Adding a shard may only steal keys (for itself); nothing else moves.
  ring.AddShard("d");
  size_t moved = 0;
  for (const auto& [key, owner] : before) {
    const std::string now = ring.OwnerOf(key);
    if (now != owner) {
      EXPECT_EQ(now, "d") << "key " << key << " moved " << owner << " -> " << now;
      moved++;
    }
  }
  EXPECT_GT(moved, 0u);          // The new shard claimed a slice...
  EXPECT_LT(moved, before.size());  // ...but nowhere near everything.
  // Removing it restores every original owner exactly.
  ring.RemoveShard("d");
  for (const auto& [key, owner] : before) {
    EXPECT_EQ(ring.OwnerOf(key), owner);
  }
}

TEST(HashRingTest, OwnershipSplitsRoughlyEvenly) {
  HashRing ring;
  ring.AddShard("a");
  ring.AddShard("b");
  std::map<std::string, int> counts;
  for (uint64_t key = 0; key < 4000; key++) {
    counts[ring.OwnerOf(key)]++;
  }
  // 64 vnodes each: both shards must hold a substantial share (not 90/10).
  EXPECT_GT(counts["a"], 1000);
  EXPECT_GT(counts["b"], 1000);
}

TEST(HashRingTest, SuccessorSkipsTheDeadShardAndMatchesPostRemovalOwner) {
  HashRing ring;
  ring.AddShard("a");
  ring.AddShard("b");
  ring.AddShard("c");
  // The failover successor computed while `victim` is still a member must be
  // exactly the owner after the victim's removal — that is what makes
  // re-dispatch agree with fresh routing.
  std::map<uint64_t, std::string> successor;
  for (uint64_t key = 0; key < 500; key++) {
    const std::string victim = ring.OwnerOf(key);
    EXPECT_NE(ring.SuccessorOf(key, victim), victim);
    if (victim == "b") {
      successor[key] = ring.SuccessorOf(key, "b");
    }
  }
  ASSERT_FALSE(successor.empty());
  ring.RemoveShard("b");
  for (const auto& [key, next] : successor) {
    EXPECT_EQ(ring.OwnerOf(key), next);
  }
  // Last shard standing: the only member is every key's successor; with the
  // whole ring skipped there is nobody.
  ring.RemoveShard("a");
  EXPECT_EQ(ring.SuccessorOf(7, "c"), "");
  EXPECT_EQ(ring.OwnerOf(7), "c");
}

// --- Journal ----------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DispatchRecord SampleDispatch(uint64_t job_id, const std::string& shard) {
  DispatchRecord record;
  record.job_id = job_id;
  record.key = 0x1111 * job_id;
  record.trace_hash = 0x2222 * job_id;
  record.shard = shard;
  record.redispatch = job_id % 2 == 0;
  record.payload = "submit-payload-" + std::to_string(job_id);
  return record;
}

TEST(ClusterJournalTest, RecordCodecsRoundTrip) {
  const DispatchRecord dispatch = SampleDispatch(7, "shard1");
  DispatchRecord dispatch2;
  ASSERT_TRUE(DecodeDispatch(EncodeDispatch(dispatch), &dispatch2));
  EXPECT_EQ(dispatch2.job_id, 7u);
  EXPECT_EQ(dispatch2.key, dispatch.key);
  EXPECT_EQ(dispatch2.trace_hash, dispatch.trace_hash);
  EXPECT_EQ(dispatch2.shard, "shard1");
  EXPECT_EQ(dispatch2.redispatch, dispatch.redispatch);
  EXPECT_EQ(dispatch2.payload, dispatch.payload);

  RingEpochRecord epoch{3, {"a", "b"}};
  RingEpochRecord epoch2;
  ASSERT_TRUE(DecodeRingEpoch(EncodeRingEpoch(epoch), &epoch2));
  EXPECT_EQ(epoch2.epoch, 3u);
  EXPECT_EQ(epoch2.shards, epoch.shards);

  CompleteRecord complete{7, true};
  CompleteRecord complete2;
  ASSERT_TRUE(DecodeComplete(EncodeComplete(complete), &complete2));
  EXPECT_EQ(complete2.job_id, 7u);
  EXPECT_TRUE(complete2.reproduced);

  // Trailing garbage is malformed, not ignored.
  EXPECT_FALSE(DecodeComplete(EncodeComplete(complete) + "x", &complete2));
}

TEST(ClusterJournalTest, ReplayIsDeterministicAndByteIdenticalAcrossRuns) {
  const std::string path_a = TempPath("rose_journal_a.rjnl");
  const std::string path_b = TempPath("rose_journal_b.rjnl");
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
  for (const std::string& path : {path_a, path_b}) {
    ClusterJournal journal(path);
    journal.AppendRingEpoch(RingEpochRecord{1, {"s0"}});
    journal.AppendDispatch(SampleDispatch(1, "s0"));
    journal.AppendDispatch(SampleDispatch(2, "s0"));
    journal.AppendComplete(CompleteRecord{1, true});
  }
  std::string bytes_a, bytes_b;
  ASSERT_TRUE(ReadFileBytes(path_a, &bytes_a));
  ASSERT_TRUE(ReadFileBytes(path_b, &bytes_b));
  EXPECT_EQ(bytes_a, bytes_b);  // Same appends, same bytes — no timestamps.

  ClusterJournal replayed(path_a);
  EXPECT_FALSE(replayed.recovered_torn_tail());
  EXPECT_EQ(replayed.replayed_records(), 4u);
  ASSERT_EQ(replayed.pending().size(), 1u);  // Job 2 never completed.
  EXPECT_EQ(replayed.pending().begin()->first, 2u);
  EXPECT_EQ(replayed.pending().begin()->second.payload, "submit-payload-2");
  EXPECT_EQ(replayed.next_job_id(), 3u);
  EXPECT_EQ(replayed.last_epoch().epoch, 1u);
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(ClusterJournalTest, TornTailIsDroppedOnReplayAndTruncatedAway) {
  const std::string path = TempPath("rose_journal_torn.rjnl");
  std::filesystem::remove(path);
  {
    ClusterJournal journal(path);
    journal.AppendDispatch(SampleDispatch(1, "s0"));
    journal.AppendDispatch(SampleDispatch(2, "s0"));
  }
  // Crash mid-append: cut into the last record.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  {
    ClusterJournal journal(path);
    EXPECT_TRUE(journal.recovered_torn_tail());
    EXPECT_EQ(journal.replayed_records(), 1u);  // Only the intact record.
    ASSERT_EQ(journal.pending().size(), 1u);
    EXPECT_EQ(journal.pending().begin()->first, 1u);
    // Appending over the truncated tail writes a clean record.
    journal.AppendDispatch(SampleDispatch(3, "s1"));
  }
  ClusterJournal reopened(path);
  EXPECT_FALSE(reopened.recovered_torn_tail());
  EXPECT_EQ(reopened.replayed_records(), 2u);
  EXPECT_EQ(reopened.pending().size(), 2u);
  EXPECT_EQ(reopened.next_job_id(), 4u);
  std::filesystem::remove(path);
}

// A write cut short while the router lives (here by RLIMIT_FSIZE, with
// SIGXFSZ ignored so the write fails with EFBIG instead of killing the
// process) must not strand the records after it behind a torn one.
TEST(ClusterJournalTest, FailedAppendIsCutOffSoLaterAppendsReplay) {
  const std::string path = TempPath("rose_journal_fsize.rjnl");
  std::filesystem::remove(path);
  const DispatchRecord first = SampleDispatch(1, "s0");
  DispatchRecord second = SampleDispatch(2, "s0");
  second.payload.assign(4096, 'x');
  const DispatchRecord third = SampleDispatch(3, "s0");
  const CompleteRecord done{1, true};
  const size_t third_bytes = kFrameHeaderSize + EncodeDispatch(third).size();
  const size_t done_bytes = kFrameHeaderSize + EncodeComplete(done).size();
  ASSERT_GT(kFrameHeaderSize + EncodeDispatch(second).size(), third_bytes + done_bytes);

  std::vector<bool> durable;
  uint64_t live_next_job_id = 0;
  {
    ClusterJournal journal(path);
    durable.push_back(journal.AppendDispatch(first));
    const auto intact = static_cast<rlim_t>(std::filesystem::file_size(path));
    // Room for the third dispatch and the completion, not for the second.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit capped = saved;
    capped.rlim_cur = intact + third_bytes + done_bytes;
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    durable.push_back(journal.AppendDispatch(second));
    durable.push_back(journal.AppendDispatch(third));
    durable.push_back(journal.AppendComplete(done));
    // Lift the cap before any assertion can write a report.
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
    live_next_job_id = journal.next_job_id();
  }
  EXPECT_EQ(durable, (std::vector<bool>{true, false, true, true}));
  EXPECT_EQ(live_next_job_id, 4u);

  ClusterJournal reopened(path);
  EXPECT_FALSE(reopened.recovered_torn_tail());
  EXPECT_EQ(reopened.replayed_records(), 3u);  // Dispatch 1, dispatch 3, complete 1.
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending().begin()->first, 3u);
  EXPECT_EQ(reopened.pending().begin()->second.payload, third.payload);
  EXPECT_EQ(reopened.next_job_id(), 4u);  // Job id 3 is never issued again.
  std::filesystem::remove(path);
}

TEST(ClusterJournalTest, FollowerReceivesByteIdenticalJournal) {
  const std::string leader_path = TempPath("rose_journal_leader.rjnl");
  const std::string follower_path = TempPath("rose_journal_follower.rjnl");
  std::filesystem::remove(leader_path);
  std::filesystem::remove(follower_path);
  {
    ClusterJournal earlier(leader_path);
    earlier.AppendRingEpoch(RingEpochRecord{1, {"s0", "s1"}});
    earlier.AppendDispatch(SampleDispatch(1, "s0"));
  }
  {
    // Reopened with a follower: the replayed journal ships from byte 0,
    // then every append.
    auto [leader_end, follower_end] = MakePipePair(/*capacity=*/128);
    ClusterJournal leader(leader_path, leader_end);
    JournalFollower follower(follower_path, follower_end);
    leader.AppendDispatch(SampleDispatch(2, "s1"));
    leader.AppendComplete(CompleteRecord{1, false});
    // Tiny pipe: replication needs many pump cycles (short writes for real).
    for (int i = 0; i < 10000 && !leader.replication_idle(); i++) {
      leader.PumpReplication();
      follower.Poll();
    }
    follower.Poll();
    EXPECT_TRUE(leader.replication_idle());
  }
  std::string leader_bytes, follower_bytes;
  ASSERT_TRUE(ReadFileBytes(leader_path, &leader_bytes));
  ASSERT_TRUE(ReadFileBytes(follower_path, &follower_bytes));
  EXPECT_EQ(leader_bytes, follower_bytes);
  // A promoted follower replays to the same coordinator state.
  ClusterJournal promoted(follower_path);
  EXPECT_EQ(promoted.pending().size(), 1u);
  EXPECT_EQ(promoted.pending().begin()->first, 2u);
  EXPECT_EQ(promoted.last_epoch().shards, (std::vector<std::string>{"s0", "s1"}));
  std::filesystem::remove(leader_path);
  std::filesystem::remove(follower_path);
}

// A follower that hangs up would never drain its backlog: once one record
// outgrows the pipe, the leader must drop it rather than stay non-idle and
// queue every later record for it.
TEST(ClusterJournalTest, HungUpFollowerIsDropped) {
  auto [leader_end, follower_end] = MakePipePair();
  ClusterJournal leader("", leader_end);
  JournalFollower follower("", follower_end);
  leader.AppendDispatch(SampleDispatch(1, "s0"));
  leader.PumpReplication();
  follower.Poll();
  ASSERT_TRUE(leader.replication_idle());

  follower_end->Close();  // The follower process dies.
  DispatchRecord big = SampleDispatch(2, "s0");
  big.payload.assign(200 * 1024, 'x');
  leader.AppendDispatch(big);
  for (int i = 0; i < 4; i++) {
    leader.PumpReplication();
  }
  EXPECT_TRUE(leader.replication_idle());
}

// --- Router end to end -------------------------------------------------------

struct Dump {
  Profile profile;
  Trace trace;
};

Dump MakeDump(const std::string& bug_id, uint64_t seed) {
  const BugSpec* spec = FindBug(bug_id);
  EXPECT_NE(spec, nullptr);
  BugRunner runner(spec);
  Dump dump;
  dump.profile = runner.RunProfiling(seed);
  std::optional<Trace> trace = runner.ObtainProductionTrace(dump.profile, seed + 17);
  EXPECT_TRUE(trace.has_value());
  dump.trace = std::move(*trace);
  return dump;
}

// Submits `dump` as its RTRC blob under (bug_id, seed).
uint64_t SubmitDump(ServeClient& client, const std::string& bug_id, uint64_t seed,
                    const Dump& dump) {
  return client.SubmitBlob(bug_id, seed, "", SerializeProfile(dump.profile),
                           dump.trace.SerializeBinary());
}

std::string OfflineYaml(const std::string& bug_id, uint64_t seed, const Dump& dump) {
  RoseConfig config;
  config.seed = seed;
  return DiagnoseTrace(*FindBug(bug_id), dump.profile, dump.trace, config)
      .schedule.ToYaml();
}

// The server half of a shard link, scripted by the test: it collects the
// router's submits and sends only what the test says, so when each reply
// reaches the router is the test's choice rather than a diagnosis's.
class ScriptedShard {
 public:
  explicit ScriptedShard(std::shared_ptr<Transport> end) : end_(end), link_(std::move(end)) {}

  // Sends what the test queued and collects the router's submits.
  void Pump() {
    link_.Flush();
    DecodedFrame frame;
    while (link_.Next(&frame) == FrameDecoder::Status::kFrame) {
      if (frame.kind == ServeFrame::kSubmit) {
        SubmitEnvelope env;
        ASSERT_TRUE(DecodeSubmitEnvelope(std::move(frame.payload), &env));
        tokens_.push_back(env.token());
      }
    }
  }
  size_t submits() const { return tokens_.size(); }

  // Accepts the oldest unanswered submit as backend job `job_id`, echoing
  // its token as every server does.
  void AcceptNext(uint64_t job_id) {
    AcceptedMsg accept;
    accept.job_id = job_id;
    accept.token = tokens_.at(accepted_++);
    link_.Send(ServeFrame::kAccepted, EncodeAccepted(accept));
  }
  void Result(uint64_t job_id, const std::string& yaml) {
    link_.Send(ServeFrame::kResult, EncodeResult(ScriptedResult(job_id, yaml)));
  }
  // Refuses the oldest unanswered request (a submit or a stream open) before
  // admission, as a server does: kError under job id 0.
  void Refuse(ServeError code) {
    link_.Send(ServeFrame::kError, EncodeError(ErrorMsg{0, code, "refused"}));
  }
  // Sends `payload` as a `kind` frame with its last payload byte flipped, so
  // it fails its CRC.
  void SendDamaged(ServeFrame kind, std::string_view payload) {
    std::string frame;
    AppendServeFrame(&frame, kind, payload);
    frame.back() ^= 0x5a;
    link_.Flush();
    ASSERT_EQ(end_->Write(frame), frame.size());
  }

  static ResultMsg ScriptedResult(uint64_t job_id, const std::string& yaml) {
    ResultMsg result;
    result.job_id = job_id;
    result.reproduced = true;
    result.schedule_yaml = yaml;
    return result;
  }

 private:
  std::shared_ptr<Transport> end_;
  ServeConnection link_;
  std::vector<uint64_t> tokens_;
  size_t accepted_ = 0;
};

// A one-event RTRC blob; each `n` names a different file, so each hashes
// (and is placed on the ring) differently.
std::string SmallBlob(int n) {
  Trace trace;
  TraceEvent event;
  event.ts = Seconds(1);
  event.node = 0;
  event.type = EventType::kSCF;
  event.info = ScfInfo{100, Sys::kOpen, -1, trace.Intern("/data/f" + std::to_string(n)),
                       Err::kEIO};
  trace.Append(event);
  return trace.SerializeBinary();
}

// The first SmallBlob that `ring` places on `shard`.
std::string BlobOwnedBy(const HashRing& ring, const std::string& shard) {
  for (int n = 0;; n++) {
    std::string blob = SmallBlob(n);
    uint64_t hash = 0;
    CanonicalBlobHash(blob, &hash);
    if (ring.OwnerOf(hash) == shard) {
      return blob;
    }
  }
}

// A router fronting N in-process DiagnosisService shards.
struct TestCluster {
  explicit TestCluster(RouterConfig config = {}) : router(std::move(config)) {}

  void AddShard(const std::string& name, ServeConfig config = ServeConfig{}) {
    auto service = std::make_unique<DiagnosisService>(config);
    auto [router_end, service_end] = MakePipePair();
    service->Attach(service_end);
    router.AttachShard(name, router_end);
    services.push_back(std::move(service));
    service_ends.push_back(service_end);
    names.push_back(name);
    alive.push_back(true);
  }

  ScriptedShard& AddScriptedShard(const std::string& name) {
    auto [router_end, shard_end] = MakePipePair();
    scripted.push_back(std::make_unique<ScriptedShard>(shard_end));
    router.AttachShard(name, router_end);
    return *scripted.back();
  }

  ServeClient& AddClient() {
    auto [client_end, router_end] = MakePipePair();
    router.AttachClient(router_end);
    clients.push_back(std::make_unique<ServeClient>(client_end));
    client_ends.push_back(client_end);
    return *clients.back();
  }

  void Kill(size_t shard) {
    alive[shard] = false;
    service_ends[shard]->Close();  // The crashed process's sockets die.
    router.DetachShard(names[shard]);
  }

  void Pump() {
    for (auto& client : clients) {
      client->Poll();
    }
    router.Poll();
    for (size_t i = 0; i < services.size(); i++) {
      if (alive[i]) {
        services[i]->Poll();
      }
    }
    for (auto& shard : scripted) {
      shard->Pump();
    }
  }

  void Pump(int rounds) {
    for (int round = 0; round < rounds; round++) {
      Pump();
    }
  }

  void PumpUntilAllDone() {
    for (;;) {
      Pump();
      bool done = true;
      for (auto& client : clients) {
        done = done && client->all_done();
      }
      if (done && router.idle()) {
        return;
      }
    }
  }

  ClusterRouter router;
  std::vector<std::unique_ptr<DiagnosisService>> services;
  std::vector<std::shared_ptr<Transport>> service_ends;
  std::vector<std::shared_ptr<Transport>> client_ends;
  std::vector<std::string> names;
  std::vector<bool> alive;
  std::vector<std::unique_ptr<ScriptedShard>> scripted;
  std::vector<std::unique_ptr<ServeClient>> clients;
};

TEST(ClusterRouterTest, TwoShardResultsAreByteIdenticalToOffline) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_b = MakeDump("RedisRaft-42", 31);
  TestCluster cluster;
  cluster.AddShard("shard0");
  cluster.AddShard("shard1");
  ServeClient& a = cluster.AddClient();
  ServeClient& b = cluster.AddClient();

  const uint64_t ha = SubmitDump(a, "RedisRaft-42", 42, dump_a);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 31, dump_b);
  cluster.PumpUntilAllDone();

  ASSERT_FALSE(a.failed(ha));
  ASSERT_FALSE(b.failed(hb));
  // The paper's acceptance bar, clustered: what the ring serves is exactly
  // what the offline engine produces, byte for byte.
  EXPECT_EQ(a.result(ha).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump_a));
  EXPECT_EQ(b.result(hb).schedule_yaml, OfflineYaml("RedisRaft-42", 31, dump_b));
  EXPECT_EQ(cluster.router.stats().jobs_routed, 2u);
  EXPECT_EQ(cluster.router.stats().completions, 2u);
  EXPECT_EQ(cluster.router.stats().failovers, 0u);
  EXPECT_TRUE(cluster.router.journal().pending().empty());
}

TEST(ClusterRouterTest, CacheHitsRouteToTheOwnerShardByteIdentically) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  TestCluster cluster;
  cluster.AddShard("shard0");
  cluster.AddShard("shard1");
  ServeClient& first = cluster.AddClient();
  const uint64_t h1 = SubmitDump(first, "RedisRaft-42", 42, dump);
  cluster.PumpUntilAllDone();
  ASSERT_FALSE(first.failed(h1));
  EXPECT_FALSE(first.result(h1).cached);

  // Resubmission from a different client: same trace hash -> same shard ->
  // its ResultCache answers, byte-identical, with zero extra engine runs.
  uint64_t runs = 0;
  for (auto& service : cluster.services) {
    runs += service->stats().engine_runs;
  }
  ServeClient& second = cluster.AddClient();
  const uint64_t h2 = SubmitDump(second, "RedisRaft-42", 42, dump);
  cluster.PumpUntilAllDone();
  ASSERT_FALSE(second.failed(h2));
  EXPECT_TRUE(second.result(h2).cached);
  EXPECT_EQ(second.accept_kind(h2), AcceptKind::kCacheHit);
  EXPECT_EQ(second.result(h2).schedule_yaml, first.result(h1).schedule_yaml);
  uint64_t runs_after = 0;
  for (auto& service : cluster.services) {
    runs_after += service->stats().engine_runs;
  }
  EXPECT_EQ(runs_after, runs);
}

TEST(ClusterRouterTest, MidJobShardKillRedispatchesAndStaysByteIdentical) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_b = MakeDump("RedisRaft-42", 31);
  TestCluster cluster;
  cluster.AddShard("shard0");
  cluster.AddShard("shard1");
  ServeClient& a = cluster.AddClient();
  ServeClient& b = cluster.AddClient();
  const uint64_t ha = SubmitDump(a, "RedisRaft-42", 42, dump_a);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 31, dump_b);

  // Pump until a shard owns at least one running job, then crash it cold.
  size_t victim = static_cast<size_t>(-1);
  while (victim == static_cast<size_t>(-1)) {
    cluster.Pump();
    for (size_t i = 0; i < cluster.services.size(); i++) {
      if (cluster.services[i]->stats().jobs_submitted > 0) {
        victim = i;
        break;
      }
    }
  }
  cluster.Kill(victim);
  cluster.PumpUntilAllDone();

  ASSERT_FALSE(a.failed(ha));
  ASSERT_FALSE(b.failed(hb));
  // Failover is invisible in the answer: engine determinism makes the
  // successor's re-run byte-identical to what the dead shard would have sent.
  EXPECT_EQ(a.result(ha).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump_a));
  EXPECT_EQ(b.result(hb).schedule_yaml, OfflineYaml("RedisRaft-42", 31, dump_b));
  EXPECT_EQ(cluster.router.stats().failovers, 1u);
  EXPECT_GE(cluster.router.stats().redispatches, 1u);
  EXPECT_TRUE(cluster.router.journal().pending().empty());
}

TEST(ClusterRouterTest, CorruptFrameIsSkippedAndTheConnectionKeepsServing) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_b = MakeDump("RedisRaft-42", 31);
  TestCluster cluster;
  cluster.AddShard("shard0");
  cluster.AddShard("shard1");
  ServeClient& client = cluster.AddClient();

  const uint64_t h1 = SubmitDump(client, "RedisRaft-42", 42, dump_a);
  cluster.PumpUntilAllDone();
  ASSERT_FALSE(client.failed(h1));

  // Inject a CRC-broken frame straight onto the wire between submissions.
  std::string corrupt;
  AppendServeFrame(&corrupt, ServeFrame::kSubmit, "not a real submit payload");
  corrupt.back() ^= 0x5a;
  size_t sent = 0;
  while (sent < corrupt.size()) {
    cluster.Pump();
    sent += cluster.client_ends.back()->Write(
        std::string_view(corrupt).substr(sent));
  }
  for (int i = 0; i < 5; i++) {
    cluster.Pump();  // Router skips the frame, answers kBadFrame (job id 0).
  }
  EXPECT_EQ(cluster.router.stats().corrupt_frames, 1u);

  // Exact resynchronization: the next real submission on the same connection
  // decodes and serves normally (cache hit for dump_a's twin would mask an
  // engine failure, so submit a different dump).
  const uint64_t h2 = SubmitDump(client, "RedisRaft-42", 31, dump_b);
  cluster.PumpUntilAllDone();
  ASSERT_FALSE(client.failed(h2));
  EXPECT_EQ(client.result(h2).schedule_yaml, OfflineYaml("RedisRaft-42", 31, dump_b));
}

TEST(ClusterRouterTest, RestartedRouterReplaysJournalAndFinishesPendingJobs) {
  const std::string journal_path = TempPath("rose_router_restart.rjnl");
  std::filesystem::remove(journal_path);
  const Dump dump = MakeDump("RedisRaft-42", 42);

  // First life: a job is admitted and journaled, but no shard ever serves
  // it — the coordinator "crashes" with the dispatch pending.
  {
    RouterConfig config;
    config.journal_path = journal_path;
    TestCluster cluster(config);
    ServeClient& client = cluster.AddClient();
    SubmitDump(client, "RedisRaft-42", 42, dump);
    while (cluster.router.journal().pending().empty()) {
      cluster.Pump();
    }
    EXPECT_EQ(cluster.router.inflight_jobs(), 1u);
  }

  // Second life: replay re-adopts the pending dispatch (subscriber-less),
  // and the first shard to attach receives and finishes it.
  RouterConfig config;
  config.journal_path = journal_path;
  TestCluster cluster(config);
  EXPECT_EQ(cluster.router.stats().recovered_jobs, 1u);
  EXPECT_EQ(cluster.router.inflight_jobs(), 1u);
  cluster.AddShard("shard0");
  cluster.AddShard("shard1");
  while (!cluster.router.idle()) {
    cluster.Pump();
  }
  EXPECT_EQ(cluster.router.stats().completions, 1u);
  EXPECT_TRUE(cluster.router.journal().pending().empty());
  // The shard really ran the diagnosis (nobody was listening, but the
  // journal's promise — every dispatched job completes — held).
  uint64_t runs = 0;
  for (auto& service : cluster.services) {
    runs += service->stats().engine_runs;
  }
  EXPECT_GT(runs, 0u);
  std::filesystem::remove(journal_path);
}

TEST(ClusterRouterTest, EpochsStayMonotonicAcrossRestart) {
  const std::string journal_path = TempPath("rose_router_epochs.rjnl");
  std::filesystem::remove(journal_path);
  {
    RouterConfig config;
    config.journal_path = journal_path;
    TestCluster cluster(config);
    cluster.AddShard("shard0");
    cluster.AddShard("shard1");
    EXPECT_EQ(cluster.router.ring().epoch(), 2u);
  }
  RouterConfig config;
  config.journal_path = journal_path;
  TestCluster cluster(config);
  EXPECT_EQ(cluster.router.ring().epoch(), 2u);  // Seeded from the journal.
  cluster.AddShard("shard0");
  EXPECT_EQ(cluster.router.ring().epoch(), 3u);  // Strictly after history.
  std::filesystem::remove(journal_path);
}

// --- Reply order through the router -------------------------------------------

// The client correlates a job-id-0 rejection with its oldest unanswered
// request, so a rejection the router makes on its own must not overtake the
// accept it still owes an earlier submit.
TEST(ClusterRouterTest, LocalRejectionWaitsForAnEarlierSubmitsAccept) {
  TestCluster cluster;
  ScriptedShard& shard = cluster.AddScriptedShard("shard0");
  ServeClient& client = cluster.AddClient();
  const std::string profile = SerializeProfile(Profile{});
  const std::string blob = SmallBlob(0);
  std::string damaged = blob;
  damaged[4] = 0;  // RTRC version 0: refused by the router's own admission.
  damaged[5] = 0;
  const uint64_t valid = client.SubmitBlob("RedisRaft-42", 42, "valid", profile, blob);
  const uint64_t rejected = client.SubmitBlob("RedisRaft-42", 43, "damaged", profile, damaged);
  cluster.Pump(8);
  ASSERT_EQ(shard.submits(), 1u);
  EXPECT_EQ(cluster.router.stats().rejected_invalid, 1u);
  EXPECT_FALSE(client.done(valid));
  EXPECT_FALSE(client.done(rejected));

  shard.AcceptNext(7);
  cluster.Pump(8);
  EXPECT_FALSE(client.done(valid));  // Accepted; its result is still to come.
  ASSERT_TRUE(client.done(rejected));
  EXPECT_EQ(client.error_code(rejected), ServeError::kInvalidTrace);

  shard.Result(7, "valid\n");
  cluster.Pump(8);
  ASSERT_TRUE(client.done(valid));
  EXPECT_FALSE(client.failed(valid));
  EXPECT_EQ(client.result(valid).schedule_yaml, "valid\n");
  EXPECT_TRUE(cluster.router.journal().pending().empty());
}

// A later submit whose shard answers first (accept and result) reaches the
// client only after the earlier submit's accept: the client drops frames for
// a job it has not seen accepted.
TEST(ClusterRouterTest, LaterResultWaitsForAnEarlierAdmissionReply) {
  TestCluster cluster;
  ScriptedShard& slow = cluster.AddScriptedShard("shard0");
  ScriptedShard& fast = cluster.AddScriptedShard("shard1");
  ServeClient& client = cluster.AddClient();
  const std::string profile = SerializeProfile(Profile{});
  const uint64_t first = client.SubmitBlob("RedisRaft-42", 42, "first", profile,
                                           BlobOwnedBy(cluster.router.ring(), "shard0"));
  const uint64_t second = client.SubmitBlob("RedisRaft-42", 42, "second", profile,
                                            BlobOwnedBy(cluster.router.ring(), "shard1"));
  cluster.Pump(8);
  ASSERT_EQ(slow.submits(), 1u);
  ASSERT_EQ(fast.submits(), 1u);

  fast.AcceptNext(1);
  fast.Result(1, "second\n");
  cluster.Pump(8);
  EXPECT_EQ(cluster.router.stats().completions, 1u);
  EXPECT_FALSE(client.done(second));  // Held behind the first request's reply.

  slow.AcceptNext(1);
  cluster.Pump(8);
  ASSERT_TRUE(client.done(second));
  EXPECT_FALSE(client.failed(second));
  EXPECT_EQ(client.result(second).schedule_yaml, "second\n");
  EXPECT_FALSE(client.done(first));

  slow.Result(1, "first\n");
  cluster.Pump(8);
  ASSERT_TRUE(client.done(first));
  EXPECT_EQ(client.result(first).schedule_yaml, "first\n");
  EXPECT_TRUE(cluster.router.journal().pending().empty());
  EXPECT_EQ(cluster.router.inflight_jobs(), 0u);
}

// A client that hangs up while replies are queued for it is dropped; the
// journal still owns its submits, which complete.
TEST(ClusterRouterTest, ClientHungUpWithQueuedRepliesIsDroppedAndItsJobsComplete) {
  TestCluster cluster;
  ScriptedShard& slow = cluster.AddScriptedShard("shard0");
  ScriptedShard& fast = cluster.AddScriptedShard("shard1");
  auto [client_end, router_end] = MakePipePair();
  const std::weak_ptr<Transport> router_side = router_end;
  cluster.router.AttachClient(std::move(router_end));
  ServeClient client(client_end);
  const std::string profile = SerializeProfile(Profile{});
  client.SubmitBlob("RedisRaft-42", 42, "first", profile,
                    BlobOwnedBy(cluster.router.ring(), "shard0"));
  client.SubmitBlob("RedisRaft-42", 42, "second", profile,
                    BlobOwnedBy(cluster.router.ring(), "shard1"));
  for (int round = 0; round < 8; round++) {
    client.Poll();
    cluster.Pump();
  }
  ASSERT_EQ(slow.submits(), 1u);
  ASSERT_EQ(fast.submits(), 1u);
  fast.AcceptNext(1);
  fast.Result(1, "second\n");
  cluster.Pump(8);
  ASSERT_EQ(cluster.router.stats().completions, 1u);

  client_end->Close();  // Hangs up: the second request's replies are queued.
  cluster.Pump(8);
  slow.AcceptNext(1);
  slow.Result(1, "first\n");
  cluster.Pump(8);
  EXPECT_EQ(cluster.router.stats().completions, 2u);
  EXPECT_TRUE(cluster.router.journal().pending().empty());
  EXPECT_EQ(cluster.router.inflight_jobs(), 0u);
  EXPECT_TRUE(router_side.expired());  // The router let go of the connection.
  EXPECT_TRUE(cluster.router.idle());
}

// A stream open that the shard refuses is not a submit: it was never
// journaled, and the shard's depth counts submits only.
TEST(ClusterRouterTest, RefusedStreamOpenLeavesJournalAndDepthAlone) {
  TestCluster cluster;
  ScriptedShard& shard = cluster.AddScriptedShard("shard0");
  ServeClient& client = cluster.AddClient();
  const std::string profile = SerializeProfile(Profile{});
  const uint64_t submit = client.SubmitBlob("RedisRaft-42", 42, "submit", profile, SmallBlob(0));
  cluster.Pump(8);
  ASSERT_EQ(shard.submits(), 1u);
  shard.AcceptNext(7);
  cluster.Pump(8);
  const uint64_t appends = cluster.router.journal().appends();
  ASSERT_EQ(cluster.router.journal().pending().size(), 1u);
#if ROSE_OBS_ENABLED
  const Gauge* depth = MetricRegistry::Global().GetGauge("cluster.shard_depth.shard0");
  EXPECT_EQ(depth->value(), 1);
#endif

  const uint64_t stream = client.OpenStream("RedisRaft-42", 42, "stream", profile);
  cluster.Pump(8);
  shard.Refuse(ServeError::kUnknownBug);
  cluster.Pump(8);
  ASSERT_TRUE(client.done(stream));
  EXPECT_EQ(client.error_code(stream), ServeError::kUnknownBug);
  EXPECT_EQ(cluster.router.journal().appends(), appends);
  EXPECT_EQ(cluster.router.journal().pending().size(), 1u);
#if ROSE_OBS_ENABLED
  EXPECT_EQ(depth->value(), 1);
#endif
  EXPECT_FALSE(client.done(submit));

  shard.Result(7, "submit\n");
  cluster.Pump(8);
  ASSERT_TRUE(client.done(submit));
  EXPECT_FALSE(client.failed(submit));
  EXPECT_TRUE(cluster.router.journal().pending().empty());
#if ROSE_OBS_ENABLED
  EXPECT_EQ(depth->value(), 0);
#endif
}

// --- Damaged replies -----------------------------------------------------------

// A shard frame that fails its CRC may have been the only answer a job will
// ever get, so the router fails the shard over: the successor re-runs the
// job, byte-identically.
TEST(ClusterRouterTest, DamagedShardReplyFailsTheShardOver) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  uint64_t hash = 0;
  CanonicalBlobHash(dump.trace.SerializeBinary(), &hash);
  HashRing ring;
  ring.AddShard("shard0");
  ring.AddShard("shard1");
  TestCluster cluster;
  ScriptedShard* owner = nullptr;
  for (const std::string name : {"shard0", "shard1"}) {
    if (name == ring.OwnerOf(hash)) {
      owner = &cluster.AddScriptedShard(name);
    } else {
      cluster.AddShard(name);
    }
  }
  ServeClient& client = cluster.AddClient();
  const uint64_t handle = SubmitDump(client, "RedisRaft-42", 42, dump);
  for (int round = 0; round < 16 && owner->submits() == 0; round++) {
    cluster.Pump();
  }
  ASSERT_EQ(owner->submits(), 1u);

  owner->AcceptNext(5);
  owner->SendDamaged(ServeFrame::kResult,
                     EncodeResult(ScriptedShard::ScriptedResult(5, "lost\n")));
  for (int round = 0; round < 16 && cluster.router.stats().failovers == 0; round++) {
    cluster.Pump();
  }
  ASSERT_EQ(cluster.router.stats().failovers, 1u);
  EXPECT_EQ(cluster.router.stats().corrupt_frames, 1u);

  cluster.PumpUntilAllDone();
  ASSERT_FALSE(client.failed(handle));
  EXPECT_EQ(client.result(handle).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));
  EXPECT_EQ(cluster.router.stats().redispatches, 1u);
  EXPECT_TRUE(cluster.router.journal().pending().empty());
}

}  // namespace
}  // namespace rose
