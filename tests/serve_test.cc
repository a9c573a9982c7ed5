// Tests for rose::serve — transports, wire protocol, queue/cache policies,
// and the diagnosis service end to end (concurrent clients, cache hits,
// coalescing, corrupt-frame recovery, backpressure, restart persistence).
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analyze/trace_validator.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/harness/runner.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/job_queue.h"
#include "src/serve/protocol.h"
#include "src/serve/result_cache.h"
#include "src/serve/service.h"
#include "src/trace/trace_io.h"

namespace rose {
namespace {

// --- Transport --------------------------------------------------------------

TEST(TransportTest, PipePairRoundTrip) {
  auto [a, b] = MakePipePair();
  EXPECT_EQ(a->Write("hello"), 5u);
  EXPECT_EQ(b->readable(), 5u);
  EXPECT_EQ(b->Read(64), "hello");
  EXPECT_EQ(b->Write("world"), 5u);
  EXPECT_EQ(a->Read(2), "wo");  // Short read by request.
  EXPECT_EQ(a->Read(64), "rld");
}

TEST(TransportTest, BoundedBufferShortWrites) {
  auto [a, b] = MakePipePair(/*capacity=*/8);
  EXPECT_EQ(a->Write("0123456789"), 8u);  // Only capacity bytes accepted.
  EXPECT_EQ(a->writable(), 0u);
  EXPECT_EQ(a->Write("x"), 0u);  // Full: short write of zero.
  EXPECT_EQ(b->Read(4), "0123");
  EXPECT_EQ(a->writable(), 4u);  // Draining frees space.
  EXPECT_EQ(a->Write("ab"), 2u);
  EXPECT_EQ(b->Read(64), "4567ab");
}

TEST(TransportTest, HalfCloseDeliversBufferedBytesThenEof) {
  auto [a, b] = MakePipePair();
  a->Write("tail");
  a->Close();
  EXPECT_FALSE(b->AtEof());  // Buffered bytes still pending.
  EXPECT_EQ(b->Read(64), "tail");
  EXPECT_TRUE(b->AtEof());
  EXPECT_EQ(a->Write("more"), 0u);  // Closed side accepts nothing.
}

TEST(OutboxTest, CompactsPastTheBoundAndResumesAfterShortWrites) {
  auto [a, b] = MakePipePair(/*capacity=*/40 * 1024);
  Outbox outbox;
  std::string queued;
  auto append = [&](int chunks) {
    for (int i = 0; i < chunks; i++) {
      const std::string chunk(1000, static_cast<char>('a' + queued.size() / 1000 % 26));
      outbox.Append(chunk);
      queued += chunk;
    }
  };
  append(300);
  std::string received;
  bool compacted = false;
  for (int round = 0; !outbox.empty(); round++) {
    const size_t backing = outbox.tail()->size();
    outbox.Flush(*a);  // Short: the pipe takes at most 40 KiB per drain.
    const size_t unsent = queued.size() - received.size() - b->readable();
    const size_t sent_prefix = outbox.tail()->size() - unsent;
    // Sent bytes are dropped once they pass 64 KiB and half the buffer.
    EXPECT_TRUE(sent_prefix <= 64 * 1024 || sent_prefix < unsent) << round;
    compacted = compacted || (outbox.tail()->size() < backing && !outbox.empty());
    // Nothing fits until the reader drains; the queue waits unchanged.
    outbox.Flush(*a);
    EXPECT_EQ(b->readable(), queued.size() - received.size() - unsent);
    received += b->Read(1 << 20);
    if (round == 2) {
      append(20);  // Bytes queued mid-drain follow the ones before them.
    }
  }
  EXPECT_TRUE(compacted);
  EXPECT_EQ(outbox.tail()->size(), 0u);
  EXPECT_EQ(received, queued);
}

// --- Protocol ---------------------------------------------------------------

TEST(ServeProtocolTest, FrameRoundTripThroughChunkedFeeding) {
  std::string wire;
  AppendServeHeader(&wire);
  AcceptedMsg accepted;
  accepted.job_id = 7;
  accepted.kind = AcceptKind::kCoalesced;
  accepted.queue_depth = 3;
  AppendServeFrame(&wire, ServeFrame::kAccepted, EncodeAccepted(accepted));
  ErrorMsg error;
  error.job_id = 9;
  error.code = ServeError::kQueueFull;
  error.message = "queue full";
  AppendServeFrame(&wire, ServeFrame::kError, EncodeError(error));

  FrameDecoder decoder;
  std::vector<DecodedFrame> frames;
  // Worst-case reassembly: one byte at a time.
  for (char byte : wire) {
    decoder.Feed(std::string_view(&byte, 1));
    DecodedFrame frame;
    while (decoder.Next(&frame) == FrameDecoder::Status::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  AcceptedMsg accepted2;
  ASSERT_TRUE(DecodeAccepted(frames[0].payload, &accepted2));
  EXPECT_EQ(accepted2.job_id, 7u);
  EXPECT_EQ(accepted2.kind, AcceptKind::kCoalesced);
  EXPECT_EQ(accepted2.queue_depth, 3u);
  ErrorMsg error2;
  ASSERT_TRUE(DecodeError(frames[1].payload, &error2));
  EXPECT_EQ(error2.code, ServeError::kQueueFull);
  EXPECT_EQ(error2.message, "queue full");
}

TEST(ServeProtocolTest, CorruptFrameIsSkippedWithExactResync) {
  std::string wire;
  AppendServeHeader(&wire);
  ProgressMsg progress;
  progress.job_id = 1;
  progress.kind = ProgressKind::kCandidate;
  progress.detail = "first";
  AppendServeFrame(&wire, ServeFrame::kProgress, EncodeProgress(progress));
  const size_t second_at = wire.size();
  progress.detail = "second";
  AppendServeFrame(&wire, ServeFrame::kProgress, EncodeProgress(progress));
  wire[second_at + 9 + 2] ^= 0x40;  // Flip a byte inside the second payload.
  progress.detail = "third";
  AppendServeFrame(&wire, ServeFrame::kProgress, EncodeProgress(progress));

  FrameDecoder decoder;
  decoder.Feed(wire);
  DecodedFrame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorruptFrame);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);  // Resynced.
  ProgressMsg decoded;
  ASSERT_TRUE(DecodeProgress(frame.payload, &decoded));
  EXPECT_EQ(decoded.detail, "third");
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
}

TEST(ServeProtocolTest, BadMagicKillsTheStream) {
  FrameDecoder decoder;
  decoder.Feed(std::string_view("XXXX\x01\x00\x00\x00", 8));
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kBadStream);
  EXPECT_TRUE(decoder.dead());
}

TEST(ServeProtocolTest, NewerVersionIsRejected) {
  std::string wire;
  AppendServeHeader(&wire);
  wire[4] = static_cast<char>(kServeProtocolVersion + 1);  // u16 LE low byte.
  FrameDecoder decoder;
  decoder.Feed(wire);
  DecodedFrame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kBadStream);
}

TEST(ServeProtocolTest, SubmitRoundTripPreservesTraceAndProfile) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(7);
  std::optional<Trace> trace = runner.ObtainProductionTrace(profile, 7 + 17);
  ASSERT_TRUE(trace.has_value());

  SubmitEnvelope decoded;
  ASSERT_TRUE(DecodeSubmitEnvelope(EncodeSubmitBlob("RedisRaft-42", 99, "unit",
                                                    SerializeProfile(profile),
                                                    trace->SerializeBinary()),
                                   &decoded));
  EXPECT_EQ(decoded.bug_id(), "RedisRaft-42");
  EXPECT_EQ(decoded.seed(), 99u);
  EXPECT_EQ(decoded.tag(), "unit");
  EXPECT_EQ(decoded.token(), 0u);
  uint64_t blob_hash = 0;
  size_t events = 0;
  std::vector<Diagnostic> diags;
  ASSERT_TRUE(CanonicalBlobHash(decoded.trace_blob(), &blob_hash, &diags, &events));
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(events, trace->size());
  EXPECT_EQ(blob_hash, CanonicalTraceHash(*trace));
  EXPECT_EQ(SerializeProfile(decoded.profile()), SerializeProfile(profile));
}

TEST(ServeProtocolTest, ProfileSerializationRoundTrips) {
  Profile profile;
  profile.duration = Seconds(30);
  profile.monitored_functions = {3, 14, 15};
  profile.function_counts[3] = 7;
  profile.syscall_counts[static_cast<int32_t>(Sys::kWrite)] = 120;
  Profile parsed;
  ASSERT_TRUE(ParseProfile(SerializeProfile(profile), &parsed));
  EXPECT_EQ(SerializeProfile(parsed), SerializeProfile(profile));
  EXPECT_EQ(parsed.monitored_functions, profile.monitored_functions);
  EXPECT_FALSE(ParseProfile("not a profile", &parsed));
}

// --- CanonicalTraceHash -----------------------------------------------------

TEST(CanonicalTraceHashTest, StableAcrossSerializationAndPoolLayout) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  Profile profile = runner.RunProfiling(5);
  std::optional<Trace> trace = runner.ObtainProductionTrace(profile, 5 + 17);
  ASSERT_TRUE(trace.has_value());
  const uint64_t direct = CanonicalTraceHash(*trace);

  // Binary round trip re-interns the pool in stream order.
  Trace reparsed = Trace::ParseBinary(trace->SerializeBinary());
  EXPECT_EQ(CanonicalTraceHash(reparsed), direct);
  // Merging into an empty trace builds a different pool layout entirely.
  Trace reinterned;
  reinterned.Intern("/unrelated/path");
  std::vector<StrId> remap;
  for (const TraceEvent& event : trace->events()) {
    reinterned.AppendRemapped(event, trace->pool(), &remap);
  }
  EXPECT_EQ(CanonicalTraceHash(reinterned), direct);

  std::optional<Trace> other = runner.ObtainProductionTrace(profile, 31 + 17);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(CanonicalTraceHash(*other), direct);
}

// --- JobQueue ---------------------------------------------------------------

TEST(JobQueueTest, BoundedPushRejectsWhenFull) {
  JobQueue queue(2);
  EXPECT_EQ(queue.Push(1, 10), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.Push(1, 11), JobQueue::PushResult::kOk);
  EXPECT_EQ(queue.Push(2, 20), JobQueue::PushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), std::optional<uint64_t>(10));
  EXPECT_EQ(queue.Push(2, 20), JobQueue::PushResult::kOk);
}

TEST(JobQueueTest, RoundRobinAcrossTenantsFifoWithin) {
  JobQueue queue(16);
  // Tenant 1 batch-submits; tenant 2 sends one urgent job afterwards.
  queue.Push(1, 10);
  queue.Push(1, 11);
  queue.Push(1, 12);
  queue.Push(2, 20);
  EXPECT_EQ(queue.Pop(), std::optional<uint64_t>(10));
  EXPECT_EQ(queue.Pop(), std::optional<uint64_t>(20));  // Not starved.
  EXPECT_EQ(queue.Pop(), std::optional<uint64_t>(11));
  EXPECT_EQ(queue.Pop(), std::optional<uint64_t>(12));
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(JobQueueTest, RotationHoldsOnlyTenantsWithQueuedJobs) {
  // Every connection that ever queued a job is a tenant; once its jobs are
  // served, the queue keeps nothing of it.
  JobQueue queue(16);
  for (uint64_t tenant = 1; tenant <= 1000; tenant++) {
    ASSERT_EQ(queue.Push(tenant, tenant), JobQueue::PushResult::kOk);
    ASSERT_EQ(queue.Pop(), std::optional<uint64_t>(tenant));
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.tenants(), 0u);
}

// --- ResultCache ------------------------------------------------------------

CachedResult MakeResult(const std::string& yaml, bool reproduced = true) {
  CachedResult result;
  result.reproduced = reproduced;
  result.schedule_yaml = yaml;
  result.rate_permille = 800;
  result.level = 2;
  result.schedules = 22;
  result.runs = 32;
  result.fault_summary = "PS(Crash)";
  return result;
}

TEST(ResultCacheTest, LruEvictsColdestAndGetPromotes) {
  ResultCache cache(2, "");
  cache.Put(1, MakeResult("one"));
  cache.Put(2, MakeResult("two"));
  ASSERT_TRUE(cache.Get(1).has_value());  // Promote 1; 2 is now coldest.
  cache.Put(3, MakeResult("three"));
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(ResultCacheTest, PersistsConfirmedResultsAcrossInstances) {
  const std::string dir = testing::TempDir() + "rose_serve_cache_test";
  std::filesystem::remove_all(dir);
  {
    ResultCache cache(8, dir);
    cache.Put(0xabcd, MakeResult("schedule:\n  name: x\n"));
    cache.Put(0xef01, MakeResult("", /*reproduced=*/false));  // Memory-only.
  }
  ResultCache reloaded(8, dir);
  std::optional<CachedResult> hit = reloaded.Get(0xabcd);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->reproduced);
  EXPECT_EQ(hit->schedule_yaml, "schedule:\n  name: x\n");
  EXPECT_EQ(hit->rate_permille, 800u);
  EXPECT_EQ(hit->runs, 32u);
  EXPECT_FALSE(reloaded.Get(0xef01).has_value());
  std::filesystem::remove_all(dir);
}

// The in-memory LRU is a cache of the directory, not its index: a persisted
// schedule still answers after it leaves memory, and after a restart every
// persisted entry answers, not only the `capacity` with the largest keys.
TEST(ResultCacheTest, PersistedEntriesAnswerBeyondMemoryCapacity) {
  const std::string dir = testing::TempDir() + "rose_serve_cache_capacity";
  std::filesystem::remove_all(dir);
  {
    ResultCache cache(2, dir);
    cache.Put(1, MakeResult("yaml-one\n"));
    cache.Put(2, MakeResult("yaml-two\n"));
    cache.Put(3, MakeResult("yaml-three\n"));  // Evicts 1 from memory.
    cache.Put(4, MakeResult("", /*reproduced=*/false));  // Evicts 2; memory only.
    std::optional<CachedResult> hit = cache.Get(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->schedule_yaml, "yaml-one\n");
    EXPECT_EQ(hit->runs, 32u);
    EXPECT_EQ(hit->fault_summary, "PS(Crash)");
    EXPECT_EQ(cache.size(), 2u);  // Loading 1 evicted the coldest, 3.
  }
  ResultCache restarted(2, dir);
  for (const auto& [key, yaml] : {std::pair<uint64_t, const char*>{1, "yaml-one\n"},
                                  {2, "yaml-two\n"},
                                  {3, "yaml-three\n"}}) {
    std::optional<CachedResult> hit = restarted.Get(key);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(hit->schedule_yaml, yaml) << key;
  }
  EXPECT_FALSE(restarted.Get(4).has_value());
  EXPECT_FALSE(restarted.Get(5).has_value());
  std::filesystem::remove_all(dir);
}

void TruncateFile(const std::string& path, size_t drop) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), drop);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - drop));
}

TEST(ResultCacheTest, TruncatedFilesAreSkippedCleanlyOnReload) {
  const std::string dir = testing::TempDir() + "rose_serve_cache_torn";
  std::filesystem::remove_all(dir);
  {
    ResultCache cache(8, dir);
    cache.Put(1, MakeResult("yaml-one\n"));
    cache.Put(2, MakeResult("yaml-two\n"));
    cache.Put(3, MakeResult("yaml-three\n"));
  }
  // Three crash-damage modes: entry 1's meta cut mid-file (loses the
  // yaml_bytes seal on its last line), entry 2's yaml cut after its meta
  // sealed, and a stray .tmp pair left by a crash between write and rename —
  // which must never be adopted as an entry.
  TruncateFile(dir + "/0000000000000001.meta", 10);
  TruncateFile(dir + "/0000000000000002.yaml", 4);
  {
    std::ofstream meta(dir + "/0000000000000004.meta.tmp");
    meta << "rose-serve-result v1\nreproduced 1\nyaml_bytes 2\n";
    std::ofstream yaml(dir + "/0000000000000004.yaml.tmp");
    yaml << "y\n";
  }

  ResultCache reloaded(8, dir);
  EXPECT_FALSE(reloaded.Get(1).has_value());  // Unsealed meta: skipped.
  EXPECT_FALSE(reloaded.Get(2).has_value());  // Yaml shorter than vouched.
  EXPECT_FALSE(reloaded.Get(4).has_value());  // .tmp is not a cache entry.
  std::optional<CachedResult> hit = reloaded.Get(3);  // Undamaged: intact.
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->schedule_yaml, "yaml-three\n");

  // The recovered cache keeps working: a fresh Put re-persists cleanly and
  // survives another reload.
  reloaded.Put(1, MakeResult("yaml-one-again\n"));
  ResultCache again(8, dir);
  ASSERT_TRUE(again.Get(1).has_value());
  EXPECT_EQ(again.Get(1)->schedule_yaml, "yaml-one-again\n");
  std::filesystem::remove_all(dir);
}

// --- Service end to end -----------------------------------------------------

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

// Pumps one client and the service until the handle resolves.
void PumpUntilDone(ServeClient& client, DiagnosisService& service, uint64_t handle) {
  while (!client.done(handle)) {
    client.Poll();
    service.Poll();
  }
}

TEST(DiagnosisServiceTest, ServedResultMatchesOfflineDiagnosisByteForByte) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  const uint64_t handle = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, handle);
  ASSERT_FALSE(client.failed(handle));
  const ServeJobResult& result = client.result(handle);
  EXPECT_TRUE(result.reproduced);
  EXPECT_FALSE(result.cached);
  EXPECT_EQ(result.schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));

  // The progress stream narrated the run: dequeue plus level transitions.
  std::vector<ProgressMsg> progress = client.TakeProgress(handle);
  ASSERT_FALSE(progress.empty());
  EXPECT_EQ(progress.front().kind, ProgressKind::kRunning);
  bool saw_level = false;
  for (const ProgressMsg& msg : progress) {
    saw_level = saw_level || msg.kind == ProgressKind::kLevelStart;
  }
  EXPECT_TRUE(saw_level);
}

TEST(DiagnosisServiceTest, TwoClientsDistinctTracesServedConcurrently) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_b = MakeDump("RedisRaft-42", 31);
  ServeConfig config;
  config.max_concurrent_jobs = 2;
  DiagnosisService service(config);
  auto [a_end, a_srv] = MakePipePair();
  auto [b_end, b_srv] = MakePipePair();
  service.Attach(a_srv);
  service.Attach(b_srv);
  ServeClient a(a_end);
  ServeClient b(b_end);

  const uint64_t ha = SubmitDump(a, "RedisRaft-42", 42, dump_a);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 31, dump_b);
  a.Poll();
  b.Poll();
  service.Poll();
  // Both jobs were admitted and dispatched in the same cycle — they hold the
  // two worker slots together (unless one already finished, which also
  // proves it was started).
  EXPECT_GE(service.running_jobs() + static_cast<int>(service.stats().jobs_completed), 2);

  while (!a.done(ha) || !b.done(hb)) {
    a.Poll();
    b.Poll();
    service.Poll();
  }
  ASSERT_FALSE(a.failed(ha));
  ASSERT_FALSE(b.failed(hb));
  EXPECT_EQ(a.result(ha).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump_a));
  EXPECT_EQ(b.result(hb).schedule_yaml, OfflineYaml("RedisRaft-42", 31, dump_b));
  EXPECT_EQ(service.stats().jobs_completed, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(DiagnosisServiceTest, IdenticalResubmissionIsCacheHitWithZeroEngineRuns) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  const uint64_t first = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, first);
  ASSERT_FALSE(client.failed(first));
  const uint64_t runs_after_first = service.stats().engine_runs;
  EXPECT_GT(runs_after_first, 0u);

  // Same dump again — answered from the cache without touching the engine.
  const uint64_t second = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, second);
  ASSERT_FALSE(client.failed(second));
  EXPECT_EQ(client.accept_kind(second), AcceptKind::kCacheHit);
  EXPECT_TRUE(client.result(second).cached);
  EXPECT_EQ(client.result(second).schedule_yaml, client.result(first).schedule_yaml);
  EXPECT_EQ(service.stats().engine_runs, runs_after_first);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().jobs_completed, 1u);

  // A dump that only round-tripped through serialization still hits: the
  // canonical hash is pool-independent.
  Dump reparsed = dump;
  reparsed.trace = Trace::ParseBinary(dump.trace.SerializeBinary());
  const uint64_t third = SubmitDump(client, "RedisRaft-42", 42, reparsed);
  PumpUntilDone(client, service, third);
  EXPECT_EQ(client.accept_kind(third), AcceptKind::kCacheHit);
  EXPECT_EQ(service.stats().engine_runs, runs_after_first);
}

TEST(DiagnosisServiceTest, InflightDuplicateCoalescesOntoOneRun) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  DiagnosisService service(ServeConfig{});
  auto [a_end, a_srv] = MakePipePair();
  auto [b_end, b_srv] = MakePipePair();
  service.Attach(a_srv);
  service.Attach(b_srv);
  ServeClient a(a_end);
  ServeClient b(b_end);

  const uint64_t ha = SubmitDump(a, "RedisRaft-42", 42, dump);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 42, dump);
  while (!a.done(ha) || !b.done(hb)) {
    a.Poll();
    b.Poll();
    service.Poll();
  }
  ASSERT_FALSE(a.failed(ha));
  ASSERT_FALSE(b.failed(hb));
  EXPECT_EQ(b.accept_kind(hb), AcceptKind::kCoalesced);
  EXPECT_TRUE(b.result(hb).coalesced);
  EXPECT_EQ(a.result(ha).schedule_yaml, b.result(hb).schedule_yaml);
  EXPECT_EQ(service.stats().jobs_completed, 1u);  // One engine run served both.
  EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(DiagnosisServiceTest, CorruptSubmitFrameMidStreamRecovers) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);

  // Craft the client's byte stream by hand: header, a submit frame with one
  // payload byte flipped (CRC mismatch), then an intact submit frame.
  const std::string payload = EncodeSubmitBlob(
      "RedisRaft-42", 42, "", SerializeProfile(dump.profile), dump.trace.SerializeBinary());
  std::string wire;
  AppendServeHeader(&wire);
  const size_t bad_at = wire.size();
  AppendServeFrame(&wire, ServeFrame::kSubmit, payload);
  wire[bad_at + 9 + payload.size() / 2] ^= 0x01;
  AppendServeFrame(&wire, ServeFrame::kSubmit, payload);

  // Drip the stream through the bounded pipe while pumping the service, and
  // decode its responses with a bare FrameDecoder.
  FrameDecoder responses;
  std::vector<DecodedFrame> frames;
  size_t sent = 0;
  bool got_result = false;
  while (!got_result) {
    if (sent < wire.size()) {
      sent += client_end->Write(std::string_view(wire).substr(sent));
    }
    service.Poll();
    while (client_end->readable() > 0) {
      responses.Feed(client_end->Read(64 * 1024));
    }
    DecodedFrame frame;
    while (responses.Next(&frame) == FrameDecoder::Status::kFrame) {
      got_result = got_result || frame.kind == ServeFrame::kResult;
      frames.push_back(frame);
    }
  }

  // First response: a typed kBadFrame error for the corrupted submission;
  // then the intact submission is accepted and served normally.
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(frames[0].kind, ServeFrame::kError);
  ErrorMsg error;
  ASSERT_TRUE(DecodeError(frames[0].payload, &error));
  EXPECT_EQ(error.code, ServeError::kBadFrame);
  EXPECT_EQ(frames[1].kind, ServeFrame::kAccepted);
  ResultMsg result;
  ASSERT_TRUE(DecodeResult(frames.back().payload, &result));
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));
  EXPECT_EQ(service.stats().corrupt_frames, 1u);
}

TEST(DiagnosisServiceTest, QueueFullIsTypedErrorAndClientRetrySucceeds) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_b = MakeDump("RedisRaft-42", 31);
  ServeConfig config;
  config.max_concurrent_jobs = 1;
  config.queue_capacity = 1;  // One waiting slot: the second submit bounces.
  DiagnosisService service(config);
  auto [a_end, a_srv] = MakePipePair();
  auto [b_end, b_srv] = MakePipePair();
  service.Attach(a_srv);
  service.Attach(b_srv);
  ServeClient a(a_end);
  ServeClient b(b_end);

  const uint64_t ha = SubmitDump(a, "RedisRaft-42", 42, dump_a);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 31, dump_b);
  // Both submissions land in the same admission cycle: A fills the waiting
  // slot, B is rejected with kQueueFull and retries after backoff.
  while (!a.done(ha) || !b.done(hb)) {
    a.Poll();
    b.Poll();
    service.Poll();
  }
  ASSERT_FALSE(a.failed(ha));
  ASSERT_FALSE(b.failed(hb));  // The retry got through.
  EXPECT_GE(service.stats().rejected_queue_full, 1u);
  EXPECT_GE(b.retries_performed(), 1);
  EXPECT_EQ(b.result(hb).schedule_yaml, OfflineYaml("RedisRaft-42", 31, dump_b));
}

TEST(DiagnosisServiceTest, QueueFullWithoutRetrySurfacesTypedError) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_b = MakeDump("RedisRaft-42", 31);
  ServeConfig config;
  config.max_concurrent_jobs = 1;
  config.queue_capacity = 1;
  DiagnosisService service(config);
  auto [a_end, a_srv] = MakePipePair();
  auto [b_end, b_srv] = MakePipePair();
  service.Attach(a_srv);
  service.Attach(b_srv);
  ServeClient a(a_end);
  ServeClientConfig no_retry;
  no_retry.auto_retry_queue_full = false;
  ServeClient b(b_end, no_retry);

  const uint64_t ha = SubmitDump(a, "RedisRaft-42", 42, dump_a);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 31, dump_b);
  while (!a.done(ha) || !b.done(hb)) {
    a.Poll();
    b.Poll();
    service.Poll();
  }
  EXPECT_TRUE(b.failed(hb));
  EXPECT_EQ(b.error_code(hb), ServeError::kQueueFull);
}

// Runs the saturated-server scenario: client A pins the run slot and the one
// waiting slot for a whole diagnosis, client B (configured by `config`)
// submits into the full queue. Returns the Poll rounds until B's handle
// resolved, and reports B's terminal state through the out-params.
int RunSaturatedRetry(const Dump& dump_a, const Dump& dump_a2, const Dump& dump_b,
                      ServeClientConfig config, bool* b_failed, ServeError* b_error,
                      std::string* b_message) {
  ServeConfig server;
  server.max_concurrent_jobs = 1;
  server.queue_capacity = 1;
  DiagnosisService service(server);
  auto [a_end, a_srv] = MakePipePair();
  auto [b_end, b_srv] = MakePipePair();
  service.Attach(a_srv);
  service.Attach(b_srv);
  ServeClient a(a_end);
  ServeClient b(b_end, config);

  // Two distinct jobs from A: one runs, one occupies the single waiting slot
  // until the first *completes* — the queue stays full for a whole diagnosis.
  SubmitDump(a, "RedisRaft-42", 42, dump_a);
  SubmitDump(a, "RedisRaft-42", 31, dump_a2);
  const uint64_t hb = SubmitDump(b, "RedisRaft-42", 7, dump_b);
  int rounds = 0;
  while (!b.done(hb)) {
    a.Poll();
    b.Poll();
    service.Poll();
    rounds++;
  }
  *b_failed = b.failed(hb);
  *b_error = b.error_code(hb);
  *b_message = b.error_message(hb);
  return rounds;
}

TEST(DiagnosisServiceTest, ExhaustedRetriesSurfaceTypedTerminalError) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_a2 = MakeDump("RedisRaft-42", 31);
  const Dump dump_b = MakeDump("RedisRaft-42", 7);
  ServeClientConfig config;
  config.max_retries = 2;  // Exhausts long before A's first job completes.
  bool failed = false;
  ServeError error = ServeError::kNone;
  std::string message;
  RunSaturatedRetry(dump_a, dump_a2, dump_b, config, &failed, &error, &message);
  EXPECT_TRUE(failed);
  EXPECT_EQ(error, ServeError::kRetriesExhausted);
  EXPECT_NE(message.find("queue full after 2 retries"), std::string::npos)
      << message;
}

TEST(ServeClientTest, BackoffScheduleIsDeterministicPerSeedAndCapped) {
  const Dump dump_a = MakeDump("RedisRaft-42", 42);
  const Dump dump_a2 = MakeDump("RedisRaft-42", 31);
  const Dump dump_b = MakeDump("RedisRaft-42", 7);
  auto rounds_until_exhausted = [&](uint64_t seed, int base, int cap) {
    ServeClientConfig config;
    config.max_retries = 3;
    config.backoff_base_rounds = base;
    config.max_backoff_rounds = cap;
    config.backoff_jitter_seed = seed;
    bool failed = false;
    ServeError error = ServeError::kNone;
    std::string message;
    const int rounds = RunSaturatedRetry(dump_a, dump_a2, dump_b, config,
                                         &failed, &error, &message);
    EXPECT_TRUE(failed);
    EXPECT_EQ(error, ServeError::kRetriesExhausted);
    return rounds;
  };
  // Same jitter seed, same submission order: the exact same backoff schedule,
  // down to the Poll-round count — the determinism lint's promise, testably.
  const int first = rounds_until_exhausted(7, 1, 64);
  EXPECT_EQ(first, rounds_until_exhausted(7, 1, 64));
  // The cap bounds every wait: an absurd exponential base (64 doubling, which
  // uncapped would wait 64+128+256 = 448+ rounds) capped at 4 must exhaust
  // its three retries in well under a hundred rounds even with jitter.
  EXPECT_LT(rounds_until_exhausted(3, 64, 4), 100);
}

TEST(DiagnosisServiceTest, RejectsUnknownBugAndEmptyTrace) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  const uint64_t h1 = SubmitDump(client, "NoSuchBug-1", 42, dump);
  PumpUntilDone(client, service, h1);
  EXPECT_TRUE(client.failed(h1));
  EXPECT_EQ(client.error_code(h1), ServeError::kUnknownBug);

  Dump empty = dump;
  empty.trace = Trace();
  const uint64_t h2 = SubmitDump(client, "RedisRaft-42", 42, empty);
  PumpUntilDone(client, service, h2);
  EXPECT_TRUE(client.failed(h2));
  EXPECT_EQ(client.error_code(h2), ServeError::kInvalidTrace);
  EXPECT_EQ(service.stats().rejected_invalid, 2u);
}

// A client that hangs up mid-job only loses its answer: the diagnosis runs
// to the end and fills the cache, so the next identical submission is a hit.
TEST(DiagnosisServiceTest, HungUpClientsJobCompletesAndFillsTheCache) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  DiagnosisService service(ServeConfig{});
  {
    auto [client_end, server_end] = MakePipePair();
    service.Attach(server_end);
    ServeClient client(client_end);
    SubmitDump(client, "RedisRaft-42", 42, dump);
    while (service.stats().jobs_submitted == 0) {
      client.Poll();
      service.Poll();
    }
    client_end->Close();
  }
  while (service.stats().jobs_completed == 0) {
    service.Poll();
  }
  const uint64_t runs = service.stats().engine_runs;
  EXPECT_GT(runs, 0u);

  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);
  const uint64_t handle = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, handle);
  ASSERT_FALSE(client.failed(handle));
  EXPECT_EQ(client.accept_kind(handle), AcceptKind::kCacheHit);
  EXPECT_EQ(client.result(handle).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));
  EXPECT_EQ(service.stats().engine_runs, runs);
}

// An RTRC blob whose one `kind` frame (pool or events) announces 2^62
// entries with a valid CRC, then an end frame.
std::string HostileCountBlob(uint8_t kind) {
  std::string payload;
  if (kind == kFramePool) {
    PutVarint(&payload, 1);  // first_id: continues the implicit empty string.
  }
  PutVarint(&payload, uint64_t{1} << 62);
  std::string blob;
  AppendRtrcHeader(&blob);
  AppendRtrcFrame(&blob, kind, payload);
  AppendRtrcFrame(&blob, kFrameEnd, {});
  return blob;
}

// Hostile blobs are typed rejections, whether they arrive in one kSubmit or
// through a stream session, and the connection keeps serving afterwards.
TEST(DiagnosisServiceTest, HostileBlobsAreInvalidTracesAndTheConnectionSurvives) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string profile_text = SerializeProfile(dump.profile);
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  std::string version_zero = dump.trace.SerializeBinary();
  version_zero[4] = 0;  // u16 LE version 0.
  version_zero[5] = 0;
  for (const std::string& blob :
       {HostileCountBlob(kFrameEvents), HostileCountBlob(kFramePool), version_zero}) {
    const uint64_t handle = client.SubmitBlob("RedisRaft-42", 42, "hostile", profile_text, blob);
    PumpUntilDone(client, service, handle);
    EXPECT_TRUE(client.failed(handle));
    EXPECT_EQ(client.error_code(handle), ServeError::kInvalidTrace);
  }

  // The same bytes streamed: the hostile frame is skipped as corrupt, so the
  // oracle materializes an empty window.
  std::string oracle;
  AppendRtrcFrame(&oracle, kFrameOracleMark, EncodeOracleMark(OracleMark{}));
  const uint64_t stream = client.OpenStream("RedisRaft-42", 42, "hostile", profile_text);
  client.StreamData(stream, HostileCountBlob(kFrameEvents));
  client.StreamData(stream, oracle);
  PumpUntilDone(client, service, stream);
  EXPECT_TRUE(client.failed(stream));
  EXPECT_EQ(client.error_code(stream), ServeError::kInvalidTrace);
  EXPECT_EQ(service.stats().rejected_invalid, 4u);

  const uint64_t good = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, good);
  ASSERT_FALSE(client.failed(good));
  EXPECT_EQ(client.result(good).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));
}

TEST(DiagnosisServiceTest, ScheduleStoreSurvivesRestart) {
  const std::string dir = testing::TempDir() + "rose_serve_restart_test";
  std::filesystem::remove_all(dir);
  const Dump dump = MakeDump("RedisRaft-42", 42);
  std::string first_yaml;
  {
    ServeConfig config;
    config.cache_dir = dir;
    DiagnosisService service(config);
    auto [client_end, server_end] = MakePipePair();
    service.Attach(server_end);
    ServeClient client(client_end);
    const uint64_t handle = SubmitDump(client, "RedisRaft-42", 42, dump);
    PumpUntilDone(client, service, handle);
    ASSERT_FALSE(client.failed(handle));
    ASSERT_TRUE(client.result(handle).reproduced);
    first_yaml = client.result(handle).schedule_yaml;
  }  // Daemon "crashes".

  ServeConfig config;
  config.cache_dir = dir;
  DiagnosisService restarted(config);
  auto [client_end, server_end] = MakePipePair();
  restarted.Attach(server_end);
  ServeClient client(client_end);
  const uint64_t handle = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, restarted, handle);
  ASSERT_FALSE(client.failed(handle));
  EXPECT_EQ(client.accept_kind(handle), AcceptKind::kCacheHit);
  EXPECT_EQ(client.result(handle).schedule_yaml, first_yaml);
  EXPECT_EQ(restarted.stats().engine_runs, 0u);  // Answered purely from disk.
  std::filesystem::remove_all(dir);
}

// --- STATS (rose::obs exposure over the wire) --------------------------------

TEST(ServeProtocolTest, StatsMessageRoundTrips) {
  StatsMsg msg;
  msg.jobs_submitted = 7;
  msg.jobs_completed = 5;
  msg.cache_hits = 2;
  msg.coalesced = 1;
  msg.rejected_queue_full = 3;
  msg.rejected_invalid = 4;
  msg.corrupt_frames = 6;
  msg.engine_runs = 128;
  msg.queued_jobs = 9;
  msg.running_jobs = 2;
  msg.metrics_yaml = "# rose-obs v1\ncounters:\n  x: 1\n";
  StatsMsg decoded;
  ASSERT_TRUE(DecodeStats(EncodeStats(msg), &decoded));
  EXPECT_EQ(decoded.jobs_submitted, 7u);
  EXPECT_EQ(decoded.jobs_completed, 5u);
  EXPECT_EQ(decoded.cache_hits, 2u);
  EXPECT_EQ(decoded.coalesced, 1u);
  EXPECT_EQ(decoded.rejected_queue_full, 3u);
  EXPECT_EQ(decoded.rejected_invalid, 4u);
  EXPECT_EQ(decoded.corrupt_frames, 6u);
  EXPECT_EQ(decoded.engine_runs, 128u);
  EXPECT_EQ(decoded.queued_jobs, 9u);
  EXPECT_EQ(decoded.running_jobs, 2u);
  EXPECT_EQ(decoded.metrics_yaml, msg.metrics_yaml);
  EXPECT_FALSE(DecodeStats("\x01", &decoded));  // Truncated payload.
}

TEST(DiagnosisServiceTest, StatsRequestAnsweredOverTheWire) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  // serve.* metrics live in the process-wide registry; earlier tests in this
  // binary already pumped jobs through it. Zero it for exact-value asserts.
  MetricRegistry::Global().Reset();
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  // STATS on an idle connection answers immediately with zero job counters.
  client.RequestStats();
  while (!client.stats_available()) {
    client.Poll();
    service.Poll();
  }
  EXPECT_EQ(client.stats().jobs_submitted, 0u);
  EXPECT_EQ(client.stats().running_jobs, 0u);
  // The reply always carries a registry snapshot in the stable YAML form.
  EXPECT_EQ(client.stats().metrics_yaml.rfind("# rose-obs v1\n", 0), 0u);

  // Run a job, resubmit for a cache hit, then STATS again: the reply's
  // counters and the serve.* metrics must both reflect the hit.
  const uint64_t first = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, first);
  ASSERT_FALSE(client.failed(first));
  const uint64_t second = SubmitDump(client, "RedisRaft-42", 42, dump);
  PumpUntilDone(client, service, second);
  EXPECT_EQ(client.accept_kind(second), AcceptKind::kCacheHit);

  const uint64_t replies_before = client.stats_received();
  client.RequestStats();
  while (client.stats_received() == replies_before) {
    client.Poll();
    service.Poll();
  }
  const StatsMsg& stats = client.stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.queued_jobs, 0u);
  EXPECT_EQ(stats.running_jobs, 0u);
#if ROSE_OBS_ENABLED
  EXPECT_NE(stats.metrics_yaml.find("serve.cache_hits: 1"), std::string::npos)
      << stats.metrics_yaml;
  EXPECT_NE(stats.metrics_yaml.find("serve.submissions: 2"), std::string::npos)
      << stats.metrics_yaml;
#endif

  // The wire reply and a direct BuildStats() agree field for field.
  EXPECT_EQ(stats.jobs_submitted, service.BuildStats().jobs_submitted);
  EXPECT_EQ(stats.cache_hits, service.BuildStats().cache_hits);
}

}  // namespace
}  // namespace rose
