// Pins the bytes of the three binary formats, their shared header rule and
// the hashes that name things across runs.
//
// Each format's public writers build a header plus a few frames, and the
// bytes must equal literals recorded before RTRC, RSRV and RJNL moved onto
// the shared framing (src/common/framing.h) — so a refactor of the framing
// layer cannot move a byte on any wire or disk. The RTRC literals, and the
// RSRV submit that embeds an RTRC dump, were re-recorded when writers
// stopped emitting RTRC version 2: each is what the last version-2-capable
// writer produced in its version-1 mode. golden_test pins full RTRC dumps
// the same way (rtrc_fnv). Every reader of every format then applies one
// header rule: the magic matches and 1 <= version <= the format's max.
// The hash pins (HashPinTest) were recorded before the FNV-1a and SplitMix64
// copies were folded into src/common/hash.h: cache keys name persisted
// files, ring positions place jobs on shards, and the schedule hash seeds
// every run, so none of them may move.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "src/analyze/schedule_linter.h"
#include "src/analyze/trace_validator.h"
#include "src/cluster/hash_ring.h"
#include "src/cluster/journal.h"
#include "src/cluster/router.h"
#include "src/net/transport.h"
#include "src/schedule/fault_schedule.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/trace/mapped_trace.h"
#include "src/trace/mmap_file.h"
#include "src/trace/trace_io.h"

namespace rose {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

std::string TempPath(const char* name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

// A three-event dump (SCF, ND, PS) — small enough to pin, and it covers the
// pool, event and end frames of RTRC.
std::string SmallDump() {
  Trace trace;
  TraceEvent scf;
  scf.ts = Seconds(5);
  scf.node = 1;
  scf.type = EventType::kSCF;
  scf.info = ScfInfo{101, Sys::kWrite, 4, trace.Intern("/data/log"), Err::kEIO};
  trace.Append(scf);
  TraceEvent nd;
  nd.ts = Seconds(6);
  nd.node = 2;
  nd.type = EventType::kND;
  nd.info = NdInfo{trace.Intern("10.0.0.2"), trace.Intern("10.0.0.3"), Seconds(1), 9};
  trace.Append(nd);
  TraceEvent ps;
  ps.ts = Seconds(7);
  ps.node = 1;
  ps.type = EventType::kPS;
  ps.info = PsInfo{101, ProcState::kCrashed, 0};
  trace.Append(ps);
  return trace.SerializeBinary();
}

TEST(WireBytesTest, RtrcDumpAndStreamFramesArePinned) {
  EXPECT_EQ(Hex(SmallDump()),
            "5254524301000000011e00000037b6c4b30103092f646174612f6c6f67083130"
            "2e302e302e320831302e302e302e33022800000093ce480c0380c8afa0250002"
            "ca010408010580a8d6b9070204020380a8d6b9070980a8d6b9070302ca010200"
            "030000000000000000");

  std::string stream;
  AppendRtrcHeader(&stream);
  StreamEpoch epoch;
  epoch.epoch = 3;
  epoch.start_ts = Seconds(2);
  epoch.source = "zk-2247/tracer";
  AppendRtrcFrame(&stream, kFrameStreamEpoch, EncodeStreamEpoch(epoch));
  OracleMark mark;
  mark.ts = Seconds(9) + 17;
  mark.detail = "leader lost";
  AppendRtrcFrame(&stream, kFrameOracleMark, EncodeOracleMark(mark));
  EXPECT_EQ(Hex(stream),
            "52545243010000000415000000fbfdc0c80380d0acf30e0e7a6b2d323234372f"
            "7472616365720511000000760c2bc4a2e88887430b6c6561646572206c6f7374");
}

TEST(WireBytesTest, RsrvSubmitAndAcceptedArePinned) {
  std::string wire;
  AppendServeHeader(&wire);
  AppendServeFrame(&wire, ServeFrame::kSubmit,
                   EncodeSubmitBlob("RedisRaft-42", 42, "unit",
                                    "rose-profile v1\nduration 30000000000\n", SmallDump(),
                                    /*token=*/0x1234567));
  AcceptedMsg accepted;
  accepted.job_id = 7;
  accepted.kind = AcceptKind::kCoalesced;
  accepted.queue_depth = 2;
  accepted.token = 0x1234567;
  AppendServeFrame(&wire, ServeFrame::kAccepted, EncodeAccepted(accepted));
  EXPECT_EQ(Hex(wire),
            "525352560100000001a7000000304247190c5265646973526166742d34322a04"
            "756e697425726f73652d70726f66696c652076310a6475726174696f6e203330"
            "3030303030303030300a695254524301000000011e00000037b6c4b30103092f"
            "646174612f6c6f670831302e302e302e320831302e302e302e33022800000093"
            "ce480c0380c8afa0250002ca010408010580a8d6b9070204020380a8d6b90709"
            "80a8d6b9070302ca010200030000000000000000e78a8d091007000000eeaa38"
            "3f070202e78a8d09");
}

TEST(WireBytesTest, RjnlRecordsArePinned) {
  const std::string path = TempPath("pinned.rjnl");
  std::remove(path.c_str());
  {
    ClusterJournal journal(path);
    RingEpochRecord ring;
    ring.epoch = 2;
    ring.shards = {"shard0", "shard1"};
    journal.AppendRingEpoch(ring);
    DispatchRecord dispatch;
    dispatch.job_id = 7;
    dispatch.key = 0xabcdef;
    dispatch.trace_hash = 0x123456789;
    dispatch.shard = "shard1";
    dispatch.redispatch = true;
    dispatch.payload = "submit-payload";
    journal.AppendDispatch(dispatch);
    CompleteRecord complete;
    complete.job_id = 7;
    complete.reproduced = true;
    journal.AppendComplete(complete);
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(Hex(bytes),
            "524a4e4c0100000001100000003df51f36020206736861726430067368617264"
            "3102210000004e7733a407ef9baf0589cf959a1206736861726431010e737562"
            "6d69742d7061796c6f61640302000000aeb49f790701");
  std::remove(path.c_str());
}

// The frames of `kind` the peer of `end` has sent so far.
std::vector<DecodedFrame> FramesOf(Transport& end, ServeFrame kind) {
  FrameDecoder decoder;
  decoder.Feed(end.Read(1 << 20));
  std::vector<DecodedFrame> frames;
  DecodedFrame frame;
  while (decoder.Next(&frame) == FrameDecoder::Status::kFrame) {
    if (frame.kind == kind) {
      frames.push_back(frame);
    }
  }
  return frames;
}

TEST(HashPinTest, CacheKeyRingPointAndScheduleHash) {
  EXPECT_EQ(DiagnosisService::JobKey(0x0123456789abcdefULL, "RedisRaft-42", 42),
            0xd630e02fcf31625aULL);
  EXPECT_EQ(HashRing::HashKey(0x0123456789abcdefULL), 0xd78b5e1386861b93ULL);
  FaultSchedule schedule;
  ASSERT_TRUE(FaultSchedule::FromYaml(R"(schedule:
  name: pinned
  faults:
    - kind: syscall
      node: 1
      sys: write
      errno: EIO
      path: /data/txnlog
      nth: 3
      persistent: false
    - kind: crash
      node: 0
      conditions:
        - type: after_fault
          fault: 0
)",
                                      &schedule));
  EXPECT_EQ(CanonicalHash(schedule), 0x957ad4c8c8bde2baULL);
}

TEST(HashPinTest, TraceHashAndSubmitToken) {
  EXPECT_EQ(CanonicalTraceHash(Trace::ParseBinary(SmallDump())), 0x8acc32c04a254edbULL);
  uint64_t blob_hash = 0;
  ASSERT_TRUE(CanonicalBlobHash(SmallDump(), &blob_hash));
  EXPECT_EQ(blob_hash, 0x8acc32c04a254edbULL);

  auto [client_end, server_end] = MakePipePair();
  ServeClient client(client_end);
  client.SubmitBlob("RedisRaft-42", 42, "unit", "rose-profile v1\n", SmallDump());
  client.Poll();
  std::vector<DecodedFrame> submits = FramesOf(*server_end, ServeFrame::kSubmit);
  ASSERT_EQ(submits.size(), 1u);
  SubmitEnvelope env;
  ASSERT_TRUE(DecodeSubmitEnvelope(std::move(submits[0].payload), &env));
  EXPECT_EQ(env.token(), 0x3d28007ae58c1411ULL);
}

TEST(HashPinTest, StreamOpenLandsOnItsPinnedShard) {
  ClusterRouter router;
  std::vector<std::shared_ptr<Transport>> shard_ends;
  for (const char* name : {"shard0", "shard1"}) {
    auto [router_end, shard_end] = MakePipePair();
    router.AttachShard(name, router_end);
    shard_ends.push_back(shard_end);
  }
  auto [client_end, router_end] = MakePipePair();
  router.AttachClient(router_end);
  ServeClient client(client_end);
  for (uint64_t seed = 1; seed <= 8; seed++) {
    client.OpenStream("RedisRaft-42", seed, "unit", "rose-profile v1\n");
  }
  client.Poll();
  router.Poll();
  // The seeds of the sessions each shard was asked to open.
  std::string placed[2];
  for (size_t s = 0; s < shard_ends.size(); s++) {
    for (const DecodedFrame& frame : FramesOf(*shard_ends[s], ServeFrame::kStreamOpen)) {
      StreamOpenMsg open;
      ASSERT_TRUE(DecodeStreamOpen(frame.payload, &open));
      placed[s] += std::to_string(open.seed) + " ";
    }
  }
  EXPECT_EQ(placed[0], "1 2 8 ");
  EXPECT_EQ(placed[1], "3 4 5 6 7 ");
}

// Sets the u16 version field of a stream header in place.
void SetVersion(std::string* bytes, uint16_t version) {
  (*bytes)[4] = static_cast<char>(version & 0xff);
  (*bytes)[5] = static_cast<char>(version >> 8);
}

TEST(HeaderRuleTest, EveryRtrcReaderRefusesVersionZeroAndNewer) {
  // Readers accept more versions than writers emit: the ceiling is the
  // format's, not the written version.
  EXPECT_EQ(kRtrcFormat.max_version, 2);
  EXPECT_LT(kTraceFormatVersion, kRtrcFormat.max_version);
  for (const uint16_t version : {uint16_t{0}, uint16_t{kRtrcFormat.max_version + 1}}) {
    std::string blob = SmallDump();
    SetVersion(&blob, version);
    std::vector<Diagnostic> diags;
    EXPECT_TRUE(Trace::ParseBinary(blob, &diags).empty()) << version;
    ASSERT_EQ(diags.size(), 1u) << version;
    EXPECT_EQ(diags[0].code, DiagCode::kBadTraceVersion) << version;

    diags.clear();
    uint64_t hash = 0;
    EXPECT_FALSE(CanonicalBlobHash(blob, &hash, &diags)) << version;
    ASSERT_EQ(diags.size(), 1u) << version;
    EXPECT_EQ(diags[0].code, DiagCode::kBadTraceVersion) << version;

    const MappedTrace mapped = MappedTrace::FromBuffer(blob);
    EXPECT_EQ(mapped.event_count(), 0u) << version;
    ASSERT_EQ(mapped.diagnostics().size(), 1u) << version;
    EXPECT_EQ(mapped.diagnostics()[0].code, DiagCode::kBadTraceVersion) << version;

    StreamDecoder stream;
    stream.Feed(blob);
    EXPECT_EQ(stream.Next(), StreamDecoder::Item::kBadStream) << version;
  }
  // Every version in [1, max] is read.
  for (uint16_t version = 1; version <= kRtrcFormat.max_version; version++) {
    std::string blob = SmallDump();
    SetVersion(&blob, version);
    std::vector<Diagnostic> diags;
    Trace::ParseBinary(blob, &diags);
    CanonicalBlobHash(blob, nullptr, &diags);
    const MappedTrace mapped = MappedTrace::FromBuffer(blob);
    diags.insert(diags.end(), mapped.diagnostics().begin(), mapped.diagnostics().end());
    for (const Diagnostic& diag : diags) {
      EXPECT_NE(diag.code, DiagCode::kBadTraceVersion) << version;
    }
    StreamDecoder stream;
    stream.Feed(blob);
    EXPECT_NE(stream.Next(), StreamDecoder::Item::kBadStream) << version;
  }
}

TEST(HeaderRuleTest, RsrvReaderRefusesVersionZeroAndNewer) {
  for (const uint16_t version : {uint16_t{0}, uint16_t{kServeProtocolVersion + 1}}) {
    std::string wire;
    AppendServeHeader(&wire);
    SetVersion(&wire, version);
    AppendServeFrame(&wire, ServeFrame::kStatsRequest, {});
    FrameDecoder decoder;
    decoder.Feed(wire);
    DecodedFrame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kBadStream) << version;
    EXPECT_TRUE(decoder.dead()) << version;
  }
}

TEST(HeaderRuleTest, RjnlReplayRefusesVersionZeroAndNewer) {
  const std::string path = TempPath("version.rjnl");
  for (const uint16_t version : {uint16_t{0}, uint16_t{kJournalFormatVersion + 1}}) {
    std::string bytes;
    AppendHeader(&bytes, kJournalFormat, version);
    CompleteRecord complete;
    complete.job_id = 9;
    AppendFrame(&bytes, static_cast<uint8_t>(JournalRecordType::kComplete),
                EncodeComplete(complete));
    {
      std::FILE* file = std::fopen(path.c_str(), "wb");
      ASSERT_NE(file, nullptr);
      std::fwrite(bytes.data(), 1, bytes.size(), file);
      std::fclose(file);
    }
    ClusterJournal journal(path);
    EXPECT_EQ(journal.replayed_records(), 0u) << version;
    EXPECT_TRUE(journal.recovered_torn_tail()) << version;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rose
