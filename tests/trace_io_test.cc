// Binary trace container tests: round-trip fidelity (checked through the
// display listing), pool remapping under Merge, and graceful rejection of
// damaged input.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/analyze/schedule_linter.h"
#include "src/analyze/trace_validator.h"
#include "src/common/rng.h"
#include "src/diagnose/engine.h"
#include "src/trace/trace_io.h"
#include "tests/stamped_v2_dump.h"

namespace rose {
namespace {

constexpr Sys kSysChoices[] = {Sys::kOpen,   Sys::kOpenAt, Sys::kRead, Sys::kWrite,
                               Sys::kStat,   Sys::kConnect, Sys::kClose};
constexpr Err kErrChoices[] = {Err::kEIO,    Err::kENOENT, Err::kEBADF,
                               Err::kENOSPC, Err::kETIMEDOUT};

// A randomized multi-node trace exercising all four event kinds with a mix
// of repeated and distinct strings.
Trace RandomTrace(uint64_t seed, int events) {
  Rng rng(seed);
  Trace trace;
  SimTime ts = 0;
  for (int i = 0; i < events; i++) {
    ts += static_cast<SimTime>(rng.NextBelow(5000));  // Duplicates allowed.
    TraceEvent event;
    event.ts = ts;
    event.node = static_cast<NodeId>(rng.NextBelow(5));
    switch (rng.NextBelow(4)) {
      case 0: {
        event.type = EventType::kSCF;
        const std::string file =
            rng.NextBool(0.3) ? "" : "/data/file" + std::to_string(rng.NextBelow(7));
        ScfInfo info{static_cast<Pid>(100 + rng.NextBelow(8)),
                     kSysChoices[rng.NextBelow(std::size(kSysChoices))],
                     static_cast<int32_t>(rng.NextBelow(32)) - 1,
                     trace.Intern(file),
                     kErrChoices[rng.NextBelow(std::size(kErrChoices))]};
        event.info = info;
        break;
      }
      case 1:
        event.type = EventType::kAF;
        event.info = AfInfo{static_cast<Pid>(100 + rng.NextBelow(8)),
                            static_cast<int32_t>(rng.NextBelow(64))};
        break;
      case 2: {
        event.type = EventType::kND;
        const std::string src = "10.0.0." + std::to_string(1 + rng.NextBelow(5));
        const std::string dst = "10.0.0." + std::to_string(1 + rng.NextBelow(5));
        event.info = NdInfo{trace.Intern(src), trace.Intern(dst),
                            static_cast<SimTime>(rng.NextBelow(10'000'000)), rng.NextBelow(500)};
        break;
      }
      default:
        event.type = EventType::kPS;
        event.info = PsInfo{static_cast<Pid>(100 + rng.NextBelow(8)),
                            rng.NextBool(0.5) ? ProcState::kCrashed : ProcState::kPaused,
                            static_cast<SimTime>(rng.NextBelow(8'000'000))};
        break;
    }
    trace.Append(event);
  }
  return trace;
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (uint64_t value : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                         0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buffer;
    PutVarint(&buffer, value);
    std::string_view rest = buffer;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(&rest, &decoded));
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(rest.empty());
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint(&buffer, 1ull << 40);
  std::string_view rest(buffer.data(), buffer.size() - 1);
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint(&rest, &decoded));
}

TEST(ZigZagTest, RoundTripsSignedValues) {
  for (int64_t value : {0ll, 1ll, -1ll, 63ll, -64ll, (1ll << 40), -(1ll << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
  EXPECT_EQ(ZigZagEncode(-1), 1u);  // Small magnitudes stay small.
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(TraceIoTest, BinaryRoundTripEqualsTextRoundTrip) {
  for (uint64_t seed = 1; seed <= 8; seed++) {
    const Trace original = RandomTrace(seed * 7919, 500);
    std::vector<Diagnostic> diags;
    const Trace from_binary = Trace::ParseBinary(original.SerializeBinary(), &diags);
    EXPECT_TRUE(diags.empty());
    EXPECT_TRUE(TraceEquals(original, from_binary)) << "seed " << seed;
    // The display listing (what the canonical hash is defined over) is
    // unchanged by the round trip.
    EXPECT_EQ(from_binary.Serialize(), original.Serialize()) << "seed " << seed;
  }
}

// Text listings are display-only: every trace reader refuses them.
TEST(TraceIoTest, TextListingIsRejectedAsBadMagic) {
  const Trace original = RandomTrace(42, 200);
  const std::string listing = original.Serialize();
  std::vector<Diagnostic> diags;
  EXPECT_TRUE(Trace::ParseBinary(listing, &diags).empty());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, DiagCode::kBadTraceMagic);
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "listing.txt").string();
  ASSERT_TRUE(SaveTraceFile(path, original, /*text=*/true));
  const LoadedTrace loaded = LoadTraceFile(path);
  EXPECT_TRUE(loaded.trace.empty());
  ASSERT_EQ(loaded.diagnostics.size(), 1u);
  EXPECT_EQ(loaded.diagnostics[0].code, DiagCode::kBadTraceMagic);
  std::remove(path.c_str());
  EXPECT_TRUE(TraceEquals(original, Trace::ParseBinary(original.SerializeBinary())));
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  const Trace empty;
  std::vector<Diagnostic> diags;
  const Trace parsed = Trace::ParseBinary(empty.SerializeBinary(), &diags);
  EXPECT_TRUE(parsed.empty());
  EXPECT_TRUE(diags.empty());
}

TEST(TraceIoTest, MultiFrameStreamsRoundTrip) {
  // Force many frames: 500 events at 16 events/frame, with pool frames
  // interleaved as new strings appear.
  const Trace original = RandomTrace(99, 500);
  std::string encoded;
  {
    TraceWriter writer(&encoded, &original.pool(), /*events_per_frame=*/16);
    for (const TraceEvent& event : original.events()) {
      writer.Add(event);
    }
    writer.Finish();
  }
  TraceReader reader(encoded);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.Next(&event)) {
    events.push_back(event);
  }
  EXPECT_TRUE(reader.ok());
  const Trace streamed(std::move(events), reader.pool());
  EXPECT_TRUE(TraceEquals(original, streamed));
}

TEST(TraceIoTest, MergeRemapsPoolIds) {
  // Both traces use the same strings but intern them in opposite orders, so
  // the same StrId means different things in each pool.
  Trace a;
  {
    TraceEvent event;
    event.ts = 10;
    event.node = 0;
    event.type = EventType::kND;
    event.info = NdInfo{a.Intern("10.0.0.1"), a.Intern("10.0.0.2"), 5, 1};
    a.Append(event);
  }
  Trace b;
  {
    TraceEvent event;
    event.ts = 20;
    event.node = 1;
    event.type = EventType::kND;
    event.info = NdInfo{b.Intern("10.0.0.2"), b.Intern("10.0.0.1"), 5, 1};
    b.Append(event);
    TraceEvent scf;
    scf.ts = 30;
    scf.node = 1;
    scf.type = EventType::kSCF;
    scf.info = ScfInfo{100, Sys::kWrite, 3, b.Intern("/data/log"), Err::kEIO};
    b.Append(scf);
  }
  // Same id in both pools, but it names "10.0.0.1" in a and "10.0.0.2" in b.
  ASSERT_EQ(a[0].nd().src_ip, b[0].nd().src_ip);
  ASSERT_NE(a.str(a[0].nd().src_ip), b.str(b[0].nd().src_ip));

  const Trace merged = Trace::Merge({a, b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.str(merged[0].nd().src_ip), "10.0.0.1");
  EXPECT_EQ(merged.str(merged[0].nd().dst_ip), "10.0.0.2");
  EXPECT_EQ(merged.str(merged[1].nd().src_ip), "10.0.0.2");
  EXPECT_EQ(merged.str(merged[1].nd().dst_ip), "10.0.0.1");
  EXPECT_EQ(merged.str(merged[2].scf().filename), "/data/log");
  // Shared strings dedupe in the merged pool: empty + 2 ips + 1 path.
  EXPECT_EQ(merged.pool().size(), 4u);
}

TEST(TraceIoTest, MergedRandomTracesSurviveBinaryRoundTrip) {
  const Trace merged =
      Trace::Merge({RandomTrace(7, 200), RandomTrace(11, 200), RandomTrace(13, 200)});
  std::vector<Diagnostic> diags;
  const Trace parsed = Trace::ParseBinary(merged.SerializeBinary(), &diags);
  EXPECT_TRUE(diags.empty());
  EXPECT_TRUE(TraceEquals(merged, parsed));
}

TEST(TraceIoTest, BadMagicRejectedWithDiagnostic) {
  std::vector<Diagnostic> diags;
  const Trace parsed = Trace::ParseBinary("XXXX not a trace", &diags);
  EXPECT_TRUE(parsed.empty());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, DiagCode::kBadTraceMagic);
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(TraceIoTest, FutureVersionRejectedWithDiagnostic) {
  std::string encoded = RandomTrace(3, 10).SerializeBinary();
  encoded[4] = char(0xFF);  // Bump the little-endian version field.
  std::vector<Diagnostic> diags;
  const Trace parsed = Trace::ParseBinary(encoded, &diags);
  EXPECT_TRUE(parsed.empty());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, DiagCode::kBadTraceVersion);
}

TEST(TraceIoTest, TruncationAtEveryByteNeverCrashes) {
  const Trace original = RandomTrace(5, 120);
  const std::string encoded = original.SerializeBinary();
  for (size_t cut = 0; cut < encoded.size(); cut++) {
    std::vector<Diagnostic> diags;
    const Trace parsed = Trace::ParseBinary(std::string_view(encoded).substr(0, cut), &diags);
    // Anything shorter than the full stream must say so, and whatever events
    // did decode must be a prefix of the original.
    EXPECT_FALSE(diags.empty()) << "cut at " << cut;
    ASSERT_LE(parsed.size(), original.size());
    for (size_t i = 0; i < parsed.size(); i++) {
      EXPECT_EQ(parsed[i].ts, original[i].ts);
      EXPECT_EQ(parsed[i].type, original[i].type);
    }
  }
}

TEST(TraceIoTest, CorruptCrcDropsFrameButKeepsIntactOnes) {
  const Trace original = RandomTrace(21, 300);
  std::string encoded;
  {
    TraceWriter writer(&encoded, &original.pool(), /*events_per_frame=*/64);
    for (const TraceEvent& event : original.events()) {
      writer.Add(event);
    }
    writer.Finish();
  }
  // Flip one byte near the end of the stream (inside a late frame's payload)
  // so early frames still decode.
  std::string corrupted = encoded;
  corrupted[corrupted.size() - 20] ^= char(0x40);
  std::vector<Diagnostic> diags;
  const Trace parsed = Trace::ParseBinary(corrupted, &diags);
  EXPECT_FALSE(diags.empty());
  bool saw_corruption = false;
  for (const Diagnostic& diag : diags) {
    if (diag.code == DiagCode::kCorruptTraceFrame ||
        diag.code == DiagCode::kMalformedTraceFrame ||
        diag.code == DiagCode::kTruncatedTrace) {
      saw_corruption = true;
    }
  }
  EXPECT_TRUE(saw_corruption);
  EXPECT_LT(parsed.size(), original.size());
  for (size_t i = 0; i < parsed.size(); i++) {
    EXPECT_EQ(parsed[i].ts, original[i].ts);
  }
}

// The acceptance bar for the data plane: feeding the diagnosis engine a
// binary-round-tripped production trace yields a bit-for-bit identical
// DiagnosisResult.
TEST(TraceIoTest, DiagnosisIdenticalAfterBinaryRoundTrip) {
  Trace production;
  {
    TraceEvent scf;
    scf.ts = Seconds(5);
    scf.node = 0;
    scf.type = EventType::kSCF;
    scf.info = ScfInfo{100, Sys::kWrite, 3, production.Intern("/data/txnlog"), Err::kEIO};
    production.Append(scf);
    TraceEvent af;
    af.ts = Seconds(6);
    af.node = 1;
    af.type = EventType::kAF;
    af.info = AfInfo{101, 7};
    production.Append(af);
    TraceEvent ps;
    ps.ts = Seconds(7);
    ps.node = 1;
    ps.type = EventType::kPS;
    ps.info = PsInfo{101, ProcState::kCrashed, 0};
    production.Append(ps);
  }
  std::vector<Diagnostic> diags;
  const Trace round_tripped = Trace::ParseBinary(production.SerializeBinary(), &diags);
  ASSERT_TRUE(diags.empty());
  ASSERT_TRUE(TraceEquals(production, round_tripped));

  Profile profile;
  BinaryInfo binary;
  DiagnosisConfig config;
  config.server_nodes = {0, 1, 2};
  config.level1_attempts = 1;
  auto runner = [](const ScheduleRunRequest& request) {
    ScheduleRunOutcome outcome;
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(request.schedule->faults.size());
    for (auto& fault : outcome.feedback.outcomes) {
      fault.injected = true;
      fault.injected_at = Seconds(10);
    }
    for (const auto& fault : request.schedule->faults) {
      if (fault.kind == FaultKind::kSyscallFailure && fault.syscall.nth == 3) {
        outcome.bug = true;
      }
    }
    return outcome;
  };

  auto diagnose = [&](const Trace& trace) {
    DiagnosisEngine engine(trace, &profile, &binary, runner, config);
    return engine.Run();
  };
  const DiagnosisResult in_memory = diagnose(production);
  const DiagnosisResult from_binary = diagnose(round_tripped);
  EXPECT_EQ(in_memory.reproduced, from_binary.reproduced);
  EXPECT_EQ(CanonicalHash(in_memory.schedule), CanonicalHash(from_binary.schedule));
  EXPECT_EQ(in_memory.fault_summary, from_binary.fault_summary);
  EXPECT_DOUBLE_EQ(in_memory.replay_rate, from_binary.replay_rate);
  EXPECT_EQ(in_memory.level, from_binary.level);
  EXPECT_EQ(in_memory.schedules_generated, from_binary.schedules_generated);
  EXPECT_EQ(in_memory.schedules_pruned_invalid, from_binary.schedules_pruned_invalid);
  EXPECT_EQ(in_memory.schedules_pruned_duplicate, from_binary.schedules_pruned_duplicate);
  EXPECT_EQ(in_memory.total_runs, from_binary.total_runs);
  EXPECT_EQ(in_memory.virtual_time, from_binary.virtual_time);
}

// --- LoadTraceFile: the one trace-file loader (DESIGN.md §13) ---------------

std::string TempTracePath(const char* name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

void WriteBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<DiagCode> Codes(const std::vector<Diagnostic>& diags) {
  std::vector<DiagCode> codes;
  for (const Diagnostic& diag : diags) {
    codes.push_back(diag.code);
  }
  return codes;
}

// A file holding `encoded`, as LoadTraceFile returned it: the bytes must be
// the file's, and the trace and diagnostics must agree with
// Trace::ParseBinary over them event for event, string for string, and
// diagnostic for diagnostic on ANY input. The damage matrices below lean on
// this helper.
void ExpectLoadMatchesParse(const LoadedTrace& loaded, std::string_view encoded,
                            const char* what) {
  EXPECT_EQ(loaded.bytes, encoded) << what;
  std::vector<Diagnostic> parse_diags;
  const Trace parsed = Trace::ParseBinary(encoded, &parse_diags);
  EXPECT_EQ(Codes(loaded.diagnostics), Codes(parse_diags)) << what;
  ASSERT_EQ(loaded.trace.size(), parsed.size()) << what;
  for (size_t i = 0; i < parsed.size(); i++) {
    EXPECT_EQ(loaded.trace[i].ToLine(loaded.trace.pool()), parsed[i].ToLine(parsed.pool()))
        << what << " event " << i;
  }
}

TEST(LoadTraceFileTest, LargeTraceRoundTripMatchesParse) {
  // Large enough to span many frames (writer flushes every 4096 events) —
  // the ASan job dereferences every decoded pool string through ToLine
  // below.
  const Trace original = RandomTrace(31, 65536);
  const std::string encoded = original.SerializeBinary();
  const std::string path = TempTracePath("load_roundtrip.trc");
  WriteBytes(path, encoded);
  const LoadedTrace loaded = LoadTraceFile(path);
  EXPECT_TRUE(loaded.diagnostics.empty());
  EXPECT_EQ(loaded.trace.size(), original.size());
  ExpectLoadMatchesParse(loaded, encoded, "round trip");
  std::remove(path.c_str());
}

TEST(LoadTraceFileTest, LegacyVersionFileMatchesParse) {
  // A version-2 dump on disk loads like its in-memory parse: the stamps
  // are skipped.
  const std::string v2 = FromHex(kStampedV2DumpHex);
  const std::string path = TempTracePath("load_legacy.trc");
  WriteBytes(path, v2);
  const LoadedTrace loaded = LoadTraceFile(path);
  EXPECT_TRUE(loaded.diagnostics.empty());
  ExpectLoadMatchesParse(loaded, v2, "version 2");
  EXPECT_TRUE(TraceEquals(loaded.trace, Trace::ParseBinary(FromHex(kStampedV1DumpHex))));
  std::remove(path.c_str());
}

// --- Version-2 dumps (DESIGN.md §14) -----------------------------------------

// Every event a StreamDecoder yields for `bytes` fed in `chunk`-byte pieces.
// `*clean` turns false when the decoder skips a frame or kills the stream.
Trace StreamDecode(std::string_view bytes, size_t chunk, bool* clean) {
  StreamDecoder decoder;
  std::vector<TraceEvent> events;
  *clean = true;
  for (size_t at = 0; at < bytes.size(); at += chunk) {
    decoder.Feed(bytes.substr(at, chunk));
    for (StreamDecoder::Item item = decoder.Next(); item != StreamDecoder::Item::kNeedMore;
         item = decoder.Next()) {
      if (item == StreamDecoder::Item::kBadStream) {
        *clean = false;
        return Trace(std::move(events), decoder.pool());
      }
      if (item == StreamDecoder::Item::kCorrupt) {
        *clean = false;
      }
      if (item == StreamDecoder::Item::kEvents) {
        events.insert(events.end(), decoder.events().begin(), decoder.events().end());
      }
    }
  }
  return Trace(std::move(events), decoder.pool());
}

// The first `count` events of `trace`.
TraceView Prefix(const Trace& trace, size_t count) {
  return TraceView(trace.events().data(), count, &trace.pool());
}

// `trace` as the stamped literals were written: 4 events per frame.
std::string EncodeLikeTheLiterals(const Trace& trace) {
  std::string encoded;
  TraceWriter writer(&encoded, &trace.pool(), /*events_per_frame=*/4);
  for (const TraceEvent& event : trace.events()) {
    writer.Add(event);
  }
  writer.Finish();
  return encoded;
}

TEST(TraceIoTest, LegacyVersionStreamStillLoads) {
  // Every reader decodes the stamped version-2 dump to exactly the events of
  // its version-1 encoding: the stamps are read past and dropped, so both
  // dumps hash alike and the writer re-encodes either as the version-1
  // bytes.
  const std::string v2 = FromHex(kStampedV2DumpHex);
  const std::string v1 = FromHex(kStampedV1DumpHex);
  std::vector<Diagnostic> diags;
  const Trace from_v1 = Trace::ParseBinary(v1, &diags);
  ASSERT_TRUE(diags.empty());
  ASSERT_EQ(from_v1.size(), 9u);
  EXPECT_EQ(EncodeLikeTheLiterals(from_v1), v1);
  EXPECT_EQ(CanonicalTraceHash(from_v1), kStampedDumpCanonicalHash);

  TraceReader reader(v2);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.Next(&event)) {
    events.push_back(event);
  }
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.format_version(), 2);
  const Trace from_v2(std::move(events), reader.ReleasePool());
  EXPECT_TRUE(TraceEquals(from_v2, from_v1));
  EXPECT_EQ(EncodeLikeTheLiterals(from_v2), v1);
  EXPECT_EQ(CanonicalTraceHash(from_v2), kStampedDumpCanonicalHash);
  uint64_t blob_hash = 0;
  ASSERT_TRUE(CanonicalBlobHash(v2, &blob_hash));
  EXPECT_EQ(blob_hash, kStampedDumpCanonicalHash);

  for (const size_t chunk : {size_t{1}, size_t{7}, v2.size()}) {
    bool clean = false;
    EXPECT_TRUE(TraceEquals(StreamDecode(v2, chunk, &clean), from_v1)) << "chunk " << chunk;
    EXPECT_TRUE(clean) << "chunk " << chunk;
  }
}

TEST(TraceIoTest, LegacyTruncationAtEveryByteNeverCrashes) {
  // The version-2 dump cut at every byte: the dump readers report the
  // damage and keep a prefix of the events, and the stream decoder takes
  // the cut for a slow sender, never for a bad or corrupt stream.
  const std::string v2 = FromHex(kStampedV2DumpHex);
  const Trace whole = Trace::ParseBinary(FromHex(kStampedV1DumpHex));
  for (size_t cut = 0; cut < v2.size(); cut++) {
    SCOPED_TRACE(testing::Message() << "cut at " << cut);
    const std::string_view prefix = std::string_view(v2).substr(0, cut);
    std::vector<Diagnostic> diags;
    const Trace parsed = Trace::ParseBinary(prefix, &diags);
    EXPECT_FALSE(diags.empty());
    ASSERT_LE(parsed.size(), whole.size());
    EXPECT_TRUE(TraceEquals(parsed, Prefix(whole, parsed.size())));

    bool clean = false;
    const Trace streamed = StreamDecode(prefix, 1, &clean);
    EXPECT_TRUE(clean);
    ASSERT_LE(streamed.size(), whole.size());
    EXPECT_TRUE(TraceEquals(streamed, Prefix(whole, streamed.size())));
  }
}

TEST(LoadTraceFileTest, TruncationAtEveryByteMatchesParse) {
  const Trace original = RandomTrace(5, 120);
  const std::string encoded = original.SerializeBinary();
  const std::string path = TempTracePath("load_truncation.trc");
  for (size_t cut = 0; cut < encoded.size(); cut++) {
    WriteBytes(path, std::string_view(encoded).substr(0, cut));
    ExpectLoadMatchesParse(LoadTraceFile(path), std::string_view(encoded).substr(0, cut),
                           ("cut at " + std::to_string(cut)).c_str());
  }
  std::remove(path.c_str());
}

TEST(LoadTraceFileTest, CorruptCrcAtEveryFrameMatchesParse) {
  const Trace original = RandomTrace(21, 300);
  std::string encoded;
  {
    TraceWriter writer(&encoded, &original.pool(), /*events_per_frame=*/64);
    for (const TraceEvent& event : original.events()) {
      writer.Add(event);
    }
    writer.Finish();
  }
  const std::string path = TempTracePath("load_corrupt.trc");
  // Flip one byte at a spread of positions past the magic — version bytes,
  // frame headers, CRCs, pool payloads, event payloads all get hit. (The
  // magic itself stays intact so the decode takes the binary branch.)
  for (size_t pos = 4; pos < encoded.size(); pos += 17) {
    std::string corrupted = encoded;
    corrupted[pos] ^= char(0x40);
    WriteBytes(path, corrupted);
    ExpectLoadMatchesParse(LoadTraceFile(path), corrupted,
                           ("flip at " + std::to_string(pos)).c_str());
  }
  std::remove(path.c_str());
}

TEST(LoadTraceFileTest, UnreadableFileYieldsDiagnostic) {
  const LoadedTrace loaded = LoadTraceFile(TempTracePath("nonexistent.trc"));
  EXPECT_TRUE(loaded.bytes.empty());
  ASSERT_FALSE(loaded.diagnostics.empty());
  EXPECT_EQ(loaded.diagnostics[0].code, DiagCode::kTraceFileUnreadable);
  EXPECT_TRUE(loaded.trace.empty());
}

TEST(CanonicalBlobHashTest, MatchesParsedTraceHash) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    const Trace trace = RandomTrace(seed * 131, 400);
    const std::string blob = trace.SerializeBinary();
    uint64_t streamed = 0;
    size_t events = 0;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(CanonicalBlobHash(blob, &streamed, &diags, &events));
    EXPECT_TRUE(diags.empty());
    EXPECT_EQ(events, trace.size());
    EXPECT_EQ(streamed, CanonicalTraceHash(TraceView(trace)));
  }
}

TEST(CanonicalBlobHashTest, RejectsTextAndDamage) {
  uint64_t hash = 0;
  std::vector<Diagnostic> diags;
  EXPECT_FALSE(CanonicalBlobHash(RandomTrace(3, 16).Serialize(), &hash, &diags));
  EXPECT_FALSE(diags.empty());
  const std::string blob = RandomTrace(3, 64).SerializeBinary();
  EXPECT_FALSE(CanonicalBlobHash(std::string_view(blob).substr(0, blob.size() / 2), &hash));
}

// --- Hostile input -----------------------------------------------------------

// An RTRC blob whose one `kind` frame (pool or events) announces `count`
// entries with a valid CRC, followed by an end frame — 35 bytes for the
// 2^62 event count.
std::string HostileCountBlob(uint8_t kind, uint64_t count) {
  std::string payload;
  if (kind == kFramePool) {
    PutVarint(&payload, 1);  // first_id: continues the implicit empty string.
  }
  PutVarint(&payload, count);
  std::string blob;
  AppendRtrcHeader(&blob);
  AppendRtrcFrame(&blob, kind, payload);
  AppendRtrcFrame(&blob, kFrameEnd, {});
  return blob;
}

// Every record and pool string takes at least one byte, so a count past the
// payload is malformed (TB205 / kCorrupt) — never the size of an allocation.
TEST(TraceIoTest, HostileCountsAreMalformedNotAllocations) {
  for (const uint8_t kind : {kFrameEvents, kFramePool}) {
    for (const uint64_t count : {uint64_t{1} << 62, uint64_t{1000}}) {
      const std::string blob = HostileCountBlob(kind, count);
      SCOPED_TRACE(testing::Message() << "kind " << int(kind) << " count " << count);
      if (kind == kFrameEvents && count == uint64_t{1} << 62) {
        EXPECT_EQ(blob.size(), 35u);
      }
      const std::vector<DiagCode> malformed = {DiagCode::kMalformedTraceFrame};

      std::vector<Diagnostic> diags;
      EXPECT_TRUE(Trace::ParseBinary(blob, &diags).empty());
      EXPECT_EQ(Codes(diags), malformed);

      diags.clear();
      uint64_t hash = 0;
      EXPECT_FALSE(CanonicalBlobHash(blob, &hash, &diags));
      EXPECT_EQ(Codes(diags), malformed);

      StreamDecoder stream;
      stream.Feed(blob);
      EXPECT_EQ(stream.Next(), StreamDecoder::Item::kCorrupt);
      EXPECT_EQ(stream.Next(), StreamDecoder::Item::kEnd);
      EXPECT_EQ(stream.Next(), StreamDecoder::Item::kNeedMore);
    }
  }
}

// Timestamp deltas wrap modulo 2^64 on both sides: the extreme sequence a
// hostile stream can materialize round-trips exactly, with no signed
// overflow (the sanitizer job checks the UB half).
TEST(TraceIoTest, TimestampDeltasWrapAcrossTheInt64Range) {
  Trace trace;
  for (const SimTime ts : {INT64_MIN, INT64_MAX, SimTime{0}}) {
    TraceEvent event;
    event.ts = ts;
    event.node = 0;
    event.type = EventType::kAF;
    event.info = AfInfo{100, 1};
    trace.Append(event);
  }
  const std::string blob = trace.SerializeBinary();
  std::vector<Diagnostic> diags;
  const Trace parsed = Trace::ParseBinary(blob, &diags);
  EXPECT_TRUE(diags.empty());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].ts, INT64_MIN);
  EXPECT_EQ(parsed[1].ts, INT64_MAX);
  EXPECT_EQ(parsed[2].ts, 0);

  StreamDecoder stream;
  stream.Feed(blob);
  ASSERT_EQ(stream.Next(), StreamDecoder::Item::kEvents);
  ASSERT_EQ(stream.events().size(), 3u);
  EXPECT_EQ(stream.events()[0].ts, INT64_MIN);
  EXPECT_EQ(stream.events()[1].ts, INT64_MAX);
  EXPECT_EQ(stream.events()[2].ts, 0);
}

TEST(LoadTraceFileTest, ReadFileBytesReadsWholeFileOrReportsErrno) {
  const std::string path = TempTracePath("read_raw.bin");
  const std::string payload = RandomTrace(41, 256).SerializeBinary();
  WriteBytes(path, payload);
  std::string bytes;
  int read_errno = -1;
  ASSERT_TRUE(ReadFileBytes(path, &bytes, &read_errno));
  EXPECT_EQ(bytes, payload);
  EXPECT_EQ(read_errno, 0);
  std::string missing;
  EXPECT_FALSE(ReadFileBytes(TempTracePath("missing.bin"), &missing, &read_errno));
  EXPECT_EQ(read_errno, ENOENT);
  std::remove(path.c_str());
}

TEST(TraceIoTest, BinaryEncodingIsSmallerThanText) {
  const Trace trace = RandomTrace(77, 2000);
  const size_t binary_size = trace.SerializeBinary().size();
  const size_t text_size = trace.Serialize().size();
  // The acceptance target is <=50%; fail loudly if the container regresses.
  EXPECT_LE(binary_size * 2, text_size)
      << "binary " << binary_size << " vs text " << text_size;
}

}  // namespace
}  // namespace rose
