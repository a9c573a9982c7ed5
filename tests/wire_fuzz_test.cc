// Seeded mutational fuzzing of every decoder that takes untrusted bytes:
// RTRC dumps and streams, RSRV connections and payloads, the RJNL journal
// and YAML fault schedules. A plain gtest driven by rose::Rng with fixed
// seeds, so any failure replays exactly from its seed and case number.
//
// Each case mutates a valid input — bit flips, byte sets, splices,
// truncations, insertions, varint inflation and frame-length inflation —
// and the incremental readers are fed at random chunk boundaries. Half the
// mutations aimed at a frame payload recompute that frame's CRC, so the
// damage reaches the payload decoders instead of stopping at the CRC check.
//
// Assertions: nothing throws; decoded events and pool entries never
// outnumber the input bytes; an incremental reader never buffers more than
// its cap plus one frame header plus the last chunk; a payload mutation
// left with a stale CRC costs exactly that frame — the shared reader yields
// every later frame exactly as it does for the unmutated input; and a YAML
// schedule or profile text that parses prints back to text that parses to
// the same print.
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analyze/trace_validator.h"
#include "src/causal/causal_graph.h"
#include "src/cluster/journal.h"
#include "src/common/framing.h"
#include "src/common/rng.h"
#include "src/diagnose/extract.h"
#include "src/schedule/fault_schedule.h"
#include "src/serve/protocol.h"
#include "src/trace/trace_io.h"
#include "tests/stamped_v2_dump.h"

namespace rose {
namespace {

// --- Corpus ------------------------------------------------------------------

Trace CorpusTrace(uint64_t seed, int events) {
  Rng rng(seed);
  Trace trace;
  SimTime ts = Seconds(1);
  for (int i = 0; i < events; i++) {
    ts += static_cast<SimTime>(rng.NextBelow(Millis(300)));
    TraceEvent event;
    event.ts = ts;
    event.node = static_cast<NodeId>(rng.NextBelow(3));
    const Pid pid = static_cast<Pid>(100 + event.node);
    switch (rng.NextBelow(4)) {
      case 0:
        event.type = EventType::kSCF;
        event.info = ScfInfo{pid, rng.NextBool(0.5) ? Sys::kWrite : Sys::kOpenAt, 4,
                             trace.Intern("/data/f" + std::to_string(rng.NextBelow(4))),
                             rng.NextBool(0.5) ? Err::kEIO : Err::kENOSPC};
        break;
      case 1:
        event.type = EventType::kAF;
        event.info = AfInfo{pid, static_cast<int32_t>(rng.NextBelow(6))};
        break;
      case 2:
        event.type = EventType::kND;
        event.info = NdInfo{trace.Intern("10.0.0." + std::to_string(1 + event.node)),
                            trace.Intern("10.0.0." + std::to_string(1 + rng.NextBelow(3))),
                            Millis(500), rng.NextBelow(20)};
        break;
      default:
        event.type = EventType::kPS;
        event.info = PsInfo{pid, rng.NextBool(0.5) ? ProcState::kCrashed : ProcState::kPaused,
                            Millis(200)};
        break;
    }
    trace.Append(event);
  }
  return trace;
}

Profile CorpusProfile() {
  Profile profile;
  profile.duration = Seconds(30);
  profile.monitored_functions = {1, 3, 5};
  profile.function_counts = {{1, 4}, {2, 90}, {3, 7}};
  profile.syscall_counts = {{static_cast<int32_t>(Sys::kWrite), 120}};
  profile.benign_scf_signatures = {ScfSignature(Sys::kOpenAt, "/data/f0", Err::kENOSPC)};
  profile.benign_nd_pairs = {{"10.0.0.1", "10.0.0.2"}};
  return profile;
}

// A stream-form RTRC container: header, epoch, pool and event frames at 8
// events per frame, end, then an oracle mark.
std::string RtrcCorpus() {
  const Trace trace = CorpusTrace(7, 40);
  std::string out;
  TraceWriter writer(&out, &trace.pool(), /*events_per_frame=*/8);
  StreamEpoch epoch;
  epoch.epoch = 1;
  epoch.source = "fuzz";
  AppendRtrcFrame(&out, kFrameStreamEpoch, EncodeStreamEpoch(epoch));
  for (const TraceEvent& event : trace.events()) {
    writer.Add(event);
  }
  writer.Finish();
  OracleMark mark;
  mark.ts = Seconds(20);
  mark.detail = "oracle";
  AppendRtrcFrame(&out, kFrameOracleMark, EncodeOracleMark(mark));
  return out;
}

// Every RSRV frame kind in one stream (the decoder does not care which way
// a frame travels).
std::string RsrvCorpus() {
  const std::string dump = CorpusTrace(11, 12).SerializeBinary();
  const std::string profile = SerializeProfile(CorpusProfile());
  std::string out;
  AppendServeHeader(&out);
  AppendServeFrame(&out, ServeFrame::kSubmit,
                   EncodeSubmitBlob("RedisRaft-42", 42, "fuzz", profile, dump, /*token=*/77));
  StreamOpenMsg open;
  open.bug_id = "RedisRaft-42";
  open.profile_text = profile;
  open.token = 78;
  AppendServeFrame(&out, ServeFrame::kStreamOpen, EncodeStreamOpen(open));
  AppendServeFrame(&out, ServeFrame::kStreamData, EncodeStreamData(5, dump.substr(0, 40)));
  AppendServeFrame(&out, ServeFrame::kStreamClose, EncodeStreamClose(StreamCloseMsg{5}));
  AppendServeFrame(&out, ServeFrame::kStatsRequest, {});
  AcceptedMsg accepted;
  accepted.job_id = 5;
  accepted.token = 77;
  AppendServeFrame(&out, ServeFrame::kAccepted, EncodeAccepted(accepted));
  ProgressMsg progress;
  progress.job_id = 5;
  progress.kind = ProgressKind::kCandidate;
  progress.detail = "candidate";
  AppendServeFrame(&out, ServeFrame::kProgress, EncodeProgress(progress));
  ResultMsg result;
  result.job_id = 5;
  result.reproduced = true;
  result.schedule_yaml = "schedule:\n  name: fuzz\n";
  AppendServeFrame(&out, ServeFrame::kResult, EncodeResult(result));
  ErrorMsg error;
  error.code = ServeError::kQueueFull;
  error.message = "full";
  AppendServeFrame(&out, ServeFrame::kError, EncodeError(error));
  StatsMsg stats;
  stats.jobs_submitted = 3;
  stats.metrics_yaml = "# rose-obs v1\n";
  AppendServeFrame(&out, ServeFrame::kStatsReply, EncodeStats(stats));
  AppendServeFrame(&out, ServeFrame::kThrottle, EncodeThrottle(ThrottleMsg{5, true, 4096}));
  return out;
}

std::string RjnlCorpus() {
  std::string out;
  AppendHeader(&out, kJournalFormat, kJournalFormatVersion);
  RingEpochRecord ring;
  ring.epoch = 1;
  ring.shards = {"shard0", "shard1"};
  AppendFrame(&out, static_cast<uint8_t>(JournalRecordType::kRingEpoch), EncodeRingEpoch(ring));
  DispatchRecord dispatch;
  dispatch.job_id = 4;
  dispatch.key = 99;
  dispatch.shard = "shard1";
  dispatch.payload = EncodeSubmitBlob("RedisRaft-42", 42, "fuzz", "rose-profile v1\n",
                                      CorpusTrace(13, 4).SerializeBinary());
  AppendFrame(&out, static_cast<uint8_t>(JournalRecordType::kDispatch), EncodeDispatch(dispatch));
  dispatch.job_id = 5;
  dispatch.redispatch = true;
  AppendFrame(&out, static_cast<uint8_t>(JournalRecordType::kDispatch), EncodeDispatch(dispatch));
  AppendFrame(&out, static_cast<uint8_t>(JournalRecordType::kComplete),
              EncodeComplete(CompleteRecord{4, true}));
  return out;
}

constexpr char kYamlCorpus[] = R"(schedule:
  name: fuzz-demo
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
        - type: function
          fid: 4
    - kind: partition
      node: 2
      conditions:
        - type: time
          at: 5000000000
)";

// A profile in SerializeProfile() form with every fact kind.
constexpr char kProfileCorpus[] = R"(rose-profile v1
duration 30000000000
monitored 3
monitored 14
function 3 7
function 14 120
syscall 1 42
syscall 4 9
benign_scf write|/data/log|EIO
benign_scf fsync||EIO
benign_nd 10.0.0.1 10.0.0.2
)";

// --- Mutations ---------------------------------------------------------------

struct FrameSpan {
  size_t offset = 0;  // Of the frame header.
  uint8_t kind = 0;
  std::string_view payload;
};

// The intact frames at the front of `bytes` (all of them for clean input).
std::vector<FrameSpan> Frames(std::string_view bytes) {
  std::vector<FrameSpan> frames;
  if (bytes.size() < kStreamHeaderSize) {
    return frames;
  }
  std::string_view rest = bytes.substr(kStreamHeaderSize);
  for (;;) {
    const size_t offset = bytes.size() - rest.size();
    Frame frame;
    if (SplitFrame(&rest, UINT32_MAX, &frame) != SplitResult::kFrame) {
      return frames;
    }
    frames.push_back(FrameSpan{offset, frame.kind, frame.payload});
  }
}

void SetU32(std::string* bytes, size_t at, uint32_t value) {
  for (int i = 0; i < 4 && at + i < bytes->size(); i++) {
    (*bytes)[at + i] = static_cast<char>(value >> (8 * i));
  }
}

// One byte-level mutation anywhere in `*s`; `donor` supplies splices.
void MutateBytes(std::string* s, std::string_view donor, Rng& rng) {
  const size_t pos = s->empty() ? 0 : rng.NextBelow(s->size());
  switch (rng.NextBelow(6)) {
    case 0:  // Bit flip.
      if (!s->empty()) {
        (*s)[pos] ^= static_cast<char>(1u << rng.NextBelow(8));
      }
      break;
    case 1: {  // Byte set, biased to boundary values.
      static constexpr uint8_t kInteresting[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
      if (!s->empty()) {
        (*s)[pos] = static_cast<char>(rng.NextBool(0.5)
                                          ? kInteresting[rng.NextBelow(sizeof(kInteresting))]
                                          : rng.NextBelow(256));
      }
      break;
    }
    case 2: {  // Splice a donor range over or into the input.
      const size_t from = rng.NextBelow(donor.size() + 1);
      const size_t len = rng.NextBelow(donor.size() - from + 1);
      const std::string piece(donor.substr(from, len));
      if (rng.NextBool(0.5)) {
        s->insert(pos, piece);
      } else {
        s->replace(pos, std::min(len, s->size() - pos), piece);
      }
      break;
    }
    case 3:  // Truncation.
      s->resize(pos);
      break;
    case 4: {  // Insertion of random bytes.
      std::string noise(1 + rng.NextBelow(16), '\0');
      for (char& c : noise) {
        c = static_cast<char>(rng.NextBelow(256));
      }
      s->insert(pos, noise);
      break;
    }
    default: {  // Varint inflation: an overlong or a huge varint.
      if (rng.NextBool(0.5) && !s->empty() && (static_cast<uint8_t>((*s)[pos]) & 0x80) == 0) {
        const char low = (*s)[pos];
        (*s)[pos] = static_cast<char>(low | 0x80);
        s->insert(pos + 1, std::string(rng.NextBelow(8), '\x80') + '\0');
      } else {
        std::string huge;
        PutVarint(&huge, rng.NextBool(0.5) ? ~uint64_t{0} : uint64_t{1} << rng.NextBelow(64));
        s->replace(pos, std::min<size_t>(1, s->size() - pos), huge);
      }
      break;
    }
  }
}

// Mutates a copy of `clean` in one to three rounds. For framed formats most
// rounds aim at one intact frame: half of those mutate its payload and
// rebuild the frame with a fresh CRC, so the damage reaches the payload
// decoders; the rest inflate its length field or damage its payload under
// the stale CRC.
std::string Mutate(const std::string& clean, bool framed, uint32_t cap, Rng& rng) {
  std::string out = clean;
  const uint64_t rounds = 1 + rng.NextBelow(3);
  for (uint64_t round = 0; round < rounds; round++) {
    const std::vector<FrameSpan> frames = framed ? Frames(out) : std::vector<FrameSpan>{};
    if (frames.empty() || rng.NextBool(0.25)) {
      MutateBytes(&out, clean, rng);
      continue;
    }
    const FrameSpan& frame = frames[rng.NextBelow(frames.size())];
    const size_t end = frame.offset + kFrameHeaderSize + frame.payload.size();
    if (rng.NextBool(0.5)) {
      std::string payload(frame.payload);
      MutateBytes(&payload, clean, rng);
      std::string rebuilt;
      AppendFrame(&rebuilt, frame.kind, payload);
      out.replace(frame.offset, end - frame.offset, rebuilt);
    } else if (rng.NextBool(0.5)) {
      static constexpr uint32_t kLengths[] = {0, 1, UINT32_MAX, 1u << 31};
      const uint32_t length =
          rng.NextBool(0.5) ? kLengths[rng.NextBelow(4)]
                            : static_cast<uint32_t>(frame.payload.size() + rng.NextBelow(4096)) +
                                  (rng.NextBool(0.5) ? cap : 0);
      SetU32(&out, frame.offset + 1, length);
    } else if (!frame.payload.empty()) {
      // Payload damage under a stale CRC.
      out[frame.offset + kFrameHeaderSize + rng.NextBelow(frame.payload.size())] ^= 0x10;
    }
  }
  return out;
}

// Random chunk sizes covering `n` bytes: mostly small, some large.
std::vector<size_t> Chunks(size_t n, Rng& rng) {
  std::vector<size_t> chunks;
  while (n > 0) {
    const size_t size =
        std::min<size_t>(n, rng.NextBool(0.8) ? 1 + rng.NextBelow(24) : 1 + rng.NextBelow(n));
    chunks.push_back(size);
    n -= size;
  }
  return chunks;
}

// Feeds `bytes` through a FrameReader of `format` with a tight random cap,
// checking the buffer bound after every Feed.
void CheckBufferBound(FrameFormat format, std::string_view bytes, Rng& rng) {
  format.max_payload = static_cast<uint32_t>(16 + rng.NextBelow(512));
  FrameReader reader(format);
  size_t at = 0;
  for (const size_t chunk : Chunks(bytes.size(), rng)) {
    reader.Feed(bytes.substr(at, chunk));
    at += chunk;
    EXPECT_LE(reader.buffered(), format.max_payload + kFrameHeaderSize + chunk);
    Frame frame;
    FrameReader::Status status;
    do {
      status = reader.Next(&frame);
    } while (status == FrameReader::Status::kFrame || status == FrameReader::Status::kBadCrc);
  }
}

// --- Targets -----------------------------------------------------------------

void CheckRtrc(const std::string& bytes, Rng& rng) {
  const Profile profile = CorpusProfile();
  std::vector<Diagnostic> parse_diags;
  const Trace parsed = Trace::ParseBinary(bytes, &parse_diags);
  EXPECT_LE(parsed.size(), bytes.size());
  EXPECT_LE(parsed.pool().size(), bytes.size() + 1);

  uint64_t hash = 0;
  size_t events = 0;
  std::vector<Diagnostic> blob_diags;
  const bool ok = CanonicalBlobHash(bytes, &hash, &blob_diags, &events);
  EXPECT_EQ(events, parsed.size());
  if (ok) {
    EXPECT_EQ(hash, CanonicalTraceHash(parsed));
  }
  // Admission's checks, on whatever decoded.
  TraceValidateOptions validate;
  validate.profile = &profile;
  TraceValidator(validate).Validate(parsed);
  const CausalGraph causal(parsed, CausalOptions{/*vector_clocks=*/false});
  EXPECT_LE(causal.size(), bytes.size());
  ExtractFaults(parsed, profile);

  StreamDecoder stream;
  size_t streamed = 0;
  size_t at = 0;
  for (const size_t chunk : Chunks(bytes.size(), rng)) {
    stream.Feed(std::string_view(bytes).substr(at, chunk));
    at += chunk;
    EXPECT_LE(stream.buffered(), kRtrcFormat.max_payload + kFrameHeaderSize + chunk);
    for (StreamDecoder::Item item = stream.Next(); item != StreamDecoder::Item::kNeedMore &&
                                                   item != StreamDecoder::Item::kBadStream;
         item = stream.Next()) {
      if (item == StreamDecoder::Item::kEvents) {
        streamed += stream.events().size();
      }
    }
  }
  EXPECT_LE(streamed, bytes.size());
  EXPECT_LE(stream.pool().size(), bytes.size() + 1);
  CheckBufferBound(kRtrcFormat, bytes, rng);
}

// Runs every RSRV payload decoder over `payload`.
void DecodeEveryRsrvPayload(std::string_view payload) {
  SubmitEnvelope env;
  if (DecodeSubmitEnvelope(std::string(payload), &env)) {
    uint64_t hash = 0;
    size_t events = 0;
    CanonicalBlobHash(env.trace_blob(), &hash, nullptr, &events);
    EXPECT_LE(events, payload.size());
    EXPECT_LE(Trace::ParseBinary(env.trace_blob()).size(), payload.size());
  }
  Profile profile;
  ParseProfile(payload, &profile);
  AcceptedMsg accepted;
  DecodeAccepted(payload, &accepted);
  StreamOpenMsg open;
  DecodeStreamOpen(payload, &open);
  uint64_t job_id = 0;
  std::string_view chunk;
  DecodeStreamData(payload, &job_id, &chunk);
  StreamCloseMsg close;
  DecodeStreamClose(payload, &close);
  ThrottleMsg throttle;
  DecodeThrottle(payload, &throttle);
  ProgressMsg progress;
  if (DecodeProgress(payload, &progress)) {
    progress.ToString();
  }
  ResultMsg result;
  DecodeResult(payload, &result);
  ErrorMsg error;
  DecodeError(payload, &error);
  StatsMsg stats;
  if (DecodeStats(payload, &stats)) {
    stats.ToString();
  }
}

void CheckRsrv(const std::string& bytes, Rng& rng) {
  FrameDecoder decoder;
  size_t at = 0;
  for (const size_t chunk : Chunks(bytes.size(), rng)) {
    decoder.Feed(std::string_view(bytes).substr(at, chunk));
    at += chunk;
    EXPECT_LE(decoder.buffered(), kServeFormat.max_payload + kFrameHeaderSize + chunk);
    DecodedFrame frame;
    for (FrameDecoder::Status status = decoder.Next(&frame);
         status == FrameDecoder::Status::kFrame || status == FrameDecoder::Status::kCorruptFrame;
         status = decoder.Next(&frame)) {
      if (status == FrameDecoder::Status::kFrame) {
        DecodeEveryRsrvPayload(frame.payload);
      }
    }
  }
  CheckBufferBound(kServeFormat, bytes, rng);
}

// Replays the bytes as a journal file, appends once, and replays again: the
// recovered prefix plus the append must read back whole.
void CheckRjnl(const std::string& bytes, const std::string& path) {
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
  }
  uint64_t replayed = 0;
  {
    ClusterJournal journal(path);
    EXPECT_LE(journal.replayed_records(), bytes.size());
    EXPECT_LE(journal.pending().size(), bytes.size());
    replayed = journal.replayed_records();
    journal.AppendComplete(CompleteRecord{1, true});
  }
  ClusterJournal again(path);
  EXPECT_EQ(again.replayed_records(), replayed + 1);
  EXPECT_FALSE(again.recovered_torn_tail());
}

// Whatever parses must print (ToYaml) to text that parses back to the same
// text: the printer copes with every value the parser lets through.
void CheckYaml(const std::string& text) {
  FaultSchedule schedule;
  if (!FaultSchedule::FromYaml(text, &schedule)) {
    return;
  }
  const std::string printed = schedule.ToYaml();
  FaultSchedule reparsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(printed, &reparsed)) << printed;
  EXPECT_EQ(reparsed.ToYaml(), printed);
}

// The same round trip for the profile text a kSubmit carries.
void CheckProfile(const std::string& text) {
  Profile profile;
  if (!ParseProfile(text, &profile)) {
    return;
  }
  const std::string printed = SerializeProfile(profile);
  Profile reparsed;
  ASSERT_TRUE(ParseProfile(printed, &reparsed)) << printed;
  EXPECT_EQ(SerializeProfile(reparsed), printed);
}

// --- Cases -------------------------------------------------------------------

// Runs `cases` mutations of `clean` through `check`, reporting any
// exception with the seed and case that raised it.
template <typename Check>
void RunCases(const std::string& clean, bool framed, uint32_t cap, uint64_t seed, int cases,
              Check check) {
  Rng rng(seed);
  for (int i = 0; i < cases && !testing::Test::HasFailure(); i++) {
    const std::string bytes = Mutate(clean, framed, cap, rng);
    SCOPED_TRACE(testing::Message() << "seed " << seed << " case " << i);
    try {
      check(bytes, rng);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what();
    } catch (...) {
      ADD_FAILURE() << "threw a non-standard exception";
    }
  }
}

TEST(WireFuzzTest, RtrcReadersSurviveMutations) {
  // The written form (version 1) and a version-2 dump with stamped SCFs.
  for (const std::string& clean : {RtrcCorpus(), FromHex(kStampedV2DumpHex)}) {
    for (uint64_t seed = 1; seed <= 3; seed++) {
      RunCases(clean, /*framed=*/true, kRtrcFormat.max_payload, seed, 3000, CheckRtrc);
    }
  }
}

TEST(WireFuzzTest, RsrvReaderAndPayloadDecodersSurviveMutations) {
  const std::string clean = RsrvCorpus();
  for (uint64_t seed = 1; seed <= 3; seed++) {
    RunCases(clean, /*framed=*/true, kServeFormat.max_payload, seed, 3000, CheckRsrv);
  }
}

TEST(WireFuzzTest, JournalReplaySurvivesMutationsAndKeepsAppending) {
  const std::string clean = RjnlCorpus();
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "wire_fuzz_journal.rjnl").string();
  for (uint64_t seed = 1; seed <= 2; seed++) {
    RunCases(clean, /*framed=*/true, kJournalFormat.max_payload, seed, 500,
             [&path](const std::string& bytes, Rng&) { CheckRjnl(bytes, path); });
  }
  std::remove(path.c_str());
}

TEST(WireFuzzTest, ScheduleYamlParserSurvivesMutations) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    RunCases(kYamlCorpus, /*framed=*/false, 0, seed, 5000,
             [](const std::string& text, Rng&) { CheckYaml(text); });
  }
}

TEST(WireFuzzTest, ProfileTextRoundTripsUnderMutations) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    RunCases(kProfileCorpus, /*framed=*/false, 0, seed, 5000,
             [](const std::string& text, Rng&) { CheckProfile(text); });
  }
}

// The frames (kind, payload) the shared reader yields for `bytes`, fed at
// random chunk boundaries, plus the number of CRC failures it skipped.
std::pair<std::vector<std::pair<uint8_t, std::string>>, int> ReadFrames(
    const FrameFormat& format, std::string_view bytes, Rng& rng) {
  std::vector<std::pair<uint8_t, std::string>> frames;
  int bad_crc = 0;
  FrameReader reader(format);
  size_t at = 0;
  for (const size_t chunk : Chunks(bytes.size(), rng)) {
    reader.Feed(bytes.substr(at, chunk));
    at += chunk;
    Frame frame;
    for (FrameReader::Status status = reader.Next(&frame);
         status == FrameReader::Status::kFrame || status == FrameReader::Status::kBadCrc;
         status = reader.Next(&frame)) {
      if (status == FrameReader::Status::kFrame) {
        frames.emplace_back(frame.kind, std::string(frame.payload));
      } else {
        bad_crc++;
      }
    }
  }
  return {frames, bad_crc};
}

// A payload byte damaged under a stale CRC costs exactly its own frame in
// the incremental readers; the dump reader stops there and keeps every
// event before it.
TEST(WireFuzzTest, StaleCrcCostsExactlyThatFrame) {
  Rng rng(9);
  const std::pair<FrameFormat, std::string> inputs[] = {
      {kRtrcFormat, RtrcCorpus()}, {kServeFormat, RsrvCorpus()}, {kJournalFormat, RjnlCorpus()}};
  for (const auto& [format, clean] : inputs) {
    const auto [clean_frames, clean_bad] = ReadFrames(format, clean, rng);
    ASSERT_EQ(clean_bad, 0);
    const std::vector<FrameSpan> spans = Frames(clean);
    ASSERT_EQ(spans.size(), clean_frames.size());
    for (size_t k = 0; k < spans.size(); k++) {
      if (spans[k].payload.empty()) {
        continue;
      }
      std::string damaged = clean;
      damaged[spans[k].offset + kFrameHeaderSize + rng.NextBelow(spans[k].payload.size())] ^=
          static_cast<char>(1u << rng.NextBelow(8));
      const auto [frames, bad] = ReadFrames(format, damaged, rng);
      EXPECT_EQ(bad, 1) << "frame " << k;
      auto expected = clean_frames;
      expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(k));
      EXPECT_EQ(frames, expected) << "frame " << k;

      if (std::string_view(format.magic, 4) == std::string_view(kRtrcFormat.magic, 4)) {
        // (Past the end frame — the trailing oracle mark — the damage is
        // only a trailing-bytes warning.)
        std::vector<Diagnostic> diags;
        const Trace prefix = Trace::ParseBinary(damaged, &diags);
        const Trace whole = Trace::ParseBinary(clean);
        ASSERT_FALSE(diags.empty());
        for (const Diagnostic& diag : diags) {
          if (diag.severity == Severity::kError) {
            EXPECT_EQ(diag.code, DiagCode::kCorruptTraceFrame) << "frame " << k;
          }
        }
        ASSERT_LE(prefix.size(), whole.size());
        for (size_t i = 0; i < prefix.size(); i++) {
          EXPECT_EQ(prefix[i].ToLine(prefix.pool()), whole[i].ToLine(whole.pool()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace rose
