// Tests for rose::stream — the streaming frame grammar (epoch / oracle-mark
// frames, incremental StreamDecoder), the server-side ingestion plane
// (sliding window, drop accounting), the tracer-side StreamSink
// (throttle honoring, oracle force-flush), and the end-to-end property the
// whole subsystem exists for: a streamed window diagnoses byte-identically
// to the equivalent dump-file submission, directly and through the cluster
// router.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/router.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/harness/runner.h"
#include "src/net/network.h"
#include "src/net/transport.h"
#include "src/os/kernel.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/serve/stream_ingestor.h"
#include "src/serve/stream_sink.h"
#include "src/trace/trace_io.h"
#include "src/trace/tracer.h"

namespace rose {
namespace {

// --- Frame codecs -----------------------------------------------------------

TEST(StreamFrameTest, EpochAndOracleMarkRoundTrip) {
  StreamEpoch epoch;
  epoch.epoch = 7;
  epoch.start_ts = Millis(1500);
  epoch.source = "zk-2247/tracer";
  StreamEpoch epoch_out;
  ASSERT_TRUE(DecodeStreamEpoch(EncodeStreamEpoch(epoch), &epoch_out));
  EXPECT_EQ(epoch_out.epoch, 7u);
  EXPECT_EQ(epoch_out.start_ts, Millis(1500));
  EXPECT_EQ(epoch_out.source, "zk-2247/tracer");

  OracleMark mark;
  mark.ts = Seconds(12);
  mark.detail = "watchdog: leader unreachable";
  OracleMark mark_out;
  ASSERT_TRUE(DecodeOracleMark(EncodeOracleMark(mark), &mark_out));
  EXPECT_EQ(mark_out.ts, Seconds(12));
  EXPECT_EQ(mark_out.detail, "watchdog: leader unreachable");
}

TEST(StreamFrameTest, TruncatedPayloadsAreRejected) {
  StreamEpoch epoch;
  epoch.epoch = 3;
  epoch.start_ts = Seconds(2);
  epoch.source = "node-1/tracer";
  const std::string epoch_payload = EncodeStreamEpoch(epoch);
  for (size_t len = 0; len < epoch_payload.size(); len++) {
    StreamEpoch out;
    EXPECT_FALSE(DecodeStreamEpoch(epoch_payload.substr(0, len), &out)) << len;
  }

  OracleMark mark;
  mark.ts = Seconds(4);
  mark.detail = "oracle";
  const std::string mark_payload = EncodeOracleMark(mark);
  for (size_t len = 0; len < mark_payload.size(); len++) {
    OracleMark out;
    EXPECT_FALSE(DecodeOracleMark(mark_payload.substr(0, len), &out)) << len;
  }
}

// --- A small real trace for decoder/sink tests ------------------------------

// Drives a raw tracer over the simulated kernel, tracer_test style. The
// resulting window is tiny (a handful of failed syscalls) which keeps the
// every-prefix decoder sweep cheap.
class StreamTracerTest : public ::testing::Test {
 protected:
  StreamTracerTest() : kernel_(&loop_), network_(&loop_, 1) {
    kernel_.RegisterNode(0, "10.0.0.1");
    pid_ = kernel_.Spawn(0, "main");
  }

  // Three recordable failures, including an fd-based one whose pathname must
  // resolve identically at ship time and at dump time.
  void RecordSomeFailures() {
    kernel_.Open(pid_, "/missing", {});      // ENOENT.
    kernel_.Stat(pid_, "/also-missing");     // ENOENT.
    SimKernel::OpenFlags ro;
    ro.readonly = true;
    SimKernel::OpenFlags rw;
    rw.create = true;
    rw.readonly = false;
    const SyscallResult fd = kernel_.Open(pid_, "/data/journal", rw);
    kernel_.Close(pid_, static_cast<int32_t>(fd.value));
    const SyscallResult fd2 = kernel_.Open(pid_, "/data/journal", ro);
    kernel_.Write(pid_, static_cast<int32_t>(fd2.value), "x");  // EBADF.
  }

  EventLoop loop_;
  SimKernel kernel_;
  Network network_;
  Pid pid_;
};

// Stream form of a finished window: container header, epoch announcement,
// the trace re-written through TraceWriter (pool + event + end frames), and
// a trailing oracle mark — the shape a sink produces over a session's life.
std::string BuildStream(const Trace& trace, size_t events_per_frame) {
  std::string stream;
  // The writer emits the container header itself; the epoch frame follows it
  // (the writer keeps no offsets, so interleaving frames is fine).
  TraceWriter writer(&stream, &trace.pool(), events_per_frame);
  StreamEpoch epoch;
  epoch.epoch = 3;
  epoch.start_ts = Seconds(2);
  epoch.source = "node-0/tracer";
  AppendRtrcFrame(&stream, kFrameStreamEpoch, EncodeStreamEpoch(epoch));
  for (const TraceEvent& event : trace.events()) {
    writer.Add(event);
  }
  writer.Finish();
  OracleMark mark;
  mark.ts = Seconds(9);
  mark.detail = "watchdog: leader lost";
  AppendRtrcFrame(&stream, kFrameOracleMark, EncodeOracleMark(mark));
  return stream;
}

TEST_F(StreamTracerTest, DecoderYieldsEventsEpochAndOracleFromChunkedFeed) {
  Tracer tracer(&kernel_, &network_, TracerConfig{});
  tracer.Attach();
  RecordSomeFailures();
  const Trace trace = tracer.Dump();
  ASSERT_EQ(trace.size(), 3u);
  // Two events per frame forces multiple pool/event frames on the wire.
  const std::string stream = BuildStream(trace, /*events_per_frame=*/2);

  // Feed one byte at a time — the worst transport chunking possible.
  StreamDecoder decoder;
  size_t events = 0;
  bool saw_epoch = false, saw_oracle = false, saw_end = false;
  for (char byte : stream) {
    decoder.Feed(std::string_view(&byte, 1));
    for (;;) {
      const StreamDecoder::Item item = decoder.Next();
      if (item == StreamDecoder::Item::kNeedMore) {
        break;
      }
      ASSERT_NE(item, StreamDecoder::Item::kBadStream);
      ASSERT_NE(item, StreamDecoder::Item::kCorrupt);
      if (item == StreamDecoder::Item::kEvents) {
        events += decoder.events().size();
      }
      saw_epoch = saw_epoch || item == StreamDecoder::Item::kEpoch;
      saw_oracle = saw_oracle || item == StreamDecoder::Item::kOracleMark;
      saw_end = saw_end || item == StreamDecoder::Item::kEnd;
    }
  }
  EXPECT_EQ(events, trace.size());
  EXPECT_TRUE(saw_epoch);
  EXPECT_EQ(decoder.epoch().epoch, 3u);
  EXPECT_EQ(decoder.epoch().source, "node-0/tracer");
  // The oracle mark arrived *after* the end frame — a live stream keeps
  // going where a dump reader would stop.
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_oracle);
  EXPECT_EQ(decoder.oracle().detail, "watchdog: leader lost");
  EXPECT_EQ(decoder.format_version(), kTraceFormatVersion);
  EXPECT_EQ(decoder.corrupt_frames(), 0u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST_F(StreamTracerTest, EveryPrefixTruncationIsSafeAndNeverKillsTheStream) {
  Tracer tracer(&kernel_, &network_, TracerConfig{});
  tracer.Attach();
  RecordSomeFailures();
  const Trace trace = tracer.Dump();
  const std::string stream = BuildStream(trace, /*events_per_frame=*/2);

  // A stream cut at any byte is just a slow sender: the decoder must report
  // kNeedMore at the cut, never die, never fabricate events.
  for (size_t len = 0; len <= stream.size(); len++) {
    StreamDecoder decoder;
    decoder.Feed(std::string_view(stream).substr(0, len));
    size_t events = 0;
    bool oracle = false;
    for (;;) {
      const StreamDecoder::Item item = decoder.Next();
      if (item == StreamDecoder::Item::kNeedMore) {
        break;
      }
      ASSERT_NE(item, StreamDecoder::Item::kBadStream) << "prefix " << len;
      ASSERT_NE(item, StreamDecoder::Item::kCorrupt) << "prefix " << len;
      if (item == StreamDecoder::Item::kEvents) {
        events += decoder.events().size();
      }
      oracle = oracle || item == StreamDecoder::Item::kOracleMark;
    }
    EXPECT_LE(events, trace.size()) << "prefix " << len;
    // Resuming the feed from the cut recovers the rest, exactly.
    decoder.Feed(std::string_view(stream).substr(len));
    for (;;) {
      const StreamDecoder::Item item = decoder.Next();
      if (item == StreamDecoder::Item::kNeedMore) {
        break;
      }
      ASSERT_NE(item, StreamDecoder::Item::kBadStream) << "prefix " << len;
      if (item == StreamDecoder::Item::kEvents) {
        events += decoder.events().size();
      }
      oracle = oracle || item == StreamDecoder::Item::kOracleMark;
    }
    EXPECT_EQ(events, trace.size()) << "prefix " << len;
    EXPECT_TRUE(oracle) << "prefix " << len;
  }
}

TEST_F(StreamTracerTest, CorruptFrameResyncsAndTheOracleStillArrives) {
  Tracer tracer(&kernel_, &network_, TracerConfig{});
  tracer.Attach();
  RecordSomeFailures();
  const Trace trace = tracer.Dump();

  std::string stream;
  TraceWriter writer(&stream, &trace.pool(), /*events_per_frame=*/2);
  const size_t writer_begin = stream.size();  // Header written; frames follow.
  for (const TraceEvent& event : trace.events()) {
    writer.Add(event);
  }
  writer.Finish();
  OracleMark mark;
  mark.detail = "after damage";
  AppendRtrcFrame(&stream, kFrameOracleMark, EncodeOracleMark(mark));

  // Flip the first payload byte of the leading pool frame: that frame fails
  // its CRC, downstream event frames reference unknown pool ids — every one
  // is consumed by its announced length and skipped, and the decoder stays
  // alive to deliver the oracle mark.
  stream[writer_begin + kFrameHeaderSize] ^= 0x5a;
  StreamDecoder decoder;
  decoder.Feed(stream);
  bool saw_oracle = false;
  for (;;) {
    const StreamDecoder::Item item = decoder.Next();
    if (item == StreamDecoder::Item::kNeedMore) {
      break;
    }
    ASSERT_NE(item, StreamDecoder::Item::kBadStream);
    saw_oracle = saw_oracle || item == StreamDecoder::Item::kOracleMark;
  }
  EXPECT_GE(decoder.corrupt_frames(), 1u);
  EXPECT_TRUE(saw_oracle);
  EXPECT_EQ(decoder.oracle().detail, "after damage");
}

// --- Service-level fixtures (serve_test idiom) -------------------------------

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

std::string OfflineYaml(const std::string& bug_id, uint64_t seed, const Dump& dump) {
  RoseConfig config;
  config.seed = seed;
  return DiagnoseTrace(*FindBug(bug_id), dump.profile, dump.trace, config)
      .schedule.ToYaml();
}

void PumpUntilDone(ServeClient& client, DiagnosisService& service, uint64_t handle) {
  while (!client.done(handle)) {
    client.Poll();
    service.Poll();
  }
}

// An oracle-mark frame in its wire form — what a sink ships when the
// failure fires.
std::string OracleTail(const std::string& detail) {
  OracleMark mark;
  mark.ts = Seconds(30);
  mark.detail = detail;
  std::string tail;
  AppendRtrcFrame(&tail, kFrameOracleMark, EncodeOracleMark(mark));
  return tail;
}

// --- StreamWindow: window and drops ------------------------------------------

TEST(StreamIngestorTest, EvictionWithoutSpillDropsOldestButStreamSurvives) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const size_t window_bytes = 8u << 10;
  StreamWindow window(window_bytes);
  ASSERT_TRUE(window.Feed(blob));
  EXPECT_GT(window.drops(), 0u);
  EXPECT_LE(window.cost(), window_bytes);

  // The session still materializes — the newest events survived, the oldest
  // are gone, and the result is a well-formed container.
  const std::string materialized = window.Materialize();
  const Trace parsed = Trace::ParseBinary(materialized);
  EXPECT_GT(parsed.size(), 0u);
  EXPECT_LT(parsed.size(), dump.trace.size());
}

TEST(StreamIngestorTest, OverflowedWindowMaterializesExactlyTheNewestEvents) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const size_t window_bytes = 8u << 10;  // Below the window's decoded cost.
  StreamWindow window(window_bytes);
  ASSERT_TRUE(window.Feed(blob));
  const uint64_t dropped = window.drops();
  ASSERT_GT(dropped, 0u);
  ASSERT_LT(dropped, dump.trace.size());
  EXPECT_LE(window.cost(), window_bytes);

  ASSERT_TRUE(window.Feed(OracleTail("overflow")));
  ASSERT_TRUE(window.oracle_pending());
  EXPECT_EQ(window.TakeOracle().detail, "overflow");
  EXPECT_FALSE(window.oracle_pending());

  // The window kept the newest events, so it materializes as exactly their
  // canonical dump. The dump is in timestamp order, so its newest events
  // are its tail, and their canonical dump re-interns the tail's strings
  // into a fresh pool in order.
  Trace newest;
  for (size_t i = dropped; i < dump.trace.size(); i++) {
    newest.AppendRemapped(dump.trace[i], dump.trace.pool());
  }
  EXPECT_EQ(window.Materialize(), newest.SerializeBinary());
}

// --- A scriptable fake server (protocol-level client/sink tests) -------------

// Speaks the server half of the serve protocol by hand: collects the
// client's frames, sends whatever the test scripts. This is how the tests
// pin client-side behavior (token dedup, throttle latching) without a real
// service deciding the timeline.
class FakeServer {
 public:
  explicit FakeServer(std::shared_ptr<Transport> end) : end_(end), link_(std::move(end)) {}

  void Send(ServeFrame kind, std::string_view payload) { link_.Send(kind, payload); }
  // Sends `payload` as a `kind` frame with its last payload byte flipped, so
  // it fails its CRC.
  void SendDamaged(ServeFrame kind, std::string_view payload) {
    std::string frame;
    AppendServeFrame(&frame, kind, payload);
    frame.back() ^= 0x5a;
    link_.Flush();
    ASSERT_EQ(end_->Write(frame), frame.size());
  }
  // Accepts the oldest received kSubmit as server job `job_id`, echoing its
  // token as every server does.
  void AcceptSubmit(uint64_t job_id) {
    std::optional<DecodedFrame> submit = TakeFrame(ServeFrame::kSubmit);
    ASSERT_TRUE(submit.has_value());
    SubmitEnvelope env;
    ASSERT_TRUE(DecodeSubmitEnvelope(std::move(submit->payload), &env));
    AcceptedMsg accept;
    accept.job_id = job_id;
    accept.token = env.token();
    Send(ServeFrame::kAccepted, EncodeAccepted(accept));
  }
  // The server process dies: what it queued goes out, then EOF.
  void HangUp() { link_.Close(); }

  // Moves bytes both ways until the wire is quiet.
  void Pump(ServeClient& client) {
    for (int round = 0; round < 64; round++) {
      client.Poll();
      link_.Flush();
      for (;;) {
        DecodedFrame frame;
        const FrameDecoder::Status status = link_.Next(&frame);
        if (status == FrameDecoder::Status::kFrame) {
          frames_.push_back(std::move(frame));
          continue;
        }
        ASSERT_NE(status, FrameDecoder::Status::kBadStream);
        break;
      }
    }
  }

  std::vector<DecodedFrame>& frames() { return frames_; }

  // Pops the oldest received frame of `kind` (skipping nothing — order
  // within a kind is preserved, other kinds stay queued).
  std::optional<DecodedFrame> TakeFrame(ServeFrame kind) {
    for (auto it = frames_.begin(); it != frames_.end(); ++it) {
      if (it->kind == kind) {
        DecodedFrame frame = std::move(*it);
        frames_.erase(it);
        return frame;
      }
    }
    return std::nullopt;
  }

 private:
  std::shared_ptr<Transport> end_;
  ServeConnection link_;
  std::vector<DecodedFrame> frames_;
};

// Regression for the half-closed-transport double submit: when a client
// resends a submit whose original actually registered, the server answers
// twice with the same idempotency token. The duplicate accept must be
// recognized by token and dropped — NOT popped against the FIFO, which
// would shift every later submission's correlation by one and hand job Y
// job X's result.
TEST(ServeClientTest, DuplicateAcceptIsRecognizedByTokenAndDropped) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  auto [client_end, server_end] = MakePipePair();
  ServeClient client(client_end);
  FakeServer server(server_end);

  // Two submissions over the same blob; distinct seeds keep tokens distinct.
  const std::string profile_text = SerializeProfile(dump.profile);
  const uint64_t hx = client.SubmitBlob("RedisRaft-42", 42, "x", profile_text, blob);
  const uint64_t hy = client.SubmitBlob("RedisRaft-42", 31, "y", profile_text, blob);
  server.Pump(client);

  std::optional<DecodedFrame> fx = server.TakeFrame(ServeFrame::kSubmit);
  std::optional<DecodedFrame> fy = server.TakeFrame(ServeFrame::kSubmit);
  ASSERT_TRUE(fx.has_value());
  ASSERT_TRUE(fy.has_value());
  SubmitEnvelope ex, ey;
  ASSERT_TRUE(DecodeSubmitEnvelope(std::move(fx->payload), &ex));
  ASSERT_TRUE(DecodeSubmitEnvelope(std::move(fy->payload), &ey));
  ASSERT_NE(ex.token(), 0u);
  ASSERT_NE(ex.token(), ey.token());

  // Accept X twice (the duplicate a resend would provoke), then Y.
  AcceptedMsg accept;
  accept.job_id = 101;
  accept.token = ex.token();
  server.Send(ServeFrame::kAccepted, EncodeAccepted(accept));
  server.Send(ServeFrame::kAccepted, EncodeAccepted(accept));
  accept.job_id = 102;
  accept.token = ey.token();
  server.Send(ServeFrame::kAccepted, EncodeAccepted(accept));
  server.Pump(client);

  // Results route by server job id: each handle must hold its own result.
  ResultMsg result;
  result.job_id = 101;
  result.reproduced = true;
  result.schedule_yaml = "yaml-x\n";
  server.Send(ServeFrame::kResult, EncodeResult(result));
  result.job_id = 102;
  result.schedule_yaml = "yaml-y\n";
  server.Send(ServeFrame::kResult, EncodeResult(result));
  server.Pump(client);

  ASSERT_TRUE(client.done(hx));
  ASSERT_TRUE(client.done(hy));
  EXPECT_FALSE(client.failed(hx));
  EXPECT_FALSE(client.failed(hy));
  EXPECT_EQ(client.result(hx).schedule_yaml, "yaml-x\n");
  EXPECT_EQ(client.result(hy).schedule_yaml, "yaml-y\n");
}

// A server that hangs up can answer nothing more: every handle it left
// unresolved fails with kConnectionLost instead of spinning `done()` loops
// forever, and what it resolved before the hang-up stands.
TEST(ServeClientTest, HungUpServerFailsUnresolvedHandles) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const std::string profile_text = SerializeProfile(dump.profile);
  auto [client_end, server_end] = MakePipePair();
  ServeClient client(client_end);
  FakeServer server(server_end);

  const uint64_t answered = client.SubmitBlob("RedisRaft-42", 42, "x", profile_text, blob);
  const uint64_t accepted = client.SubmitBlob("RedisRaft-42", 31, "y", profile_text, blob);
  const uint64_t queued = client.SubmitBlob("RedisRaft-42", 7, "z", profile_text, blob);
  const uint64_t stream = client.OpenStream("RedisRaft-42", 42, "s", profile_text);
  server.Pump(client);
  server.AcceptSubmit(101);
  server.AcceptSubmit(102);
  ResultMsg result;
  result.job_id = 101;
  result.reproduced = true;
  result.schedule_yaml = "yaml-x\n";
  server.Send(ServeFrame::kResult, EncodeResult(result));
  server.HangUp();
  server.Pump(client);

  EXPECT_TRUE(client.broken());
  ASSERT_TRUE(client.done(answered));
  EXPECT_FALSE(client.failed(answered));
  EXPECT_EQ(client.result(answered).schedule_yaml, "yaml-x\n");
  for (const uint64_t handle : {accepted, queued, stream}) {
    ASSERT_TRUE(client.done(handle)) << handle;
    EXPECT_EQ(client.error_code(handle), ServeError::kConnectionLost) << handle;
  }
  // A submission after the hang-up fails on the next poll, too.
  const uint64_t late = client.SubmitBlob("RedisRaft-42", 9, "late", profile_text, blob);
  client.Poll();
  EXPECT_EQ(client.error_code(late), ServeError::kConnectionLost);
}

// A server frame that fails its CRC may have been a job's only answer (an
// accept, a rejection or a result), so the client breaks the connection with
// kBadFrame instead of waiting for a frame that will never come; what was
// resolved before it stands.
TEST(ServeClientTest, DamagedServerFrameBreaksTheConnection) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const std::string profile_text = SerializeProfile(dump.profile);
  auto [client_end, server_end] = MakePipePair();
  ServeClient client(client_end);
  FakeServer server(server_end);

  const uint64_t answered = client.SubmitBlob("RedisRaft-42", 42, "x", profile_text, blob);
  const uint64_t damaged = client.SubmitBlob("RedisRaft-42", 31, "y", profile_text, blob);
  server.Pump(client);
  server.AcceptSubmit(101);
  server.AcceptSubmit(102);
  ResultMsg result;
  result.job_id = 101;
  result.reproduced = true;
  result.schedule_yaml = "yaml-x\n";
  server.Send(ServeFrame::kResult, EncodeResult(result));
  result.job_id = 102;
  result.schedule_yaml = "yaml-y\n";
  server.SendDamaged(ServeFrame::kResult, EncodeResult(result));
  for (int poll = 0; poll < 1000 && !client.done(damaged); poll++) {
    client.Poll();
  }

  ASSERT_TRUE(client.done(damaged));
  EXPECT_EQ(client.error_code(damaged), ServeError::kBadFrame);
  EXPECT_TRUE(client.broken());
  ASSERT_TRUE(client.done(answered));
  EXPECT_FALSE(client.failed(answered));
  EXPECT_EQ(client.result(answered).schedule_yaml, "yaml-x\n");
}

// --- StreamSink: throttle honoring, oracle force-flush, dump parity ----------

class StreamSinkTest : public StreamTracerTest {
 protected:
  // Scripts the accept for a sink-opened session under server job id `id`.
  void AcceptStream(FakeServer& server, ServeClient& client, uint64_t id) {
    server.Pump(client);
    std::optional<DecodedFrame> open = server.TakeFrame(ServeFrame::kStreamOpen);
    ASSERT_TRUE(open.has_value());
    StreamOpenMsg msg;
    ASSERT_TRUE(DecodeStreamOpen(open->payload, &msg));
    AcceptedMsg accept;
    accept.job_id = id;
    accept.kind = AcceptKind::kStream;
    accept.token = msg.token;
    server.Send(ServeFrame::kAccepted, EncodeAccepted(accept));
    server.Pump(client);
  }

  // Drains every received kStreamData frame for session `id` into `window`.
  void FeedWindow(FakeServer& server, StreamWindow& window, uint64_t id) {
    for (;;) {
      std::optional<DecodedFrame> data = server.TakeFrame(ServeFrame::kStreamData);
      if (!data.has_value()) {
        return;
      }
      uint64_t job_id = 0;
      std::string_view chunk;
      ASSERT_TRUE(DecodeStreamData(data->payload, &job_id, &chunk));
      ASSERT_EQ(job_id, id);
      ASSERT_TRUE(window.Feed(chunk));
    }
  }
};

TEST_F(StreamSinkTest, ThrottleSuspendsPumpAndOracleForceShips) {
  Tracer tracer(&kernel_, &network_, TracerConfig{});
  tracer.Attach();
  auto [client_end, server_end] = MakePipePair();
  ServeClient client(client_end);
  FakeServer server(server_end);
  StreamSink sink(&tracer, &client);
  sink.Open("RedisRaft-42", 7, "t", "");
  AcceptStream(server, client, /*id=*/9);
  ASSERT_TRUE(client.stream_accepted(sink.handle()));

  kernel_.Open(pid_, "/missing", {});
  sink.Pump();
  server.Pump(client);
  EXPECT_EQ(sink.events_shipped(), 1u);

  // Throttle on: pumped events stay in the tracer's ring.
  ThrottleMsg throttle;
  throttle.job_id = 9;
  throttle.on = true;
  server.Send(ServeFrame::kThrottle, EncodeThrottle(throttle));
  server.Pump(client);
  ASSERT_TRUE(sink.throttled());
  EXPECT_EQ(client.throttle_events(), 1u);
  kernel_.Stat(pid_, "/also-missing");
  sink.Pump();
  server.Pump(client);
  EXPECT_EQ(sink.events_shipped(), 1u);  // Pump was a no-op under throttle.

  // Throttle off: the next pump ships the backlog.
  throttle.on = false;
  server.Send(ServeFrame::kThrottle, EncodeThrottle(throttle));
  server.Pump(client);
  ASSERT_FALSE(sink.throttled());
  sink.Pump();
  server.Pump(client);
  EXPECT_EQ(sink.events_shipped(), 2u);

  // Throttle on again — but the oracle firing overrides it: the remaining
  // delta plus the mark must ship no matter what, or the daemon diagnoses a
  // stale window.
  throttle.on = true;
  server.Send(ServeFrame::kThrottle, EncodeThrottle(throttle));
  server.Pump(client);
  ASSERT_TRUE(sink.throttled());
  kernel_.Open(pid_, "/missing-too", {});
  sink.NotifyOracle(Seconds(1), "forced flush");
  server.Pump(client);
  EXPECT_EQ(sink.events_shipped(), 3u);
  EXPECT_EQ(sink.events_lost(), 0u);

  // The shipped bytes really carry the oracle mark.
  StreamWindow window(ServeConfig{}.stream_window_bytes);
  FeedWindow(server, window, 9);
  ASSERT_TRUE(window.oracle_pending());
  EXPECT_EQ(window.TakeOracle().detail, "forced flush");
}

TEST_F(StreamSinkTest, MaterializedWindowIsByteIdenticalToDump) {
  Tracer tracer(&kernel_, &network_, TracerConfig{});
  tracer.Attach();
  auto [client_end, server_end] = MakePipePair();
  ServeClient client(client_end);
  FakeServer server(server_end);
  StreamSink sink(&tracer, &client);
  sink.Open("RedisRaft-42", 7, "t", "");
  AcceptStream(server, client, /*id=*/5);

  // Record across several pump cycles so the window crosses the wire as
  // multiple pool-delta + event frames, fd resolution included.
  kernel_.Open(pid_, "/missing", {});
  sink.Pump();
  server.Pump(client);
  kernel_.Stat(pid_, "/also-missing");
  sink.Pump();
  server.Pump(client);
  SimKernel::OpenFlags rw;
  rw.create = true;
  rw.readonly = false;
  const SyscallResult fd = kernel_.Open(pid_, "/data/journal", rw);
  kernel_.Close(pid_, static_cast<int32_t>(fd.value));
  SimKernel::OpenFlags ro;
  ro.readonly = true;
  const SyscallResult fd2 = kernel_.Open(pid_, "/data/journal", ro);
  kernel_.Write(pid_, static_cast<int32_t>(fd2.value), "x");
  sink.NotifyOracle(Seconds(2), "oracle");
  server.Pump(client);
  EXPECT_EQ(sink.events_shipped(), 3u);

  StreamWindow window(ServeConfig{}.stream_window_bytes);
  FeedWindow(server, window, 5);
  ASSERT_TRUE(window.oracle_pending());

  // The property streaming rests on, at the sink/window level: the server-side
  // materialization of the streamed window is the byte-identical container a
  // dump of the same window serializes to — same canonical hash, same cache
  // key, same diagnosis.
  EXPECT_EQ(window.Materialize(), tracer.Dump().SerializeBinary());
}

// --- DiagnosisService end to end ---------------------------------------------

TEST(DiagnosisServiceStreamTest, StreamedOracleDiagnosisMatchesDumpSubmitByteForByte) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const std::string profile_text = SerializeProfile(dump.profile);
  DiagnosisService service(ServeConfig{});
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  const uint64_t handle = client.OpenStream("RedisRaft-42", 42, "t", profile_text);
  // Ship the window in transport-sized pieces, then the oracle mark.
  constexpr size_t kChunk = 1024;
  for (size_t off = 0; off < blob.size(); off += kChunk) {
    client.StreamData(handle, std::string_view(blob).substr(off, kChunk));
    client.Poll();
    service.Poll();
  }
  client.StreamData(handle, OracleTail("test oracle"));
  PumpUntilDone(client, service, handle);

  ASSERT_FALSE(client.failed(handle));
  EXPECT_EQ(client.accept_kind(handle), AcceptKind::kStream);
  EXPECT_TRUE(client.result(handle).reproduced);
  EXPECT_EQ(client.result(handle).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));
  EXPECT_EQ(service.stream_sessions(), 1u);

  // The classic dump-file submission of the same window is a cache hit with
  // zero extra engine runs: the streamed materialization produced the
  // byte-identical canonical blob, hence the identical cache key.
  const uint64_t runs = service.stats().engine_runs;
  const uint64_t again =
      client.SubmitBlob("RedisRaft-42", 42, "again", profile_text, blob);
  PumpUntilDone(client, service, again);
  ASSERT_FALSE(client.failed(again));
  EXPECT_EQ(client.accept_kind(again), AcceptKind::kCacheHit);
  EXPECT_EQ(service.stats().engine_runs, runs);
  EXPECT_EQ(client.result(again).schedule_yaml, client.result(handle).schedule_yaml);

  // The session outlives its result (a window can fire several oracles);
  // only the client's close ends it.
  client.CloseStream(handle);
  while (service.stream_sessions() > 0) {
    client.Poll();
    service.Poll();
  }
}

TEST(DiagnosisServiceStreamTest, TinyWindowSurfacesThrottleBackpressure) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  ServeConfig config;
  config.stream_window_bytes = 512;  // Eviction drops, loudly.
  DiagnosisService service(config);
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);

  const uint64_t handle =
      client.OpenStream("RedisRaft-42", 42, "t", SerializeProfile(dump.profile));
  constexpr size_t kChunk = 512;
  for (size_t off = 0; off < blob.size(); off += kChunk) {
    client.StreamData(handle, std::string_view(blob).substr(off, kChunk));
    client.Poll();
    service.Poll();
  }
  // The throttle sent during the final chunk's poll is still in flight;
  // a few more rounds deliver it (and possibly the off-edge that follows
  // once drops stop growing — the on-edge count is the durable signal).
  for (int round = 0; round < 8; round++) {
    client.Poll();
    service.Poll();
  }
  ASSERT_TRUE(client.stream_accepted(handle));
  // Dropping sessions get throttled; memory stays bounded regardless.
  EXPECT_GE(client.throttle_events(), 1u);
  EXPECT_LE(service.stream_resident_bytes(), static_cast<size_t>(config.stream_window_bytes));

  client.CloseStream(handle);
  while (service.stream_sessions() > 0) {
    client.Poll();
    service.Poll();
  }
}

// kThrottle names one session, so it carries that session's own window
// occupancy, not the daemon's total across sessions.
TEST(DiagnosisServiceStreamTest, ThrottleReportsTheSessionsOwnOccupancy) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string profile_text = SerializeProfile(dump.profile);
  ServeConfig config;
  config.stream_window_bytes = 8u << 10;
  DiagnosisService service(config);
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeConnection link(client_end);
  std::vector<DecodedFrame> frames;
  auto pump = [&] {
    for (int round = 0; round < 8; round++) {
      link.Flush();
      service.Poll();
      DecodedFrame frame;
      while (link.Next(&frame) == FrameDecoder::Status::kFrame) {
        frames.push_back(std::move(frame));
      }
    }
  };

  for (const uint64_t token : {1, 2}) {
    link.Send(ServeFrame::kStreamOpen,
              EncodeStreamOpen(StreamOpenMsg{"RedisRaft-42", 42, "t", profile_text, token}));
  }
  pump();
  ASSERT_EQ(frames.size(), 2u);
  AcceptedMsg steady, overflowing;
  ASSERT_TRUE(DecodeAccepted(frames[0].payload, &steady));
  ASSERT_TRUE(DecodeAccepted(frames[1].payload, &overflowing));
  frames.clear();

  // The first session holds the dump's first 100 events, well inside its
  // window; the second is fed the whole dump and overflows.
  Trace head;
  for (size_t i = 0; i < 100; i++) {
    head.AppendRemapped(dump.trace[i], dump.trace.pool());
  }
  link.Send(ServeFrame::kStreamData, EncodeStreamData(steady.job_id, head.SerializeBinary()));
  pump();
  ASSERT_TRUE(frames.empty());  // Nothing dropped, nothing throttled.
  link.Send(ServeFrame::kStreamData,
            EncodeStreamData(overflowing.job_id, dump.trace.SerializeBinary()));
  pump();

  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.front().kind, ServeFrame::kThrottle);
  ThrottleMsg throttle;
  ASSERT_TRUE(DecodeThrottle(frames.front().payload, &throttle));
  EXPECT_EQ(throttle.job_id, overflowing.job_id);
  EXPECT_TRUE(throttle.on);
  EXPECT_LE(throttle.resident_bytes, config.stream_window_bytes);
  EXPECT_GT(service.stream_resident_bytes(), config.stream_window_bytes);
}

// A session's string pool cannot shrink (a later frame may name any earlier
// id), so a sender that keeps naming new strings would grow the session past
// any window. Once the pool alone outgrows the window the session ends: the
// service answers kInvalidTrace under the session id and frees the window.
TEST(DiagnosisServiceStreamTest, SessionWhosePoolOutgrowsItsWindowEnds) {
  ServeConfig config;
  config.stream_window_bytes = 16u << 10;
  DiagnosisService service(config);
  auto [client_end, server_end] = MakePipePair();
  service.Attach(server_end);
  ServeClient client(client_end);
  const uint64_t handle =
      client.OpenStream("RedisRaft-42", 42, "t", SerializeProfile(Profile{}));
  while (!client.stream_accepted(handle)) {
    client.Poll();
    service.Poll();
  }

  // Every event names a file no earlier event named.
  StringPool pool;
  std::string wire;
  TraceWriter writer(&wire, &pool);
  size_t largest = 0;
  int64_t event_no = 0;
  for (int batch = 0; batch < 64 && !client.done(handle); batch++) {
    for (int i = 0; i < 64; i++, event_no++) {
      TraceEvent event;
      event.ts = Seconds(1) + event_no;
      event.node = 0;
      event.type = EventType::kSCF;
      event.info = ScfInfo{100, Sys::kOpen, -1,
                           pool.Intern("/data/segment-" + std::to_string(event_no)), Err::kEIO};
      writer.Add(event);
    }
    writer.Flush();
    largest = std::max(largest, wire.size());
    client.StreamData(handle, wire);
    wire.clear();
    client.Poll();
    service.Poll();
  }
  for (int round = 0; round < 8; round++) {
    client.Poll();
    service.Poll();
  }

  ASSERT_TRUE(client.done(handle));
  EXPECT_EQ(client.error_code(handle), ServeError::kInvalidTrace);
  EXPECT_EQ(service.stream_sessions(), 0u);
  EXPECT_EQ(service.stream_resident_bytes(), 0u);
  EXPECT_LT(service.stream_peak_resident_bytes(), config.stream_window_bytes + largest);
}

// A sender that crashes mid-stream never sends kStreamClose; its EOF ends
// the sessions instead, so their windows are freed.
TEST(DiagnosisServiceStreamTest, HungUpClientsSessionsAreClosed) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const std::string profile_text = SerializeProfile(dump.profile);
  DiagnosisService service(ServeConfig{});
  std::vector<std::shared_ptr<Transport>> ends;
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (int c = 0; c < 3; c++) {
    auto [client_end, server_end] = MakePipePair();
    service.Attach(server_end);
    ends.push_back(client_end);
    clients.push_back(std::make_unique<ServeClient>(client_end));
    const uint64_t handle = clients.back()->OpenStream("RedisRaft-42", 42, "t", profile_text);
    clients.back()->StreamData(handle, std::string_view(blob).substr(0, blob.size() / 2));
  }
  for (int round = 0; round < 8; round++) {
    for (auto& client : clients) {
      client->Poll();
    }
    service.Poll();
  }
  ASSERT_EQ(service.stream_sessions(), 3u);
  ASSERT_GT(service.stream_resident_bytes(), 0u);

  for (auto& end : ends) {
    end->Close();
  }
  service.Poll();
  EXPECT_EQ(service.stream_sessions(), 0u);
  EXPECT_EQ(service.stream_resident_bytes(), 0u);
  EXPECT_TRUE(service.idle());
}

// --- Through the cluster router ----------------------------------------------

TEST(ClusterStreamTest, RoutedStreamMatchesOfflineDiagnosis) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  ClusterRouter router{RouterConfig{}};
  std::vector<std::unique_ptr<DiagnosisService>> shards;
  for (const char* name : {"shard-a", "shard-b"}) {
    auto service = std::make_unique<DiagnosisService>(ServeConfig{});
    auto [router_end, service_end] = MakePipePair();
    service->Attach(service_end);
    router.AttachShard(name, router_end);
    shards.push_back(std::move(service));
  }
  auto [client_end, router_end] = MakePipePair();
  router.AttachClient(router_end);
  ServeClient client(client_end);

  auto pump = [&] {
    client.Poll();
    router.Poll();
    for (auto& shard : shards) {
      shard->Poll();
    }
  };

  const uint64_t handle =
      client.OpenStream("RedisRaft-42", 42, "t", SerializeProfile(dump.profile));
  while (!client.stream_accepted(handle)) {
    pump();
  }
  constexpr size_t kChunk = 1024;
  for (size_t off = 0; off < blob.size(); off += kChunk) {
    client.StreamData(handle, std::string_view(blob).substr(off, kChunk));
    pump();
  }
  client.StreamData(handle, OracleTail("routed oracle"));
  while (!client.done(handle)) {
    pump();
  }
  ASSERT_FALSE(client.failed(handle));
  EXPECT_EQ(client.accept_kind(handle), AcceptKind::kStream);
  EXPECT_TRUE(client.result(handle).reproduced);
  // Byte-identical through router + shard, exactly as direct or offline.
  EXPECT_EQ(client.result(handle).schedule_yaml, OfflineYaml("RedisRaft-42", 42, dump));

  // The close travels client -> router -> shard; the router is idle once it
  // forwarded, the shard once it polled the frame in.
  client.CloseStream(handle);
  while (!router.idle() || shards[0]->stream_sessions() + shards[1]->stream_sessions() > 0) {
    pump();
  }
}

// A client that hangs up without kStreamClose ends its sessions at the
// shard too: the router closes each accepted one, and one whose shard accept
// was still in flight at the hang-up is closed when the accept arrives.
TEST(ClusterStreamTest, HungUpClientsSessionsCloseAtTheShard) {
  const Dump dump = MakeDump("RedisRaft-42", 42);
  const std::string blob = dump.trace.SerializeBinary();
  const std::string profile_text = SerializeProfile(dump.profile);
  ClusterRouter router{RouterConfig{}};
  DiagnosisService shard(ServeConfig{});
  {
    auto [router_end, service_end] = MakePipePair();
    shard.Attach(service_end);
    router.AttachShard("shard0", router_end);
  }
  std::vector<std::shared_ptr<Transport>> ends;
  std::vector<std::unique_ptr<ServeClient>> clients;
  auto connect = [&] {
    auto [client_end, router_end] = MakePipePair();
    router.AttachClient(router_end);
    ends.push_back(client_end);
    clients.push_back(std::make_unique<ServeClient>(client_end));
    return clients.back()->OpenStream("RedisRaft-42", 42, "t", profile_text);
  };
  auto pump = [&] {
    for (auto& client : clients) {
      client->Poll();
    }
    router.Poll();
    shard.Poll();
  };
  for (int c = 0; c < 3; c++) {
    const uint64_t handle = connect();
    while (!clients.back()->stream_accepted(handle)) {
      pump();
    }
    clients.back()->StreamData(handle, std::string_view(blob).substr(0, blob.size() / 2));
  }
  for (int round = 0; round < 4; round++) {
    pump();
  }
  ASSERT_EQ(shard.stream_sessions(), 3u);

  // The fourth client's open reaches the shard, but it hangs up before the
  // router has read the shard's accept.
  connect();
  clients.back()->Poll();
  router.Poll();
  ASSERT_EQ(router.inflight_jobs(), 4u);
  for (auto& end : ends) {
    end->Close();
  }
  router.Poll();
  for (int round = 0; round < 4; round++) {
    shard.Poll();
    router.Poll();
  }
  EXPECT_EQ(router.inflight_jobs(), 0u);
  EXPECT_EQ(shard.stream_sessions(), 0u);
  EXPECT_TRUE(router.idle());
}

}  // namespace
}  // namespace rose
