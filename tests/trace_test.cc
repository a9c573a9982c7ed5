#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/analyze/diagnostic.h"
#include "src/common/rng.h"
#include "src/trace/event.h"
#include "src/trace/ring_buffer.h"

namespace rose {
namespace {

// Builds an SCF event whose filename is interned in `pool`.
TraceEvent MakeScf(StringPool* pool, SimTime ts, NodeId node, Sys sys,
                   const std::string& file, Err err) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kSCF;
  event.info = ScfInfo{100, sys, 3, pool->Intern(file), err};
  return event;
}

TraceEvent MakeAf(SimTime ts, NodeId node, Pid pid, int32_t fid) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kAF;
  event.info = AfInfo{pid, fid};
  return event;
}

TEST(StringPoolTest, InternsDedupedIdsAndResolvesViews) {
  StringPool pool;
  EXPECT_EQ(pool.size(), 1u);  // The implicit empty string.
  EXPECT_EQ(pool.Intern(""), kEmptyStrId);
  const StrId a = pool.Intern("/data/a");
  const StrId b = pool.Intern("/data/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("/data/a"), a);  // Deduped.
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.View(a), "/data/a");
  EXPECT_EQ(pool.View(b), "/data/b");
  EXPECT_EQ(pool.View(kEmptyStrId), "");
  EXPECT_EQ(pool.View(999), "");  // Out of range resolves empty, never UB.
  EXPECT_EQ(pool.payload_bytes(), 14u);
}

TEST(StringPoolTest, CopiedPoolResolvesIndependently) {
  StringPool pool;
  const StrId a = pool.Intern("alpha");
  StringPool copy = pool;
  const StrId b = pool.Intern("beta");  // Grows only the original.
  EXPECT_EQ(copy.View(a), "alpha");
  EXPECT_EQ(copy.View(b), "");
  EXPECT_EQ(copy.Intern("beta"), b);  // Same id order from the same history.
}

// The one-event-per-line listing is display-only, but the canonical trace
// hashes are defined over it, so each kind's line is pinned here; the event
// itself round-trips through RTRC, the one trace decoder.
Trace RoundTrip(const Trace& trace) {
  std::vector<Diagnostic> diags;
  Trace parsed = Trace::ParseBinary(trace.SerializeBinary(), &diags);
  EXPECT_TRUE(diags.empty());
  return parsed;
}

TEST(TraceEventTest, ScfLineRoundTrip) {
  Trace trace;
  trace.Append(MakeScf(&trace.pool(), 12345, 2, Sys::kOpenAt, "/data/x", Err::kEIO));
  EXPECT_EQ(trace[0].ToLine(trace.pool()),
            "12345 SCF node=2 pid=100 sys=openat fd=3 file=/data/x errno=EIO");
  const Trace parsed = RoundTrip(trace);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].ts, 12345);
  EXPECT_EQ(parsed[0].node, 2);
  EXPECT_EQ(parsed[0].type, EventType::kSCF);
  EXPECT_EQ(parsed[0].scf().sys, Sys::kOpenAt);
  EXPECT_EQ(parsed.str(parsed[0].scf().filename), "/data/x");
  EXPECT_EQ(parsed[0].scf().err, Err::kEIO);
  EXPECT_EQ(parsed[0].ToLine(parsed.pool()), trace[0].ToLine(trace.pool()));
}

TEST(TraceEventTest, ScfEmptyFilenameRoundTrip) {
  Trace trace;
  trace.Append(MakeScf(&trace.pool(), 7, 0, Sys::kRead, "", Err::kEBADF));
  EXPECT_EQ(trace[0].ToLine(trace.pool()),
            "7 SCF node=0 pid=100 sys=read fd=3 file=- errno=EBADF");
  const Trace parsed = RoundTrip(trace);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].scf().filename, kEmptyStrId);
}

TEST(TraceEventTest, AfLineRoundTrip) {
  Trace trace;
  trace.Append(MakeAf(99, 1, 200, 17));
  EXPECT_EQ(trace[0].ToLine(trace.pool()), "99 AF node=1 pid=200 fid=17");
  const Trace parsed = RoundTrip(trace);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, EventType::kAF);
  EXPECT_EQ(parsed[0].af().pid, 200);
  EXPECT_EQ(parsed[0].af().function_id, 17);
}

TEST(TraceEventTest, NdLineRoundTrip) {
  Trace trace;
  TraceEvent event;
  event.ts = 5000;
  event.node = 3;
  event.type = EventType::kND;
  event.info = NdInfo{trace.Intern("10.0.0.1"), trace.Intern("10.0.0.2"), Seconds(7), 123};
  trace.Append(event);
  EXPECT_EQ(trace[0].ToLine(trace.pool()),
            "5000 ND node=3 src=10.0.0.1 dst=10.0.0.2 dur=7000000000 pkts=123");
  const Trace parsed = RoundTrip(trace);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.str(parsed[0].nd().src_ip), "10.0.0.1");
  EXPECT_EQ(parsed.str(parsed[0].nd().dst_ip), "10.0.0.2");
  EXPECT_EQ(parsed[0].nd().duration, Seconds(7));
  EXPECT_EQ(parsed[0].nd().packet_count, 123u);
}

TEST(TraceEventTest, PsLineRoundTrip) {
  Trace trace;
  TraceEvent event;
  event.ts = 1;
  event.node = 0;
  event.type = EventType::kPS;
  event.info = PsInfo{150, ProcState::kPaused, Seconds(4)};
  trace.Append(event);
  EXPECT_EQ(trace[0].ToLine(trace.pool()), "1 PS node=0 pid=150 state=paused dur=4000000000");
  const Trace parsed = RoundTrip(trace);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].ps().state, ProcState::kPaused);
  EXPECT_EQ(parsed[0].ps().duration, Seconds(4));
}

TEST(TraceTest, SerializeParseRoundTrip) {
  Trace trace;
  trace.Append(MakeScf(&trace.pool(), 10, 0, Sys::kWrite, "/a", Err::kENOSPC));
  trace.Append(MakeAf(20, 1, 101, 5));
  const Trace parsed = RoundTrip(trace);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, EventType::kSCF);
  EXPECT_EQ(parsed.str(parsed[0].scf().filename), "/a");
  EXPECT_EQ(parsed[1].type, EventType::kAF);
  EXPECT_TRUE(TraceEquals(trace, parsed));
  EXPECT_EQ(parsed.Serialize(), trace.Serialize());
}

TEST(TraceTest, MergeSortsByTimestampStably) {
  Trace a;
  a.Append(MakeAf(10, 0, 1, 1));
  a.Append(MakeAf(30, 0, 1, 3));
  Trace b;
  b.Append(MakeAf(20, 1, 2, 2));
  b.Append(MakeAf(30, 1, 2, 4));  // Tie with a's event at 30.
  const Trace merged = Trace::Merge({a, b});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].af().function_id, 1);
  EXPECT_EQ(merged[1].af().function_id, 2);
  EXPECT_EQ(merged[2].af().function_id, 3);  // First trace wins ties.
  EXPECT_EQ(merged[3].af().function_id, 4);
}

// Merge must equal the reference (concatenate in argument order, then
// stable_sort by timestamp): for equal timestamps, events from earlier traces
// precede events from later ones, and same-trace order is preserved.
TEST(TraceTest, MergeMatchesStableSortReferenceOnRandomizedInputs) {
  Rng rng(0xfeedbeef);
  for (int round = 0; round < 50; round++) {
    const int num_traces = 1 + static_cast<int>(rng.NextBelow(5));
    std::vector<Trace> inputs(num_traces);
    std::vector<TraceEvent> reference;
    int32_t next_id = 0;
    for (int t = 0; t < num_traces; t++) {
      const int events = static_cast<int>(rng.NextBelow(8));
      SimTime ts = 0;
      for (int e = 0; e < events; e++) {
        // Small increments force plenty of duplicate timestamps both within
        // a trace and across traces.
        ts += static_cast<SimTime>(rng.NextBelow(3));
        inputs[t].Append(MakeAf(ts, static_cast<NodeId>(t), 1, next_id++));
      }
      for (const TraceEvent& event : inputs[t].events()) {
        reference.push_back(event);
      }
    }
    std::stable_sort(reference.begin(), reference.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
    const Trace merged = Trace::Merge(inputs);
    ASSERT_EQ(merged.size(), reference.size());
    for (size_t i = 0; i < reference.size(); i++) {
      EXPECT_EQ(merged[i].ts, reference[i].ts) << "round " << round << " index " << i;
      EXPECT_EQ(merged[i].af().function_id, reference[i].af().function_id)
          << "round " << round << " index " << i;
    }
  }
}

TEST(TraceTest, MergeHandlesUnsortedInputs) {
  // An out-of-order input: the result must still be globally sorted with
  // ties resolved by trace order.
  Trace a;
  a.Append(MakeAf(30, 0, 1, 1));
  a.Append(MakeAf(10, 0, 1, 2));  // Out of order.
  Trace b;
  b.Append(MakeAf(10, 1, 2, 3));
  b.Append(MakeAf(20, 1, 2, 4));
  const Trace merged = Trace::Merge({a, b});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].af().function_id, 2);  // ts=10, trace a before trace b.
  EXPECT_EQ(merged[1].af().function_id, 3);
  EXPECT_EQ(merged[2].af().function_id, 4);
  EXPECT_EQ(merged[3].af().function_id, 1);
}

TEST(TraceTest, MergeOfEmptyAndSingletonInputs) {
  EXPECT_EQ(Trace::Merge({}).size(), 0u);
  Trace only;
  only.Append(MakeAf(5, 0, 1, 7));
  const Trace merged = Trace::Merge({Trace{}, only, Trace{}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].af().function_id, 7);
}

TEST(TraceTest, FunctionsBeforeIsInclusiveMostRecentFirst) {
  Trace trace;
  trace.Append(MakeAf(10, 0, 1, 100));
  trace.Append(MakeAf(20, 0, 1, 200));
  trace.Append(MakeAf(20, 1, 2, 999));  // Other node: excluded.
  trace.Append(MakeAf(30, 0, 1, 300));  // Exactly at the fault time: included.
  trace.Append(MakeAf(40, 0, 1, 400));  // After: excluded.
  const auto functions = trace.FunctionsBefore(0, 30);
  ASSERT_EQ(functions.size(), 3u);
  EXPECT_EQ(functions[0].function_id, 300);
  EXPECT_EQ(functions[1].function_id, 200);
  EXPECT_EQ(functions[2].function_id, 100);
}

TEST(TraceTest, OfTypeFilters) {
  Trace trace;
  trace.Append(MakeScf(&trace.pool(), 1, 0, Sys::kRead, "", Err::kEIO));
  trace.Append(MakeAf(2, 0, 1, 1));
  trace.Append(MakeScf(&trace.pool(), 3, 0, Sys::kWrite, "", Err::kEIO));
  EXPECT_EQ(trace.OfType(EventType::kSCF).size(), 2u);
  EXPECT_EQ(trace.OfType(EventType::kAF).size(), 1u);
  EXPECT_EQ(trace.OfType(EventType::kPS).size(), 0u);
}

TEST(RingBufferTest, KeepsMostRecentWhenFull) {
  RingBuffer<int> ring(3);
  for (int i = 1; i <= 5; i++) {
    ring.Push(i);
  }
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.overwritten(), 2u);
}

TEST(RingBufferTest, SnapshotBelowCapacityPreservesOrder) {
  RingBuffer<int> ring(10);
  ring.Push(7);
  ring.Push(8);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{7, 8}));
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> ring(2);
  ring.Push(1);
  ring.Push(2);
  ring.Push(3);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
  ring.Push(9);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{9}));
}

// Property: the ring buffer always equals the suffix of a reference vector.
class RingBufferProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RingBufferProperty, MatchesReferenceSuffix) {
  Rng rng(GetParam());
  const size_t capacity = rng.NextBelow(16) + 1;
  RingBuffer<uint64_t> ring(capacity);
  std::vector<uint64_t> reference;
  const int ops = 200;
  for (int i = 0; i < ops; i++) {
    const uint64_t value = rng.Next();
    ring.Push(value);
    reference.push_back(value);
  }
  const size_t expect = std::min(capacity, reference.size());
  const std::vector<uint64_t> tail(reference.end() - static_cast<long>(expect),
                                   reference.end());
  EXPECT_EQ(ring.Snapshot(), tail);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingBufferProperty, ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace rose
