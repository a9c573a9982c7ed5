// rose::causal tests: vector-clock correctness on hand-built multi-node
// traces, strict-partial-order laws under randomized merges, feasibility
// verdicts, commutativity-class dedup, and the engine-level guarantee that
// causal pruning never changes what a diagnosis concludes — only how much
// work it takes to get there.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/causal/causal_graph.h"
#include "src/causal/feasibility.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/schedule/fault_schedule.h"
#include "src/trace/event.h"

namespace rose {
namespace {

TraceEvent MakeScf(Trace* trace, SimTime ts, NodeId node, Pid pid, Sys sys,
                   const std::string& file, Err err, int32_t fd = -1) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kSCF;
  event.info = ScfInfo{pid, sys, fd, trace->Intern(file), err};
  return event;
}

TraceEvent MakePs(SimTime ts, NodeId node, Pid pid, ProcState state, SimTime duration = 0) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kPS;
  event.info = PsInfo{pid, state, duration};
  return event;
}

TraceEvent MakeNd(Trace* trace, SimTime ts, NodeId node, const std::string& src_ip,
                  const std::string& dst_ip, SimTime duration) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kND;
  event.info = NdInfo{trace->Intern(src_ip), trace->Intern(dst_ip), duration, 7};
  return event;
}

ScheduledFault ScfFault(NodeId node, Sys sys, Err err, const std::string& path) {
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = node;
  fault.syscall.sys = sys;
  fault.syscall.err = err;
  fault.syscall.path_filter = path;
  return fault;
}

TEST(CausalGraphTest, ProgramOrderOrdersOnePidTransitively) {
  Trace trace;
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kOpen, "/a", Err::kEIO));
  trace.Append(MakeScf(&trace, 20, 0, 100, Sys::kRead, "/a", Err::kEIO));
  trace.Append(MakeScf(&trace, 30, 0, 100, Sys::kWrite, "/a", Err::kEIO));
  const CausalGraph graph(trace);
  EXPECT_EQ(graph.size(), 3u);
  EXPECT_EQ(graph.chain_count(), 1u);
  EXPECT_TRUE(graph.HappensBefore(0, 1));
  EXPECT_TRUE(graph.HappensBefore(1, 2));
  EXPECT_TRUE(graph.HappensBefore(0, 2));  // Transitive through the chain.
  EXPECT_FALSE(graph.HappensBefore(1, 0));
  EXPECT_FALSE(graph.HappensBefore(0, 0));  // Strict: irreflexive.
  EXPECT_TRUE(graph.consistent());
}

TEST(CausalGraphTest, CrossNodeEventsAreConcurrentWithoutCommunication) {
  Trace trace;
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kOpen, "/a", Err::kEIO));
  trace.Append(MakeScf(&trace, 20, 1, 101, Sys::kOpen, "/a", Err::kEIO));
  const CausalGraph graph(trace);
  // Timestamps alone never order across nodes: no shared clock, no edge.
  EXPECT_TRUE(graph.Concurrent(0, 1));
  EXPECT_EQ(graph.edges().size(), 0u);
}

TEST(CausalGraphTest, VectorClocksRecordFdOrderMerge) {
  Trace trace;
  // Two pids on one node sharing fd 5: kernel serializes the description.
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kWrite, "/log", Err::kEIO, /*fd=*/5));
  trace.Append(MakeScf(&trace, 20, 0, 101, Sys::kWrite, "/log", Err::kEIO, /*fd=*/5));
  const CausalGraph graph(trace);
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.edges()[0].kind, CausalEdge::Kind::kFdOrder);
  EXPECT_TRUE(graph.HappensBefore(0, 1));
  // Event 1's clock holds both chains' positions after the merge.
  EXPECT_EQ(graph.ClockOf(0), (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(graph.ClockOf(1), (std::vector<uint32_t>{1, 1}));
}

TEST(CausalGraphTest, SendReceiveEdgeOrdersSenderBeforeObservation) {
  Trace trace;
  // Teach the ip->node map: 10.0.0.2 is node 2's address.
  trace.Append(MakeNd(&trace, 50, 2, "10.0.0.9", "10.0.0.2", 0));
  trace.Append(MakeScf(&trace, 100, 2, 200, Sys::kWrite, "/wal", Err::kEIO));
  trace.Append(MakeScf(&trace, 200, 2, 200, Sys::kWrite, "/wal", Err::kEIO));
  // Node 0 notices silence from node 2 starting at 300-50=250: packets
  // flowed until then, so the sender's last event at/before 250 precedes it.
  trace.Append(MakeNd(&trace, 300, 0, "10.0.0.2", "10.0.0.0", 50));
  const CausalGraph graph(trace);
  bool send_receive = false;
  for (const CausalEdge& edge : graph.edges()) {
    if (edge.kind == CausalEdge::Kind::kSendReceive) {
      EXPECT_EQ(edge.from, 2u);
      EXPECT_EQ(edge.to, 3u);
      send_receive = true;
    }
  }
  EXPECT_TRUE(send_receive);
  EXPECT_TRUE(graph.HappensBefore(2, 3));
  EXPECT_TRUE(graph.HappensBefore(1, 3));  // Through the sender's chain.
  EXPECT_FALSE(graph.HappensBefore(3, 2));
}

TEST(CausalGraphTest, CrashAndRestartBarriersOrderNodeLocally) {
  Trace trace;
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kWrite, "/wal", Err::kEIO));
  trace.Append(MakeScf(&trace, 15, 0, 101, Sys::kWrite, "/aux", Err::kEIO));
  trace.Append(MakePs(20, 0, 100, ProcState::kCrashed));
  trace.Append(MakeScf(&trace, 30, 0, 102, Sys::kOpen, "/wal", Err::kOk));
  const CausalGraph graph(trace);
  // Crash barrier: the other chain's last event precedes the crash.
  EXPECT_TRUE(graph.HappensBefore(1, 2));
  // Restart barrier: the first event of the post-crash pid follows it.
  EXPECT_TRUE(graph.HappensBefore(2, 3));
  // And transitively everything before the crash precedes the restart.
  EXPECT_TRUE(graph.HappensBefore(0, 3));
  EXPECT_TRUE(graph.HappensBefore(1, 3));
  EXPECT_TRUE(graph.consistent());
}

TEST(CausalGraphTest, InconsistentTracesYieldTb303) {
  {
    Trace trace;  // One pid on two hosts.
    trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kOpen, "/a", Err::kEIO));
    trace.Append(MakeScf(&trace, 20, 1, 100, Sys::kOpen, "/a", Err::kEIO));
    const CausalGraph graph(trace);
    EXPECT_FALSE(graph.consistent());
    ASSERT_FALSE(graph.diagnostics().empty());
    EXPECT_EQ(graph.diagnostics()[0].code, DiagCode::kCausalInconsistentTrace);
    EXPECT_EQ(DiagCodeName(graph.diagnostics()[0].code), "TB303");
  }
  {
    Trace trace;  // Events from a pid after its crash.
    trace.Append(MakePs(10, 0, 100, ProcState::kCrashed));
    trace.Append(MakeScf(&trace, 20, 0, 100, Sys::kOpen, "/a", Err::kEIO));
    const CausalGraph graph(trace);
    EXPECT_FALSE(graph.consistent());
  }
  {
    Trace trace;  // A well-formed crash/restart is NOT flagged.
    trace.Append(MakePs(10, 0, 100, ProcState::kCrashed));
    trace.Append(MakeScf(&trace, 20, 0, 101, Sys::kOpen, "/a", Err::kEIO));
    const CausalGraph graph(trace);
    EXPECT_TRUE(graph.consistent());
  }
}

TEST(CausalGraphTest, DisablingVectorClocksKeepsConsistencyChecks) {
  Trace trace;
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kOpen, "/a", Err::kEIO));
  trace.Append(MakeScf(&trace, 20, 1, 100, Sys::kOpen, "/a", Err::kEIO));
  const CausalGraph graph(trace, CausalOptions{/*vector_clocks=*/false});
  EXPECT_FALSE(graph.consistent());       // TB303 still detected...
  EXPECT_FALSE(graph.HappensBefore(0, 1));  // ...but no order claims.
  EXPECT_TRUE(graph.ClockOf(0).empty());
}

// Strict-partial-order laws on randomized multi-node traces assembled the
// way production dumps are: per-node traces merged by Trace::Merge.
TEST(CausalGraphTest, HappensBeforeIsStrictPartialOrderUnderRandomizedMerges) {
  for (uint64_t seed = 1; seed <= 5; seed++) {
    Rng rng(seed);
    std::vector<Trace> per_node;
    for (NodeId node = 0; node < 3; node++) {
      Trace trace;
      SimTime ts = 100 * (node + 1);
      const Pid pid = 100 + node;
      for (int i = 0; i < 10; i++) {
        ts += rng.NextInRange(1, 500);
        switch (rng.NextBelow(4)) {
          case 0:
            trace.Append(MakeScf(&trace, ts, node, pid, Sys::kWrite, "/wal", Err::kEIO,
                                 static_cast<int32_t>(rng.NextBelow(3))));
            break;
          case 1:
            trace.Append(MakeScf(&trace, ts, node, pid, Sys::kRead, "/db", Err::kOk));
            break;
          case 2:
            trace.Append(MakePs(ts, node, pid, ProcState::kPaused, 100));
            break;
          default:
            trace.Append(MakeNd(&trace, ts, node, "10.0.0." + std::to_string((node + 1) % 3),
                                "10.0.0." + std::to_string(node),
                                rng.NextInRange(10, 200)));
            break;
        }
      }
      per_node.push_back(std::move(trace));
    }
    const Trace merged = Trace::Merge(per_node);
    const CausalGraph graph(merged);
    const size_t n = graph.size();
    for (size_t a = 0; a < n; a++) {
      EXPECT_FALSE(graph.HappensBefore(a, a)) << "seed " << seed;
      for (size_t b = 0; b < n; b++) {
        if (graph.HappensBefore(a, b)) {
          EXPECT_FALSE(graph.HappensBefore(b, a)) << "seed " << seed;  // Antisymmetry.
          for (size_t c = 0; c < n; c++) {
            if (graph.HappensBefore(b, c)) {
              EXPECT_TRUE(graph.HappensBefore(a, c)) << "seed " << seed;  // Transitivity.
            }
          }
        }
        // Program order is always recovered within one chain.
        if (graph.ChainOf(a) == graph.ChainOf(b) &&
            graph.PositionInChain(a) < graph.PositionInChain(b)) {
          EXPECT_TRUE(graph.HappensBefore(a, b)) << "seed " << seed;
        }
      }
    }
  }
}

TEST(FeasibilityTest, ClassifiesFeasibleInfeasibleAndUnordered) {
  Trace trace;
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kStat, "/conf", Err::kENOENT));
  trace.Append(MakeScf(&trace, 20, 0, 100, Sys::kOpen, "/state", Err::kENOENT));
  const CausalGraph graph(trace);
  const FeasibilityChecker checker(&graph, trace);

  FaultSchedule production_order;
  production_order.faults.push_back(ScfFault(0, Sys::kStat, Err::kENOENT, "/conf"));
  production_order.faults.push_back(ScfFault(0, Sys::kOpen, Err::kENOENT, "/state"));
  production_order.faults[1].conditions.push_back(Condition::AfterFault(0));
  const FeasibilityReport ok = checker.Check(production_order);
  EXPECT_EQ(ok.verdict, FeasibilityVerdict::kFeasible);
  EXPECT_TRUE(ok.canonical_order);
  EXPECT_EQ(ok.mapped_events, (std::vector<int32_t>{0, 1}));

  FaultSchedule inverted;
  inverted.faults.push_back(ScfFault(0, Sys::kOpen, Err::kENOENT, "/state"));
  inverted.faults.push_back(ScfFault(0, Sys::kStat, Err::kENOENT, "/conf"));
  inverted.faults[1].conditions.push_back(Condition::AfterFault(0));
  const FeasibilityReport bad = checker.Check(inverted);
  EXPECT_EQ(bad.verdict, FeasibilityVerdict::kInfeasible);
  ASSERT_FALSE(bad.diagnostics.empty());
  EXPECT_EQ(bad.diagnostics[0].code, DiagCode::kCausalOrderViolation);
  EXPECT_EQ(DiagCodeName(bad.diagnostics[0].code), "TB301");

  FaultSchedule unmatched;
  unmatched.faults.push_back(ScfFault(0, Sys::kStat, Err::kENOENT, "/conf"));
  unmatched.faults.push_back(ScfFault(0, Sys::kWrite, Err::kEIO, "/nowhere"));
  unmatched.faults[1].conditions.push_back(Condition::AfterFault(0));
  const FeasibilityReport undecided = checker.Check(unmatched);
  EXPECT_EQ(undecided.verdict, FeasibilityVerdict::kUnordered);
  ASSERT_FALSE(undecided.diagnostics.empty());
  EXPECT_EQ(undecided.diagnostics[0].code, DiagCode::kCausalUnmatchedFault);
  EXPECT_EQ(undecided.mapped_events[1], -1);
}

TEST(FeasibilityTest, CommutingPairsCollapseToTheTraceOrderedRepresentative) {
  Trace trace;
  // Concurrent faults on different nodes commute; a third on node 0 shares
  // scope with the first and must not.
  trace.Append(MakeScf(&trace, 10, 0, 100, Sys::kStat, "/conf", Err::kENOENT));
  trace.Append(MakeScf(&trace, 20, 1, 101, Sys::kOpen, "/state", Err::kENOENT));
  trace.Append(MakeScf(&trace, 30, 0, 100, Sys::kWrite, "/wal", Err::kEIO));
  const CausalGraph graph(trace);
  const FeasibilityChecker checker(&graph, trace);

  const auto pairs = checker.CommutativePairs();
  // (0,1) and (1,2) cross nodes and are concurrent; (0,2) is program-ordered.
  EXPECT_EQ(pairs.size(), 2u);
  EXPECT_TRUE(checker.Commute(0, 1));
  EXPECT_FALSE(checker.Commute(0, 2));

  // Enforcing the inverse order of a commuting pair is flagged TB304: the
  // trace-ordered schedule explores the same Mazurkiewicz class.
  FaultSchedule inverse;
  inverse.faults.push_back(ScfFault(1, Sys::kOpen, Err::kENOENT, "/state"));
  inverse.faults.push_back(ScfFault(0, Sys::kStat, Err::kENOENT, "/conf"));
  inverse.faults[1].conditions.push_back(Condition::AfterFault(0));
  const FeasibilityReport swapped = checker.Check(inverse);
  EXPECT_EQ(swapped.verdict, FeasibilityVerdict::kFeasible);
  EXPECT_FALSE(swapped.canonical_order);
  ASSERT_FALSE(swapped.diagnostics.empty());
  EXPECT_EQ(swapped.diagnostics[0].code, DiagCode::kCausalCommutedOrder);
  EXPECT_EQ(DiagCodeName(swapped.diagnostics[0].code), "TB304");

  FaultSchedule canonical;
  canonical.faults.push_back(ScfFault(0, Sys::kStat, Err::kENOENT, "/conf"));
  canonical.faults.push_back(ScfFault(1, Sys::kOpen, Err::kENOENT, "/state"));
  canonical.faults[1].conditions.push_back(Condition::AfterFault(0));
  EXPECT_TRUE(checker.Check(canonical).canonical_order);
}

TEST(FeasibilityTest, BothPartitionsNeverCommute) {
  Trace trace;
  trace.Append(MakeNd(&trace, 10, 0, "10.0.0.1", "10.0.0.0", 100));
  trace.Append(MakeNd(&trace, 20, 1, "10.0.0.0", "10.0.0.1", 100));
  const CausalGraph graph(trace);
  const FeasibilityChecker checker(&graph, trace);
  // Different nodes and (here) concurrent, but two partitions both mutate
  // the shared fabric: exchanging them is not scope-disjoint.
  EXPECT_TRUE(checker.CommutativePairs().empty());
}

// The engine-level contract: causal pruning is a pure work-saver. For every
// catalogue bug the confirmed schedule (byte-for-byte YAML), level, replay
// rate, and fault summary are identical with pruning on and off, while the
// pruned run never generates more schedules.
TEST(EngineCausalTest, PruningOnVsOffIsByteIdenticalAcrossTheCatalogue) {
  // Every (on, off) pair is independent, so the pairs run concurrently on a
  // small pool; results are consumed and asserted in catalogue order.
  struct OnOff {
    RoseReport on;
    RoseReport off;
  };
  const std::vector<const BugSpec*>& bugs = AllBugs();
  std::vector<std::function<OnOff()>> tasks;
  tasks.reserve(bugs.size());
  for (const BugSpec* spec : bugs) {
    tasks.push_back([spec] {
      RoseConfig on_config;
      on_config.diagnosis.use_causal_pruning = true;
      RoseConfig off_config;
      off_config.diagnosis.use_causal_pruning = false;
      return OnOff{ReproduceBug(*spec, on_config), ReproduceBug(*spec, off_config)};
    });
  }
  WorkerPool pool(4);
  OrderedBatch<OnOff> batch(&pool, std::move(tasks));

  int bugs_with_pruning = 0;
  for (size_t i = 0; i < bugs.size(); i++) {
    const BugSpec* spec = bugs[i];
    const RoseReport& on = batch.Get(i).on;
    const RoseReport& off = batch.Get(i).off;

    EXPECT_EQ(on.reproduced(), off.reproduced()) << spec->id;
    EXPECT_EQ(on.diagnosis.schedule.ToYaml(), off.diagnosis.schedule.ToYaml()) << spec->id;
    EXPECT_EQ(on.diagnosis.level, off.diagnosis.level) << spec->id;
    EXPECT_EQ(on.diagnosis.fault_summary, off.diagnosis.fault_summary) << spec->id;
    EXPECT_EQ(on.replay_rate(), off.replay_rate()) << spec->id;
    EXPECT_LE(on.schedules(), off.schedules()) << spec->id;
    EXPECT_LE(on.runs(), off.runs()) << spec->id;
    // The infeasible reject is what the toggle controls; commutation-class
    // dedup shapes the wave identically in both modes.
    EXPECT_EQ(off.diagnosis.schedules_pruned_infeasible, 0) << spec->id;
    EXPECT_EQ(on.diagnosis.schedules_pruned_commuted, off.diagnosis.schedules_pruned_commuted)
        << spec->id;
    if (on.diagnosis.schedules_pruned_infeasible > 0) {
      bugs_with_pruning++;
      EXPECT_LT(on.schedules(), off.schedules()) << spec->id;
    }
  }
  // The static analysis must actually bite on the multi-fault bugs.
  EXPECT_GE(bugs_with_pruning, 3);
}

TEST(EngineCausalTest, PruningCountersLandInTheDiagnosisResult) {
  const BugSpec* spec = FindBug("RedisRaft-43");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.diagnosis.use_causal_pruning = true;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.reproduced());
  // Seven extracted faults feed the Level-1 permutation wave; most orders
  // contradict the trace's happens-before relation and are pruned before
  // any simulated run.
  EXPECT_GT(report.diagnosis.schedules_pruned_infeasible +
                report.diagnosis.schedules_pruned_commuted,
            0);
}

}  // namespace
}  // namespace rose
