// Diagnosis-engine tests against a scripted fake runner: the "system under
// test" is a function that decides, per schedule, whether the bug fires.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "src/analyze/schedule_linter.h"
#include "src/common/rng.h"
#include "src/diagnose/engine.h"

namespace rose {
namespace {

TraceEvent Ps(SimTime ts, NodeId node, ProcState state, SimTime duration = 0) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kPS;
  event.info = PsInfo{100 + node, state, duration};
  return event;
}

TraceEvent Af(SimTime ts, NodeId node, int32_t fid) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kAF;
  event.info = AfInfo{100 + node, fid};
  return event;
}

// Interns `file` into the destination trace's pool.
TraceEvent Scf(Trace& trace, SimTime ts, NodeId node, Sys sys, const std::string& file,
               Err err) {
  TraceEvent event;
  event.ts = ts;
  event.node = node;
  event.type = EventType::kSCF;
  event.info = ScfInfo{100 + node, sys, 3, trace.Intern(file), err};
  return event;
}

DiagnosisConfig TestConfig() {
  DiagnosisConfig config;
  config.server_nodes = {0, 1, 2};
  config.level1_attempts = 1;
  return config;
}

// A runner whose bug predicate inspects the schedule.
DiagnosisEngine::ScheduleRunner PredicateRunner(
    std::function<bool(const FaultSchedule&)> bug_if,
    std::function<void(const FaultSchedule&, ScheduleRunOutcome*)> annotate = nullptr) {
  return [bug_if = std::move(bug_if), annotate = std::move(annotate)](
             const ScheduleRunRequest& request) {
    const FaultSchedule& schedule = *request.schedule;
    ScheduleRunOutcome outcome;
    outcome.bug = bug_if(schedule);
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(schedule.faults.size());
    for (auto& fault : outcome.feedback.outcomes) {
      fault.injected = true;
      fault.injected_at = Seconds(10);
    }
    if (annotate != nullptr) {
      annotate(schedule, &outcome);
    }
    return outcome;
  };
}

TEST(EngineTest, LevelOneSucceedsWhenOrderSuffices) {
  Trace production;
  production.Append(Ps(Seconds(5), 0, ProcState::kCrashed));
  Profile profile;

  auto runner = PredicateRunner([](const FaultSchedule& schedule) {
    // Any schedule containing a crash on node 0 triggers the bug.
    for (const auto& fault : schedule.faults) {
      if (fault.kind == FaultKind::kProcessCrash && fault.target_node == 0) {
        return true;
      }
    }
    return false;
  });
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.level, 1);
  EXPECT_EQ(result.schedules_generated, 1);
  EXPECT_EQ(result.total_runs, 11);  // 1 + 10 confirmation runs.
  EXPECT_DOUBLE_EQ(result.replay_rate, 100.0);
  EXPECT_EQ(result.fault_summary, "PS(Crash)");
}

TEST(EngineTest, ScfSweepFindsNthInvocation) {
  Trace production;
  production.Append(Scf(production, Seconds(5), 0, Sys::kWrite, "/data/txnlog", Err::kEIO));
  Profile profile;

  auto runner = PredicateRunner([](const FaultSchedule& schedule) {
    for (const auto& fault : schedule.faults) {
      if (fault.kind == FaultKind::kSyscallFailure && fault.syscall.nth == 4) {
        return true;
      }
    }
    return false;
  });
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.level, 2);
  // L1 (nth=1), then sweep nth=2..4: the sweep's nth=1 entry is canonically
  // the Level-1 schedule again and is pruned without a run.
  EXPECT_EQ(result.schedules_generated, 4);
  EXPECT_EQ(result.schedules_pruned_duplicate, 1);
  EXPECT_EQ(result.schedules_pruned_invalid, 0);
  EXPECT_EQ(result.schedule.faults[0].syscall.nth, 4);
}

TEST(EngineTest, PrunedDuplicatesNeverReachTheRunner) {
  Trace production;
  production.Append(Scf(production, Seconds(5), 0, Sys::kWrite, "/data/txnlog", Err::kEIO));
  Profile profile;

  // Record the canonical hash of every schedule the runner actually executes.
  std::vector<uint64_t> executed;
  auto runner = [&executed](const ScheduleRunRequest& request) {
    const FaultSchedule& schedule = *request.schedule;
    executed.push_back(CanonicalHash(schedule));
    ScheduleRunOutcome outcome;
    outcome.bug = false;  // Never reproduces: the full sweep runs.
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(schedule.faults.size());
    for (auto& fault : outcome.feedback.outcomes) {
      fault.injected = true;
    }
    return outcome;
  };
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_FALSE(result.reproduced);
  EXPECT_GE(result.schedules_pruned_duplicate, 1);
  // Nothing the runner saw was a repeat: every executed schedule is unique.
  std::set<uint64_t> unique(executed.begin(), executed.end());
  EXPECT_EQ(unique.size(), executed.size());
  EXPECT_EQ(static_cast<int>(executed.size()), result.schedules_generated);
}

TEST(EngineTest, PruningLeavesValidDiagnosisUnchanged) {
  // Same scripted bug as ScfSweepFindsNthInvocation: pruning must not change
  // what the engine ultimately finds, only how many runs it spends.
  Trace production;
  production.Append(Scf(production, Seconds(5), 0, Sys::kWrite, "/data/txnlog", Err::kEIO));
  Profile profile;
  auto runner = PredicateRunner([](const FaultSchedule& schedule) {
    for (const auto& fault : schedule.faults) {
      if (fault.kind == FaultKind::kSyscallFailure && fault.syscall.nth == 4) {
        return true;
      }
    }
    return false;
  });
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.level, 2);
  EXPECT_EQ(result.schedule.faults[0].syscall.nth, 4);
  EXPECT_DOUBLE_EQ(result.replay_rate, 100.0);
  EXPECT_EQ(result.fault_summary, "SCF(write)");
}

TEST(EngineTest, AlgorithmOneBuildsFunctionContext) {
  // Production: functions 30, 20, 10 precede the crash (10 most recent).
  Trace production;
  production.Append(Af(Seconds(1), 0, 30));
  production.Append(Af(Seconds(2), 0, 20));
  production.Append(Af(Seconds(3), 0, 10));
  production.Append(Ps(Seconds(4), 0, ProcState::kCrashed));
  Profile profile;

  // The bug needs the crash conditioned on the chain [20, 10]: observe 20,
  // then 10, then inject.
  auto runner = PredicateRunner(
      [](const FaultSchedule& schedule) {
        for (const auto& fault : schedule.faults) {
          if (fault.kind != FaultKind::kProcessCrash) {
            continue;
          }
          std::vector<int32_t> fids;
          for (const auto& condition : fault.conditions) {
            if (condition.kind == Condition::Kind::kFunctionEnter) {
              fids.push_back(condition.function_id);
            }
          }
          if (fids == std::vector<int32_t>{20, 10}) {
            return true;
          }
        }
        return false;
      },
      [](const FaultSchedule& /*schedule*/, ScheduleRunOutcome* outcome) {
        // The testing run re-executes the same code path: the same function
        // sequence precedes the injection point.
        outcome->trace.Append(Af(Seconds(7), 0, 30));
        outcome->trace.Append(Af(Seconds(8), 0, 20));
        outcome->trace.Append(Af(Seconds(9), 0, 10));
      });
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.level, 2);
  // L1, then chain [10], then chain [20,10].
  EXPECT_EQ(result.schedules_generated, 3);
}

TEST(EngineTest, AmplificationTriggersWhenFaultNotInjected) {
  Trace production;
  production.Append(Af(Seconds(3), 2, 10));  // Context seen on node 2 in production.
  production.Append(Ps(Seconds(4), 2, ProcState::kCrashed));
  Profile profile;

  // In testing, function 10 only ever runs on node 1 (role moved); a crash
  // conditioned on it fires only when the schedule was amplified.
  auto runner = [&](const ScheduleRunRequest& request) {
    const FaultSchedule& schedule = *request.schedule;
    ScheduleRunOutcome outcome;
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(schedule.faults.size());
    bool bug = false;
    for (size_t i = 0; i < schedule.faults.size(); i++) {
      const ScheduledFault& fault = schedule.faults[i];
      bool wants_function = false;
      for (const auto& condition : fault.conditions) {
        if (condition.kind == Condition::Kind::kFunctionEnter &&
            condition.function_id == 10) {
          wants_function = true;
        }
      }
      const bool injectable = !wants_function || fault.target_node == 1;
      outcome.feedback.outcomes[i].injected = injectable;
      outcome.feedback.outcomes[i].injected_at = Seconds(10);
      if (wants_function && injectable && fault.kind == FaultKind::kProcessCrash) {
        bug = true;
      }
    }
    outcome.bug = bug;
    // The amplified run observes function 10 on node 1.
    outcome.trace.Append(Af(Seconds(9), 1, 10));
    return outcome;
  };
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.level, 2);
  // The winning schedule contains replicas for all server nodes.
  EXPECT_GT(result.schedule.faults.size(), 1u);
}

TEST(EngineTest, LevelThreeExploresOffsetsInPriorityOrder) {
  BinaryInfo binary;
  const int32_t fid = binary.RegisterFunction(
      "storeSnapshotData", "snapshot.c",
      {{0x08, OffsetKind::kSyscallCallSite, Sys::kOpen},
       {0x10, OffsetKind::kSyscallCallSite, Sys::kWrite},
       {0x18, OffsetKind::kSyscallCallSite, Sys::kClose}});
  Trace production;
  production.Append(Af(Seconds(3), 0, fid));
  production.Append(Ps(Seconds(3), 0, ProcState::kCrashed));
  Profile profile;

  auto runner = PredicateRunner([fid](const FaultSchedule& schedule) {
    for (const auto& fault : schedule.faults) {
      for (const auto& condition : fault.conditions) {
        if (condition.kind == Condition::Kind::kFunctionOffset &&
            condition.function_id == fid && condition.offset == 0x10) {
          return true;
        }
      }
    }
    return false;
  });
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_TRUE(result.reproduced);
  EXPECT_EQ(result.level, 3);
  // The winning condition is the write call site.
  bool found = false;
  for (const auto& condition : result.schedule.faults[0].conditions) {
    if (condition.kind == Condition::Kind::kFunctionOffset) {
      EXPECT_EQ(condition.offset, 0x10);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineTest, FlakyScheduleBelowTargetSavedAndReturnedAsCandidate) {
  Trace production;
  production.Append(Ps(Seconds(5), 0, ProcState::kCrashed));
  Profile profile;

  // The bug fires on every 3rd run only (~33% replay, below the 60% target).
  int run_counter = 0;
  auto runner = [&run_counter](const ScheduleRunRequest& request) {
    const FaultSchedule& schedule = *request.schedule;
    ScheduleRunOutcome outcome;
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(schedule.faults.size());
    for (auto& fault : outcome.feedback.outcomes) {
      fault.injected = true;
    }
    outcome.bug = (run_counter++ % 3) == 0;
    return outcome;
  };
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  // ConfirmBug abandons once 4 clean runs accumulate (paper line 26), so a
  // ~33% schedule never reaches the 60% target and reports unreproduced.
  EXPECT_FALSE(result.reproduced);
  EXPECT_LT(result.replay_rate, 60.0);
  EXPECT_FALSE(result.schedule.faults.empty());  // Best candidate still surfaced.
}

TEST(EngineTest, NoFaultsMeansNoReproduction) {
  Trace production;  // Empty.
  Profile profile;
  auto runner = PredicateRunner([](const FaultSchedule&) { return true; });
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  const DiagnosisResult result = engine.Run();
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.total_runs, 0);
}

TEST(EngineTest, FaultOrderAblationDropsOrderConditions) {
  Trace production;
  production.Append(Ps(Seconds(2), 0, ProcState::kCrashed));
  production.Append(Ps(Seconds(5), 1, ProcState::kCrashed));
  Profile profile;
  auto runner = PredicateRunner([](const FaultSchedule&) { return true; });
  BinaryInfo binary;
  DiagnosisConfig config = TestConfig();
  config.enforce_fault_order = false;
  DiagnosisEngine engine(production, &profile, &binary, runner, config);
  const DiagnosisResult result = engine.Run();
  ASSERT_TRUE(result.reproduced);
  for (const auto& fault : result.schedule.faults) {
    for (const auto& condition : fault.conditions) {
      EXPECT_NE(condition.kind, Condition::Kind::kAfterFault);
    }
  }
}

// --- Parallel diagnosis ------------------------------------------------------
//
// The parallel engine must be bit-for-bit equivalent to the serial one: it
// speculatively executes candidates on a worker pool but consumes results in
// generation order with pre-assigned per-(schedule, run) seeds. The runners
// below are pure functions of (schedule, seed), so they are safe to invoke
// concurrently and their outcomes cannot depend on execution interleaving.

void ExpectSameDiagnosis(const DiagnosisResult& serial, const DiagnosisResult& parallel) {
  EXPECT_EQ(serial.reproduced, parallel.reproduced);
  EXPECT_EQ(CanonicalHash(serial.schedule), CanonicalHash(parallel.schedule));
  EXPECT_EQ(serial.fault_summary, parallel.fault_summary);
  EXPECT_DOUBLE_EQ(serial.replay_rate, parallel.replay_rate);
  EXPECT_EQ(serial.level, parallel.level);
  EXPECT_EQ(serial.schedules_generated, parallel.schedules_generated);
  EXPECT_EQ(serial.schedules_pruned_invalid, parallel.schedules_pruned_invalid);
  EXPECT_EQ(serial.schedules_pruned_duplicate, parallel.schedules_pruned_duplicate);
  EXPECT_EQ(serial.total_runs, parallel.total_runs);
  EXPECT_EQ(serial.virtual_time, parallel.virtual_time);
}

DiagnosisResult Diagnose(const Trace& production, const Profile& profile,
                         const BinaryInfo& binary, const DiagnosisEngine::ScheduleRunner& runner,
                         DiagnosisConfig config) {
  DiagnosisEngine engine(production, &profile, &binary, runner, std::move(config));
  return engine.Run();
}

TEST(ParallelEngineTest, ScfSweepBugIdenticalAcrossParallelism) {
  // Bug "A": an nth-invocation sweep bug — the Level-2 wave-front path.
  Trace production;
  production.Append(Scf(production, Seconds(5), 0, Sys::kWrite, "/data/txnlog", Err::kEIO));
  Profile profile;
  BinaryInfo binary;
  auto runner = PredicateRunner([](const FaultSchedule& schedule) {
    for (const auto& fault : schedule.faults) {
      if (fault.kind == FaultKind::kSyscallFailure && fault.syscall.nth == 7) {
        return true;
      }
    }
    return false;
  });
  const DiagnosisResult serial = Diagnose(production, profile, binary, runner, TestConfig());
  ASSERT_TRUE(serial.reproduced);
  EXPECT_EQ(serial.level, 2);
  for (int parallelism : {2, 4, 8}) {
    DiagnosisConfig config = TestConfig();
    config.parallelism = parallelism;
    const DiagnosisResult parallel = Diagnose(production, profile, binary, runner, config);
    ExpectSameDiagnosis(serial, parallel);
  }
}

TEST(ParallelEngineTest, OffsetBugIdenticalAcrossParallelism) {
  // Bug "B": a Level-3 intra-function-offset bug — sweeps two levels deep.
  BinaryInfo binary;
  const int32_t fid = binary.RegisterFunction(
      "storeSnapshotData", "snapshot.c",
      {{0x08, OffsetKind::kSyscallCallSite, Sys::kOpen},
       {0x10, OffsetKind::kSyscallCallSite, Sys::kWrite},
       {0x18, OffsetKind::kSyscallCallSite, Sys::kClose},
       {0x20, OffsetKind::kCallSite, Sys::kOpen},
       {0x28, OffsetKind::kOther, Sys::kOpen}});
  Trace production;
  production.Append(Af(Seconds(3), 0, fid));
  production.Append(Ps(Seconds(3), 0, ProcState::kCrashed));
  Profile profile;
  auto runner = PredicateRunner([fid](const FaultSchedule& schedule) {
    for (const auto& fault : schedule.faults) {
      for (const auto& condition : fault.conditions) {
        if (condition.kind == Condition::Kind::kFunctionOffset &&
            condition.function_id == fid && condition.offset == 0x28) {
          return true;
        }
      }
    }
    return false;
  });
  const DiagnosisResult serial = Diagnose(production, profile, binary, runner, TestConfig());
  ASSERT_TRUE(serial.reproduced);
  EXPECT_EQ(serial.level, 3);
  for (int parallelism : {2, 4, 8}) {
    DiagnosisConfig config = TestConfig();
    config.parallelism = parallelism;
    const DiagnosisResult parallel = Diagnose(production, profile, binary, runner, config);
    ExpectSameDiagnosis(serial, parallel);
  }
}

TEST(ParallelEngineTest, SeedDependentOutcomesIdenticalAcrossParallelism) {
  // A replay rate below 100%: the bug only fires for some derived seeds, so
  // this exercises confirmBug early-abandons, saved candidates, and the
  // speculation-miss re-run path (a confirm advancing a schedule's run
  // counter between two Level-1 attempts of the same schedule).
  Trace production;
  production.Append(Ps(Seconds(5), 0, ProcState::kCrashed));
  Profile profile;
  BinaryInfo binary;
  auto runner = [](const ScheduleRunRequest& request) {
    ScheduleRunOutcome outcome;
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(request.schedule->faults.size());
    for (auto& fault : outcome.feedback.outcomes) {
      fault.injected = true;
      fault.injected_at = Seconds(10);
    }
    outcome.bug = request.seed % 3 != 0;  // Pure in the seed: ~67% replay rate.
    return outcome;
  };
  DiagnosisConfig config = TestConfig();
  config.level1_attempts = 3;
  const DiagnosisResult serial = Diagnose(production, profile, binary, runner, config);
  for (int parallelism : {2, 4}) {
    DiagnosisConfig parallel_config = config;
    parallel_config.parallelism = parallelism;
    const DiagnosisResult parallel =
        Diagnose(production, profile, binary, runner, parallel_config);
    ExpectSameDiagnosis(serial, parallel);
  }
}

TEST(ParallelEngineTest, EarlyAbandonCancelsSpeculativeConfirmRuns) {
  // The bug fires only on the first-ever run of each schedule, so every
  // confirmation sequence is all-clean and abandons after 4 clean runs. The
  // per-run sleep keeps workers from draining the whole speculative batch
  // before the consumer abandons it.
  Trace production;
  production.Append(Ps(Seconds(5), 0, ProcState::kCrashed));
  Profile profile;
  BinaryInfo binary;

  struct SharedState {
    std::mutex mutex;
    std::set<uint64_t> seen_hashes;
    std::atomic<int> invocations{0};
  };
  auto state = std::make_shared<SharedState>();
  auto runner = [state](const ScheduleRunRequest& request) {
    const FaultSchedule& schedule = *request.schedule;
    state->invocations.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ScheduleRunOutcome outcome;
    outcome.virtual_duration = Seconds(30);
    outcome.feedback.outcomes.resize(schedule.faults.size());
    for (auto& fault : outcome.feedback.outcomes) {
      fault.injected = true;
    }
    // First run of a schedule bugs; all later runs (the confirmations) are
    // clean. Outcomes depend only on per-schedule run order, which the
    // in-order consumer fixes, not on thread interleaving.
    std::lock_guard<std::mutex> lock(state->mutex);
    outcome.bug = state->seen_hashes.insert(CanonicalHash(schedule)).second;
    return outcome;
  };

  DiagnosisConfig config = TestConfig();
  config.confirm_runs = 40;
  // Serial reference: L1 probe bugs, 4 clean confirms abandon, the saved
  // candidate is re-confirmed at the end (4 more clean runs).
  const DiagnosisResult serial = Diagnose(production, profile, binary, runner, config);
  EXPECT_FALSE(serial.reproduced);
  const int serial_invocations = state->invocations.exchange(0);
  state->seen_hashes.clear();
  EXPECT_EQ(serial.total_runs, serial_invocations);  // Serial is lazy: no waste.

  DiagnosisConfig parallel_config = config;
  parallel_config.parallelism = 4;
  const DiagnosisResult parallel =
      Diagnose(production, profile, binary, runner, parallel_config);
  ExpectSameDiagnosis(serial, parallel);
  // Early-abandon must cancel the speculative confirm runs: of the 2 * 40
  // planned confirmations only 2 * 4 are consumed, and while a few in-flight
  // runs may land before cancellation, the bulk must never start.
  EXPECT_LT(state->invocations.load(), 40);
  EXPECT_EQ(parallel.total_runs, serial.total_runs);
}

TEST(ParallelEngineTest, FunctionsBeforeIndexMatchesLinearScan) {
  // The memoized production-trace index must agree with Trace's linear scan
  // on randomized (timestamp-ordered) traces, for every node and cutoff.
  for (uint64_t trace_seed = 0; trace_seed < 20; trace_seed++) {
    Rng rng(trace_seed * 7919 + 1);
    Trace trace;
    SimTime ts = 0;
    const int events = 120;
    for (int i = 0; i < events; i++) {
      ts += static_cast<SimTime>(rng.NextBelow(3));  // Duplicate ts are common.
      const NodeId node = static_cast<NodeId>(rng.NextBelow(4));
      if (rng.NextBool(0.6)) {
        trace.Append(Af(ts, node, static_cast<int32_t>(rng.NextBelow(10))));
      } else if (rng.NextBool(0.5)) {
        trace.Append(Scf(trace, ts, node, Sys::kWrite, "/f", Err::kEIO));
      } else {
        trace.Append(Ps(ts, node, ProcState::kCrashed));
      }
    }
    const TraceIndex index(trace);
    for (NodeId node = 0; node < 5; node++) {  // Node 4 never appears.
      for (SimTime before = -1; before <= ts + 1; before++) {
        const std::vector<AfInfo> scan = trace.FunctionsBefore(node, before);
        const std::vector<AfInfo> indexed = index.FunctionsBefore(node, before);
        ASSERT_EQ(scan.size(), indexed.size())
            << "seed=" << trace_seed << " node=" << node << " before=" << before;
        for (size_t i = 0; i < scan.size(); i++) {
          EXPECT_EQ(scan[i].function_id, indexed[i].function_id);
          EXPECT_EQ(scan[i].pid, indexed[i].pid);
        }
      }
    }
  }
}

TEST(EngineTest, FrPercentPropagated) {
  Profile profile;
  profile.benign_scf_signatures.insert(ScfSignature(Sys::kStat, "/c", Err::kENOENT));
  Trace production;
  production.Append(Scf(production, 1, 0, Sys::kStat, "/c", Err::kENOENT));
  production.Append(Ps(Seconds(2), 0, ProcState::kCrashed));
  auto runner = PredicateRunner([](const FaultSchedule&) { return true; });
  BinaryInfo binary;
  DiagnosisEngine engine(production, &profile, &binary, runner, TestConfig());
  EXPECT_DOUBLE_EQ(engine.Run().fr_percent, 50.0);
}

}  // namespace
}  // namespace rose
