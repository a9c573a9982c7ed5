// End-to-end pipeline tests: profiling -> production trace -> diagnosis ->
// reproduction, on the fast Table-1 bugs, plus workflow invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "src/analyze/schedule_linter.h"
#include "src/analyze/trace_validator.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/harness/runner.h"
#include "src/trace/trace_io.h"

namespace rose {
namespace {

TEST(RegistryTest, AllTwentyBugsRegistered) {
  EXPECT_EQ(AllBugs().size(), 20u);
  EXPECT_NE(FindBug("RedisRaft-43"), nullptr);
  EXPECT_NE(FindBug("Zookeeper-3006"), nullptr);
  EXPECT_NE(FindBug("Tendermint-5839"), nullptr);
  EXPECT_EQ(FindBug("NotABug"), nullptr);
}

TEST(RegistryTest, EverySpecIsComplete) {
  for (const BugSpec* spec : AllBugs()) {
    EXPECT_FALSE(spec->id.empty());
    EXPECT_FALSE(spec->description.empty());
    EXPECT_NE(spec->binary, nullptr) << spec->id;
    EXPECT_TRUE(spec->deploy != nullptr) << spec->id;
    EXPECT_FALSE(spec->relevant_files.empty()) << spec->id;
    EXPECT_GT(spec->run_duration, Seconds(5)) << spec->id;
    if (!spec->production_via_nemesis) {
      EXPECT_TRUE(spec->manual_production.has_value()) << spec->id;
    }
  }
}

TEST(PipelineTest, ProfilingLearnsBenignFaultsAndMonitoringSites) {
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(5);
  EXPECT_FALSE(profile.monitored_functions.empty());
  EXPECT_FALSE(profile.benign_scf_signatures.empty());
  EXPECT_GT(profile.SyscallCount(Sys::kWrite), 0u);
  EXPECT_GT(profile.duration, Seconds(20));
}

TEST(PipelineTest, ProductionTraceContainsInjectedFault) {
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(5);
  int attempts = 0;
  const auto trace = runner.ObtainProductionTrace(profile, 5, &attempts);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(attempts, 1);
  bool found = false;
  for (const TraceEvent& event : trace->events()) {
    if (event.type == EventType::kSCF && trace->str(event.scf().filename) == "/data/snapshot.0" &&
        event.scf().err == Err::kEIO) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipelineTest, EndToEndZookeeper3006ReproducesAtLevelOne) {
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 5;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.trace_obtained);
  ASSERT_TRUE(report.reproduced());
  EXPECT_EQ(report.diagnosis.level, 1);
  EXPECT_GE(report.replay_rate(), 60.0);
  // The winning schedule names the snapshot read, like the paper's case study.
  bool names_snapshot = false;
  for (const auto& fault : report.diagnosis.schedule.faults) {
    if (fault.kind == FaultKind::kSyscallFailure &&
        fault.syscall.path_filter == "/data/snapshot.0") {
      names_snapshot = true;
    }
  }
  EXPECT_TRUE(names_snapshot);
}

TEST(PipelineTest, ParallelDiagnosisMatchesSerialOnRealBugs) {
  // The worker-pool engine must be bit-for-bit identical to the serial one
  // on the real pipeline (profiling, production trace, diagnosis), not just
  // on synthetic runners.
  struct Case {
    const char* id;
    uint64_t seed;
  };
  for (const Case& c : {Case{"Zookeeper-3006", 5}, Case{"Zookeeper-3157", 3}}) {
    const BugSpec* spec = FindBug(c.id);
    ASSERT_NE(spec, nullptr) << c.id;
    RoseConfig serial_config;
    serial_config.seed = c.seed;
    const RoseReport serial = ReproduceBug(*spec, serial_config);

    RoseConfig parallel_config;
    parallel_config.seed = c.seed;
    parallel_config.diagnosis.parallelism = 4;
    const RoseReport parallel = ReproduceBug(*spec, parallel_config);

    ASSERT_TRUE(serial.reproduced()) << c.id;
    EXPECT_EQ(parallel.reproduced(), serial.reproduced()) << c.id;
    EXPECT_EQ(CanonicalHash(parallel.diagnosis.schedule), CanonicalHash(serial.diagnosis.schedule))
        << c.id;
    EXPECT_EQ(parallel.diagnosis.fault_summary, serial.diagnosis.fault_summary) << c.id;
    EXPECT_EQ(parallel.replay_rate(), serial.replay_rate()) << c.id;
    EXPECT_EQ(parallel.diagnosis.level, serial.diagnosis.level) << c.id;
    EXPECT_EQ(parallel.schedules(), serial.schedules()) << c.id;
    EXPECT_EQ(parallel.diagnosis.schedules_pruned_invalid, serial.diagnosis.schedules_pruned_invalid)
        << c.id;
    EXPECT_EQ(parallel.diagnosis.schedules_pruned_duplicate,
              serial.diagnosis.schedules_pruned_duplicate)
        << c.id;
    EXPECT_EQ(parallel.runs(), serial.runs()) << c.id;
    EXPECT_EQ(parallel.diagnosis.virtual_time, serial.diagnosis.virtual_time) << c.id;
    EXPECT_EQ(parallel.fr_percent(), serial.fr_percent()) << c.id;
  }
}

TEST(PipelineTest, SavedDumpDiagnosesLikeTheInMemoryTrace) {
  // The dump primitive's contract (DESIGN.md §13): a window saved to disk
  // and loaded back must diagnose byte-for-byte like the in-memory
  // production trace, confirmed-schedule YAML included.
  struct Case {
    const char* id;
    uint64_t seed;
  };
  for (const Case& c : {Case{"Zookeeper-3006", 5}, Case{"RedisRaft-42", 42}}) {
    const BugSpec* spec = FindBug(c.id);
    ASSERT_NE(spec, nullptr) << c.id;
    BugRunner runner(spec);
    const Profile profile = runner.RunProfiling(c.seed);
    std::optional<Trace> production = runner.ObtainProductionTrace(profile, c.seed + 17);
    ASSERT_TRUE(production.has_value()) << c.id;

    const std::string path =
        (std::filesystem::path(testing::TempDir()) / (std::string(c.id) + ".trc")).string();
    ASSERT_TRUE(SaveTraceFile(path, *production)) << c.id;

    const LoadedTrace loaded = LoadTraceFile(path);
    ASSERT_FALSE(HasErrors(loaded.diagnostics)) << c.id;
    ASSERT_EQ(loaded.trace.size(), production->size()) << c.id;

    RoseConfig config;
    config.seed = c.seed;
    const DiagnosisResult via_file = DiagnoseTrace(*spec, profile, loaded.trace, config);
    const DiagnosisResult in_memory = DiagnoseTrace(*spec, profile, *production, config);
    ASSERT_TRUE(in_memory.reproduced) << c.id;
    EXPECT_EQ(via_file.reproduced, in_memory.reproduced) << c.id;
    EXPECT_EQ(via_file.schedule.ToYaml(), in_memory.schedule.ToYaml()) << c.id;
    EXPECT_EQ(via_file.fault_summary, in_memory.fault_summary) << c.id;
    EXPECT_DOUBLE_EQ(via_file.replay_rate, in_memory.replay_rate) << c.id;
    EXPECT_EQ(via_file.level, in_memory.level) << c.id;
    EXPECT_EQ(via_file.schedules_generated, in_memory.schedules_generated) << c.id;
    EXPECT_EQ(via_file.total_runs, in_memory.total_runs) << c.id;
    EXPECT_EQ(via_file.virtual_time, in_memory.virtual_time) << c.id;
    std::remove(path.c_str());
  }
}

// Re-encodes `trace` as a version-2 dump whose SCF records carry nonzero
// execution-index stamps (the n-th SCF: digest 0x9e3779b97f4a7c15 * n,
// sequence n % 7 + 1). Version 2 appends the stamp to the end of each SCF
// record, so at one event per frame it is two varints at the end of that
// event's frame.
std::string StampedVersion2Dump(const Trace& trace, size_t* scfs) {
  std::string v1;
  TraceWriter writer(&v1, &trace.pool(), /*events_per_frame=*/1);
  for (const TraceEvent& event : trace.events()) {
    writer.Add(event);
  }
  writer.Finish();
  std::string v2;
  AppendHeader(&v2, kRtrcFormat, 2);
  std::string_view rest = std::string_view(v1).substr(kStreamHeaderSize);
  size_t next_event = 0;
  *scfs = 0;
  Frame frame;
  while (SplitFrame(&rest, UINT32_MAX, &frame) == SplitResult::kFrame) {
    std::string payload(frame.payload);
    if (frame.kind == kFrameEvents && trace[next_event++].type == EventType::kSCF) {
      ++*scfs;
      PutVarint(&payload, 0x9e3779b97f4a7c15ULL * *scfs);
      PutVarint(&payload, *scfs % 7 + 1);
    }
    AppendFrame(&v2, frame.kind, payload);
  }
  return v2;
}

TEST(PipelineTest, StampedDumpDiagnosesLikeItsZeroedCopy) {
  // Dumps recorded while the tracer still stamped SCF events are RTRC
  // version 2 with nonzero stamps. Such a dump must decode to exactly the
  // events of the same dump without stamps, share its cache key, and
  // diagnose exactly like it.
  const BugSpec* spec = FindBug("Zookeeper-3006");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(5);
  std::optional<Trace> zeroed = runner.ObtainProductionTrace(profile, 5 + 17);
  ASSERT_TRUE(zeroed.has_value());
  size_t scfs = 0;
  const std::string stamped = StampedVersion2Dump(*zeroed, &scfs);
  ASSERT_GT(scfs, 0u);

  std::vector<Diagnostic> diags;
  const Trace from_binary = Trace::ParseBinary(stamped, &diags);
  ASSERT_TRUE(diags.empty());
  EXPECT_TRUE(TraceEquals(*zeroed, from_binary));
  EXPECT_EQ(from_binary.SerializeBinary(), zeroed->SerializeBinary());
  uint64_t key = 0;
  ASSERT_TRUE(CanonicalBlobHash(stamped, &key));
  EXPECT_EQ(key, CanonicalTraceHash(*zeroed));

  RoseConfig config;
  config.seed = 5;
  const DiagnosisResult plain = DiagnoseTrace(*spec, profile, *zeroed, config);
  const DiagnosisResult with_stamps = DiagnoseTrace(*spec, profile, from_binary, config);
  ASSERT_TRUE(plain.reproduced);
  EXPECT_EQ(with_stamps.reproduced, plain.reproduced);
  EXPECT_EQ(with_stamps.schedule.ToYaml(), plain.schedule.ToYaml());
  EXPECT_EQ(with_stamps.fault_summary, plain.fault_summary);
  EXPECT_DOUBLE_EQ(with_stamps.replay_rate, plain.replay_rate);
  EXPECT_EQ(with_stamps.level, plain.level);
  EXPECT_EQ(with_stamps.schedules_generated, plain.schedules_generated);
  EXPECT_EQ(with_stamps.total_runs, plain.total_runs);
  EXPECT_EQ(with_stamps.virtual_time, plain.virtual_time);
}

TEST(PipelineTest, EndToEndTendermintReproduces) {
  const BugSpec* spec = FindBug("Tendermint-5839");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 9;
  const RoseReport report = ReproduceBugRobust(*spec, config);
  ASSERT_TRUE(report.reproduced());
  EXPECT_EQ(report.diagnosis.level, 1);
}

TEST(PipelineTest, EndToEndRedisRaft42ReproducesViaNemesis) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 42;
  const RoseReport report = ReproduceBugRobust(*spec, config);
  ASSERT_TRUE(report.trace_obtained);
  ASSERT_TRUE(report.reproduced());
  EXPECT_EQ(report.diagnosis.level, 1);
  EXPECT_GE(report.replay_rate(), 60.0);
}

TEST(PipelineTest, WinningScheduleSurvivesYamlRoundTrip) {
  const BugSpec* spec = FindBug("Zookeeper-3157");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 3;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.reproduced());
  // The analyzer emits YAML; the executor parses it back (paper §5.3): the
  // parsed schedule must reproduce as well.
  FaultSchedule parsed;
  ASSERT_TRUE(FaultSchedule::FromYaml(report.diagnosis.schedule.ToYaml(), &parsed));
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(3);
  RunOptions options;
  options.seed = 77;
  options.duration = spec->run_duration;
  options.schedule = &parsed;
  options.profile = &profile;
  EXPECT_TRUE(runner.RunOnce(options).bug);
}

TEST(PipelineTest, CleanRunsNeverTriggerOracles) {
  // Deploy each guest with its defect flag on but no faults: the oracle must
  // stay silent (no false positives in 30 virtual seconds).
  for (const char* id : {"RedisRaft-42", "Zookeeper-2247", "HDFS-4233", "Kafka-12508",
                         "HBASE-19608", "Tendermint-5839", "MongoDB-2.4.3"}) {
    const BugSpec* spec = FindBug(id);
    ASSERT_NE(spec, nullptr) << id;
    BugRunner runner(spec);
    RunOptions options;
    options.seed = 123;
    options.duration = Seconds(30);
    const RunOutcome outcome = runner.RunOnce(options);
    EXPECT_FALSE(outcome.bug) << id << " oracle fired without any fault";
  }
}

TEST(PipelineTest, ReplayRateIsMeaningfulAcrossSeeds) {
  // Run the winning ZK-3157 schedule under 10 fresh seeds by hand and check
  // it reproduces every time (the bug is input-pinned, so RR should be 100%).
  const BugSpec* spec = FindBug("Zookeeper-3157");
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 3;
  const RoseReport report = ReproduceBug(*spec, config);
  ASSERT_TRUE(report.reproduced());
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(3);
  int hits = 0;
  for (uint64_t seed = 500; seed < 510; seed++) {
    RunOptions options;
    options.seed = seed;
    options.duration = spec->run_duration;
    options.schedule = &report.diagnosis.schedule;
    options.profile = &profile;
    if (runner.RunOnce(options).bug) {
      hits++;
    }
  }
  EXPECT_EQ(hits, 10);
}

}  // namespace
}  // namespace rose
