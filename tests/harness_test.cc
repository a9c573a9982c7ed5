// Harness-layer tests: the run orchestration (oracle-triggered dumps, early
// halt), the nemesis, messages, workload clients, and cross-cutting
// determinism properties of the whole stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/apps/framework/message.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/harness/bug_registry.h"
#include "src/harness/rose.h"
#include "src/workload/kv_client.h"
#include "src/workload/nemesis.h"

namespace rose {
namespace {

TEST(MessageTest, FieldAccessors) {
  Message msg("Ping", 1, 2);
  msg.SetInt("n", -42);
  msg.SetStr("s", "hello");
  EXPECT_EQ(msg.IntField("n"), -42);
  EXPECT_EQ(msg.IntField("missing", 7), 7);
  EXPECT_EQ(msg.StrField("s"), "hello");
  EXPECT_EQ(msg.StrField("missing", "dflt"), "dflt");
  EXPECT_TRUE(msg.HasField("n"));
  EXPECT_FALSE(msg.HasField("q"));
  EXPECT_GT(msg.ByteSize(), 0);
  EXPECT_TRUE(Contains(msg.DebugString(), "Ping"));
}

TEST(MessageTest, ByteSizeGrowsWithPayload) {
  Message small("T", 0, 1);
  Message large("T", 0, 1);
  large.SetStr("data", std::string(500, 'x'));
  EXPECT_GT(large.ByteSize(), small.ByteSize() + 400);
}

// The size formula of the original all-strings encoding: every value stored
// as its decimal text in a std::map<std::string, std::string>.
class ReferenceMessage {
 public:
  explicit ReferenceMessage(std::string type) : type_(std::move(type)) {}
  void SetInt(const std::string& key, int64_t value) { fields_[key] = std::to_string(value); }
  void SetStr(const std::string& key, std::string value) { fields_[key] = std::move(value); }
  int64_t ByteSize() const {
    int64_t size = static_cast<int64_t>(type_.size()) + 8;
    for (const auto& [key, value] : fields_) {
      size += static_cast<int64_t>(key.size() + value.size()) + 2;
    }
    return size;
  }

 private:
  std::string type_;
  std::map<std::string, std::string> fields_;
};

TEST(MessageTest, ByteSizeMatchesTheAllStringsFormula) {
  // Message keys are literals, so the keys come from literal tables.
  static constexpr char kIntKeys[][4] = {"i0", "i1", "i2", "i3", "i4",  "i5",
                                         "i6", "i7", "i8", "i9", "i10", "i11"};
  static constexpr char kMixKeys[][4] = {"k0", "k1", "k2", "k3", "k4",  "k5",
                                         "k6", "k7", "k8", "k9", "k10", "k11"};
  Message msg("AppendEntries", 0, 1);
  ReferenceMessage ref("AppendEntries");
  EXPECT_EQ(msg.ByteSize(), ref.ByteSize());
  const int64_t ints[] = {0, 7, -7, 10, -10, 99, 100, 123456789, -1000000000000LL,
                          INT64_MAX, INT64_MIN, INT64_MIN + 1};
  int i = 0;
  for (int64_t value : ints) {
    const auto& key = kIntKeys[i++];
    msg.SetInt(key, value);
    ref.SetInt(key, value);
    EXPECT_EQ(msg.ByteSize(), ref.ByteSize()) << value;
  }
  msg.SetStr("s", "");
  ref.SetStr("s", "");
  msg.SetStr("long", std::string(300, 'x'));
  ref.SetStr("long", std::string(300, 'x'));
  EXPECT_EQ(msg.ByteSize(), ref.ByteSize());
  // Overwrites in both directions keep one field per key.
  msg.SetStr("i0", "now a string");
  ref.SetStr("i0", "now a string");
  msg.SetInt("s", INT64_MIN);
  ref.SetInt("s", INT64_MIN);
  msg.SetInt("i1", -3);
  ref.SetInt("i1", -3);
  EXPECT_EQ(msg.ByteSize(), ref.ByteSize());

  // A seeded random mix of the same operations.
  Rng rng(5);
  for (int step = 0; step < 500; step++) {
    const auto& key = kMixKeys[rng.NextBelow(12)];
    if (rng.NextBool(0.5)) {
      const auto value = static_cast<int64_t>(rng.Next());
      msg.SetInt(key, value);
      ref.SetInt(key, value);
    } else {
      std::string value(rng.NextBelow(40), 'v');
      ref.SetStr(key, value);
      msg.SetStr(key, std::move(value));
    }
    ASSERT_EQ(msg.ByteSize(), ref.ByteSize()) << "step " << step;
  }
}

TEST(MessageTest, IntFieldParsesStringsAndFallsBackOnGarbage) {
  Message msg("T", 0, 1);
  msg.SetStr("num", "123");
  msg.SetStr("signed", "+5");
  msg.SetStr("bad", "12abc");
  msg.SetStr("empty", "");
  msg.SetInt("max", INT64_MAX);
  msg.SetInt("min", INT64_MIN);
  EXPECT_EQ(msg.IntField("num"), 123);
  EXPECT_EQ(msg.IntField("signed"), 5);
  EXPECT_EQ(msg.IntField("bad", -9), -9);
  EXPECT_EQ(msg.IntField("empty", 4), 4);
  EXPECT_EQ(msg.IntField("max"), INT64_MAX);
  EXPECT_EQ(msg.IntField("min"), INT64_MIN);
  msg.SetStr("max", "not a number");
  EXPECT_EQ(msg.IntField("max", 1), 1);
}

TEST(MessageTest, StrFieldOfAnIntIsItsDecimalForm) {
  Message msg("T", 0, 1);
  msg.SetInt("zero", 0);
  msg.SetInt("neg", -42);
  msg.SetInt("min", INT64_MIN);
  msg.SetInt("max", INT64_MAX);
  EXPECT_EQ(msg.StrField("zero"), "0");
  EXPECT_EQ(msg.StrField("neg"), "-42");
  EXPECT_EQ(msg.StrField("min"), "-9223372036854775808");
  EXPECT_EQ(msg.StrField("max"), "9223372036854775807");
  msg.SetStr("neg", "text");
  EXPECT_EQ(msg.StrField("neg"), "text");
}

TEST(MessageTest, DebugStringListsKeysSorted) {
  Message msg("Ping", 1, 2);
  msg.SetStr("zeta", "z");
  msg.SetInt("alpha", -1);
  msg.SetStr("mid", "m");
  msg.SetInt("beta", 20);
  EXPECT_EQ(msg.DebugString(), "Ping(1->2 alpha=-1 beta=20 mid=m zeta=z)");
}

TEST(RunnerTest, OracleTriggeredHaltShortensRun) {
  // RedisRaft-42's manual-style trigger: the bug fires early, so the run
  // must halt well before the 35 s horizon and report the halt time.
  const BugSpec* spec = FindBug("RedisRaft-42");
  ASSERT_NE(spec, nullptr);
  BugRunner runner(spec);
  const Profile profile = runner.RunProfiling(2);
  FaultSchedule schedule;
  ScheduledFault crash;
  crash.kind = FaultKind::kProcessCrash;
  crash.target_node = 1;
  crash.conditions.push_back(Condition::AtTime(Seconds(5)));
  schedule.faults.push_back(crash);
  RunOptions options;
  options.seed = 2;
  options.duration = spec->run_duration;
  options.schedule = &schedule;
  options.profile = &profile;
  const RunOutcome outcome = runner.RunOnce(options);
  ASSERT_TRUE(outcome.bug);
  EXPECT_LT(outcome.virtual_duration, Seconds(15));
  EXPECT_GT(outcome.virtual_duration, Seconds(5));
}

TEST(RunnerTest, CleanRunGoesToHorizon) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  RunOptions options;
  options.seed = 3;
  options.duration = Seconds(20);
  const RunOutcome outcome = runner.RunOnce(options);
  EXPECT_FALSE(outcome.bug);
  EXPECT_EQ(outcome.virtual_duration, Seconds(20));
  EXPECT_GT(outcome.client_ops_completed, 0u);
}

TEST(RunnerTest, TraceComesBackEmptyWithoutTracer) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  RunOptions options;
  options.seed = 3;
  options.duration = Seconds(10);
  options.with_tracer = false;
  const RunOutcome outcome = runner.RunOnce(options);
  EXPECT_TRUE(outcome.trace.empty());
}

TEST(NemesisTest, InjectsFaultsOfConfiguredTypes) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  SimWorld world(5);
  Deployment deployment = spec->deploy(world, 5);
  NemesisOptions options;
  options.server_count = 5;
  options.p_crash = 1.0;
  options.p_pause = 0.0;
  options.p_partition = 0.0;
  options.start_after = Seconds(1);
  Nemesis nemesis(deployment.cluster.get(), options, deployment.leader_probe);
  nemesis.Start();
  deployment.cluster->Start();
  world.loop.RunUntil(Seconds(10));
  ASSERT_FALSE(nemesis.actions().empty());
  for (const std::string& action : nemesis.actions()) {
    EXPECT_TRUE(Contains(action, "crash")) << action;
  }
}

TEST(NemesisTest, StopHaltsFurtherStrikes) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  SimWorld world(6);
  Deployment deployment = spec->deploy(world, 6);
  NemesisOptions options;
  options.server_count = 5;
  options.start_after = Seconds(1);
  Nemesis nemesis(deployment.cluster.get(), options, nullptr);
  nemesis.Start();
  deployment.cluster->Start();
  world.loop.RunUntil(Seconds(3));
  const size_t actions_at_stop = nemesis.actions().size();
  nemesis.Stop();
  world.loop.RunUntil(Seconds(15));
  EXPECT_EQ(nemesis.actions().size(), actions_at_stop);
}

TEST(NemesisTest, DeterministicPerSeed) {
  auto actions_for = [&](uint64_t seed) {
    const BugSpec* spec = FindBug("RedisRaft-42");
    SimWorld world(seed);
    Deployment deployment = spec->deploy(world, seed);
    NemesisOptions options;
    options.server_count = 5;
    options.seed = seed;
    Nemesis nemesis(deployment.cluster.get(), options, deployment.leader_probe);
    nemesis.Start();
    deployment.cluster->Start();
    world.loop.RunUntil(Seconds(15));
    return nemesis.actions();
  };
  EXPECT_EQ(actions_for(9), actions_for(9));
  EXPECT_NE(actions_for(9), actions_for(10));
}

TEST(KvClientTest, ZipfianKeysSkewTowardHotKeys) {
  const BugSpec* spec = FindBug("RedisRaft-42");
  BugRunner runner(spec);
  SimWorld world(8);
  ClusterConfig config;
  config.seed = 8;
  static const BinaryInfo binary;  // Client-only cluster needs no uprobes.
  Cluster cluster(&world.kernel, &world.network, &binary, config);
  KvClientOptions options;
  options.server_count = 1;
  options.zipfian_keys = true;
  options.key_space = 100;
  options.op_interval = Millis(5);
  options.retry_timeout = Millis(50);
  // A trivially-acking server so the client keeps issuing fresh ops.
  const NodeId sink = cluster.AddNode([](Cluster* c, NodeId id) {
    struct AckServer : GuestNode {
      AckServer(Cluster* cl, NodeId nid) : GuestNode(cl, nid, "ack") {}
      void OnStart() override {}
      void OnMessage(const Message& msg) override {
        if (msg.type == "ClientPut" || msg.type == "ClientGet") {
          Message reply(msg.type == "ClientPut" ? "ClientPutOk" : "ClientGetOk", id(),
                        msg.from);
          reply.SetStr("op", msg.StrField("op"));
          Send(msg.from, std::move(reply));
        }
      }
    };
    return std::make_unique<AckServer>(c, id);
  });
  (void)sink;
  const NodeId client_id = cluster.AddNode([options](Cluster* c, NodeId id) {
    return std::make_unique<KvClient>(c, id, options);
  });
  cluster.Start();
  world.loop.RunUntil(Seconds(30));
  auto* client = dynamic_cast<KvClient*>(cluster.node(client_id));
  std::map<std::string, int> counts;
  for (const OpRecord& record : client->history()) {
    counts[record.key]++;
  }
  ASSERT_GT(client->history().size(), 50u);
  // The hottest key should dominate a mid-tail key.
  EXPECT_GT(counts["key-0"], counts["key-50"]);
}

// Property: the entire pipeline is deterministic — same seed, same report.
class PipelineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineDeterminism, SameSeedSameDiagnosis) {
  const BugSpec* spec = FindBug(GetParam());
  ASSERT_NE(spec, nullptr);
  RoseConfig config;
  config.seed = 11;
  const RoseReport first = ReproduceBug(*spec, config);
  const RoseReport second = ReproduceBug(*spec, config);
  EXPECT_EQ(first.reproduced(), second.reproduced());
  EXPECT_EQ(first.schedules(), second.schedules());
  EXPECT_EQ(first.runs(), second.runs());
  EXPECT_EQ(first.diagnosis.fault_summary, second.diagnosis.fault_summary);
  EXPECT_EQ(first.diagnosis.schedule.ToYaml(), second.diagnosis.schedule.ToYaml());
}

INSTANTIATE_TEST_SUITE_P(FastBugs, PipelineDeterminism,
                         ::testing::Values("Zookeeper-3006", "Zookeeper-3157",
                                           "HBASE-19608", "Tendermint-5839",
                                           "Kafka-12508"));

// Documented limitation (paper §8, "Unsupported operations"): state changed
// without crossing the syscall boundary — the simulated analogue of
// memory-mapped I/O — is invisible to the tracer.
TEST(LimitationTest, MmapStyleWritesAreABlindSpot) {
  SimWorld world(13);
  world.kernel.RegisterNode(0, "10.0.0.1");
  world.kernel.Spawn(0, "p");
  TracerConfig config;
  Tracer tracer(&world.kernel, &world.network, config);
  tracer.Attach();
  // Direct disk mutation: the mmap analogue bypasses every hook.
  world.kernel.DiskOf(0).WriteAll("/data/mapped-region", std::string(4096, 'x'));
  world.kernel.DiskOf(0).WriteAt("/data/mapped-region", 128, "corrupted");
  const Trace trace = tracer.Dump();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(tracer.stats().syscalls_observed, 0u);
}

}  // namespace
}  // namespace rose
