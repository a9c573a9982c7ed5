// RaftKV guest tests: healthy consensus behavior plus targeted checks that
// each seeded defect (a) stays dormant without its trigger and (b) fires
// under the precise fault context.
#include <gtest/gtest.h>

#include "src/apps/raftkv/raftkv.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/exec/executor.h"
#include "src/harness/world.h"
#include "src/oracle/oracle.h"
#include "src/workload/kv_client.h"

namespace rose {
namespace {

struct RaftKvWorld {
  explicit RaftKvWorld(uint64_t seed, RaftKvOptions options = {}, int clients = 2)
      : world(seed), binary(BuildRaftKvBinary()) {
    ClusterConfig config;
    config.seed = seed;
    cluster = std::make_unique<Cluster>(&world.kernel, &world.network, &binary, config);
    for (int i = 0; i < options.cluster_size; i++) {
      cluster->AddNode([options](Cluster* c, NodeId id) {
        return std::make_unique<RaftKvNode>(c, id, options);
      });
    }
    KvClientOptions client_options;
    client_options.server_count = options.cluster_size;
    for (int i = 0; i < clients; i++) {
      client_ids.push_back(cluster->AddNode([client_options](Cluster* c, NodeId id) {
        return std::make_unique<KvClient>(c, id, client_options);
      }));
    }
    server_count = options.cluster_size;
  }

  RaftKvNode* server(NodeId id) { return dynamic_cast<RaftKvNode*>(cluster->node(id)); }
  KvClient* client(size_t i) {
    return dynamic_cast<KvClient*>(cluster->node(client_ids[i]));
  }

  NodeId Leader() {
    for (NodeId id = 0; id < server_count; id++) {
      RaftKvNode* node = server(id);
      if (node != nullptr && node->is_leader() && cluster->IsNodeAlive(id)) {
        return id;
      }
    }
    return kNoNode;
  }

  SimWorld world;
  BinaryInfo binary;
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> client_ids;
  int server_count;
};

TEST(RaftKvTest, ElectsLowIdLeaderAndServesClients) {
  RaftKvWorld world(11);
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(10));
  EXPECT_EQ(world.Leader(), 0);  // Staggered timeouts favour node 0.
  EXPECT_GT(world.client(0)->ops_completed(), 10u);
  EXPECT_GT(world.client(1)->ops_completed(), 10u);
}

TEST(RaftKvTest, ReplicatesToAllNodes) {
  RaftKvWorld world(12);
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(10));
  const RaftKvNode* leader = world.server(0);
  ASSERT_NE(leader, nullptr);
  ASSERT_GT(leader->commit_index(), 0);
  for (NodeId id = 1; id < 5; id++) {
    EXPECT_GT(world.server(id)->commit_index(), leader->commit_index() / 2);
  }
}

TEST(RaftKvTest, ReelectsAfterLeaderCrash) {
  RaftKvWorld world(13);
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(5));
  ASSERT_EQ(world.Leader(), 0);
  world.world.kernel.Kill(world.server(0)->pid());
  world.world.loop.RunUntil(Seconds(7));
  const NodeId new_leader = world.Leader();
  EXPECT_NE(new_leader, kNoNode);
  EXPECT_NE(new_leader, 0);
  // Node 0 restarts and rejoins as a follower; node 0 eventually reclaims.
  world.world.loop.RunUntil(Seconds(15));
  EXPECT_NE(world.Leader(), kNoNode);
}

TEST(RaftKvTest, SnapshotsAndCompactionHappenDuringNormalOperation) {
  RaftKvOptions options;
  options.snapshot_every = 8;
  RaftKvWorld world(14, options);
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(10));
  EXPECT_TRUE(world.world.kernel.DiskOf(0).Exists("/data/snapshot"));
  EXPECT_TRUE(Contains(world.cluster->AllLogText(), "snapshot taken"));
}

TEST(RaftKvTest, HealthyClusterSurvivesCrashesWithoutAsserts) {
  RaftKvWorld world(15);
  world.cluster->Start();
  world.world.loop.ScheduleAt(Seconds(4), [&] {
    world.world.kernel.Kill(world.server(1)->pid());
  });
  world.world.loop.ScheduleAt(Seconds(7), [&] {
    world.world.kernel.Kill(world.server(0)->pid());
  });
  world.world.loop.RunUntil(Seconds(20));
  EXPECT_FALSE(Contains(world.cluster->AllLogText(), "ASSERTION FAILED"));
  EXPECT_FALSE(Contains(world.cluster->AllLogText(), "corrupted snapshot"));
}

TEST(RaftKvTest, HealthyClusterSurvivesPartition) {
  RaftKvWorld world(16);
  world.cluster->Start();
  world.world.loop.ScheduleAt(Seconds(4), [&] {
    world.world.network.Isolate("10.0.0.1", world.cluster->AllIps(), Seconds(6));
  });
  world.world.loop.RunUntil(Seconds(25));
  EXPECT_FALSE(Contains(world.cluster->AllLogText(), "ASSERTION FAILED"));
  EXPECT_FALSE(Contains(world.cluster->AllLogText(), "repeated key"));
  EXPECT_NE(world.Leader(), kNoNode);
}

TEST(RaftKvTest, Bug42FiresOnAnyCrashAfterCompaction) {
  RaftKvOptions options;
  options.bug42 = true;
  RaftKvWorld world(17, options);
  world.cluster->Start();
  world.world.loop.ScheduleAt(Seconds(5), [&] {
    world.world.kernel.Kill(world.server(2)->pid());
  });
  world.world.loop.RunUntil(Seconds(12));
  EXPECT_TRUE(Contains(world.cluster->AllLogText(),
                       "ASSERTION FAILED: snapshot and log integrity"));
}

TEST(RaftKvTest, Bug42DormantWithoutCrash) {
  RaftKvOptions options;
  options.bug42 = true;
  RaftKvWorld world(18, options);
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(15));
  EXPECT_FALSE(Contains(world.cluster->AllLogText(), "ASSERTION FAILED"));
}

TEST(RaftKvTest, Bug43FiresOnCrashInsideRaftLogCreate) {
  RaftKvOptions options;
  options.bug43 = true;
  options.snapshot_every = 50;
  RaftKvWorld world(19, options);

  FaultSchedule schedule;
  {
    ScheduledFault crash;
    crash.kind = FaultKind::kProcessCrash;
    crash.target_node = 1;
    crash.conditions.push_back(Condition::AtTime(Seconds(4)));
    schedule.faults.push_back(crash);
  }
  {
    ScheduledFault trigger;
    trigger.kind = FaultKind::kProcessCrash;
    trigger.target_node = 1;
    const FunctionInfo* info = world.binary.FindByName("RaftLogCreate");
    trigger.conditions.push_back(Condition::AfterFault(0));
    trigger.conditions.push_back(Condition::FunctionEnter(info->id));
    schedule.faults.push_back(trigger);
  }
  Executor executor(&world.world.kernel, &world.world.network, schedule);
  executor.Attach();
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(20));
  EXPECT_TRUE(executor.Feedback().AllInjected());
  EXPECT_TRUE(Contains(world.cluster->AllLogText(),
                       "snapshot and log index mismatch"));
}

TEST(RaftKvTest, Bug43DormantWhenCrashMissesTheWindow) {
  RaftKvOptions options;
  options.bug43 = true;
  options.snapshot_every = 50;
  RaftKvWorld world(20, options);
  FaultSchedule schedule;
  ScheduledFault crash;
  crash.kind = FaultKind::kProcessCrash;
  crash.target_node = 1;
  crash.conditions.push_back(Condition::AtTime(Seconds(4)));
  schedule.faults.push_back(crash);
  Executor executor(&world.world.kernel, &world.world.network, schedule);
  executor.Attach();
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(20));
  EXPECT_FALSE(Contains(world.cluster->AllLogText(), "snapshot and log index mismatch"));
}

TEST(RaftKvTest, BugNewFiresOnlyAtWriteOffset) {
  for (const auto& [offset, expect_bug] :
       std::vector<std::pair<int32_t, bool>>{{0x08, false}, {0x10, true}}) {
    RaftKvOptions options;
    options.bug_new = true;
    options.snapshot_every = 8;
    RaftKvWorld world(21, options);
    FaultSchedule schedule;
    ScheduledFault crash;
    crash.kind = FaultKind::kProcessCrash;
    crash.target_node = 2;
    const FunctionInfo* info = world.binary.FindByName("storeSnapshotData");
    crash.conditions.push_back(Condition::FunctionOffset(info->id, offset));
    schedule.faults.push_back(crash);
    Executor executor(&world.world.kernel, &world.world.network, schedule);
    executor.Attach();
    world.cluster->Start();
    world.world.loop.RunUntil(Seconds(20));
    EXPECT_EQ(Contains(world.cluster->AllLogText(), "corrupted snapshot file"), expect_bug)
        << "offset 0x" << std::hex << offset;
  }
}

TEST(RaftKvTest, BugNew2FiresWhenLeaderIsolatedMidOp) {
  RaftKvOptions options;
  options.bug_new2 = true;
  options.snapshot_every = 200;
  RaftKvWorld world(22, options);
  world.cluster->Start();
  world.world.loop.ScheduleAt(Seconds(5), [&] {
    std::vector<std::string> server_ips;
    for (NodeId id = 0; id < 5; id++) {
      server_ips.push_back(world.cluster->IpOf(id));
    }
    world.world.network.Isolate("10.0.0.1", server_ips, Seconds(8));
  });
  world.world.loop.RunUntil(Seconds(25));
  EXPECT_TRUE(Contains(world.cluster->AllLogText(), "repeated key"));
}

TEST(RaftKvTest, Bug51FiresWhenLeaderPausedMidTransfer) {
  RaftKvOptions options;
  options.bug51 = true;
  options.snapshot_every = 50;
  RaftKvWorld world(23, options);
  FaultSchedule schedule;
  {
    // Lag a follower so the leader starts a snapshot transfer.
    ScheduledFault lag;
    lag.kind = FaultKind::kProcessPause;
    lag.target_node = 1;
    lag.process.pause_duration = Millis(4200);
    lag.conditions.push_back(Condition::AtTime(Seconds(4)));
    schedule.faults.push_back(lag);
  }
  {
    // Pause the leader exactly as it sends a chunk.
    ScheduledFault pause;
    pause.kind = FaultKind::kProcessPause;
    pause.target_node = 0;
    pause.process.pause_duration = Millis(4200);
    const FunctionInfo* info = world.binary.FindByName("sendSnapshotChunk");
    pause.conditions.push_back(Condition::AfterFault(0));
    pause.conditions.push_back(Condition::FunctionEnter(info->id));
    schedule.faults.push_back(pause);
  }
  Executor executor(&world.world.kernel, &world.world.network, schedule);
  executor.Attach();
  world.cluster->Start();
  world.world.loop.RunUntil(Seconds(25));
  EXPECT_TRUE(Contains(world.cluster->AllLogText(), "cache index integrity"));
}

// FNV-1a over every server's files (path and bytes) and the cluster's logs
// after two crashes and a partition, with snapshots, compactions and
// snapshot transfers along the way. golden_test pins logs and dumps but not
// disk bytes; this pins what log appends, rewrites, compactions and
// snapshot installs write.
TEST(RaftKvTest, DiskImagesAndLogsArePinned) {
  RaftKvOptions options;
  options.snapshot_every = 8;
  RaftKvWorld world(24, options);
  world.cluster->Start();
  world.world.loop.ScheduleAt(Seconds(4), [&] {
    world.world.kernel.Kill(world.server(1)->pid());
  });
  world.world.loop.ScheduleAt(Seconds(6), [&] {
    world.world.network.Isolate("10.0.0.1", world.cluster->AllIps(), Seconds(5));
  });
  world.world.loop.ScheduleAt(Seconds(13), [&] {
    if (RaftKvNode* node = world.server(0)) {
      world.world.kernel.Kill(node->pid());
    }
  });
  world.world.loop.RunUntil(Seconds(25));
  uint64_t hash = kFnvOffsetBasis;
  for (NodeId id = 0; id < world.server_count; id++) {
    const InMemoryFileSystem& disk = world.world.kernel.DiskOf(id);
    for (const std::string& path : disk.ListFiles("/")) {
      const std::string contents = disk.ReadAll(path).value_or("");
      hash = Fnv1a(hash, static_cast<uint64_t>(id));
      hash = Fnv1a(hash, path);
      hash = Fnv1a(hash, static_cast<uint64_t>(contents.size()));
      hash = Fnv1a(hash, contents);
    }
  }
  hash = Fnv1a(hash, world.cluster->AllLogText());
  EXPECT_EQ(hash, 0x9e86b5b2b77a1d91ULL);
}

// Determinism property: identical (seed, schedule) pairs produce identical
// logs — the foundation of Rose's replay-rate measurements.
class RaftKvDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaftKvDeterminism, SameSeedSameExecution) {
  auto run = [&](std::string* logs) {
    RaftKvOptions options;
    options.bug42 = true;
    RaftKvWorld world(GetParam(), options);
    FaultSchedule schedule;
    ScheduledFault crash;
    crash.kind = FaultKind::kProcessCrash;
    crash.target_node = 2;
    crash.conditions.push_back(Condition::AtTime(Seconds(5)));
    schedule.faults.push_back(crash);
    Executor executor(&world.world.kernel, &world.world.network, schedule);
    executor.Attach();
    world.cluster->Start();
    world.world.loop.RunUntil(Seconds(12));
    *logs = world.cluster->AllLogText();
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaftKvDeterminism, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace rose
