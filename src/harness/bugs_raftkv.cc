// BugSpecs for the five RaftKV (mini RedisRaft) bugs of Table 1.
#include "src/apps/raftkv/raftkv.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"
#include "src/workload/kv_client.h"

namespace rose {

namespace {

const BinaryInfo& RaftKvBinary() {
  static const BinaryInfo binary = BuildRaftKvBinary();
  return binary;
}

int32_t Fid(const char* name) {
  const FunctionInfo* info = RaftKvBinary().FindByName(name);
  return info == nullptr ? -1 : info->id;
}

Deployment DeployRaftKv(SimWorld& world, uint64_t seed, const RaftKvOptions& options,
                        const std::string& oracle_pattern, int client_count = 2) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network, &RaftKvBinary(),
                                           cluster_config);
  Deployment deployment;
  for (int i = 0; i < options.cluster_size; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<RaftKvNode>(c, id, options);
    }));
  }
  KvClientOptions client_options;
  client_options.server_count = options.cluster_size;
  for (int i = 0; i < client_count; i++) {
    deployment.clients.push_back(cluster->AddNode([client_options](Cluster* c, NodeId id) {
      return std::make_unique<KvClient>(c, id, client_options);
    }));
  }
  Cluster* raw = cluster.get();
  const int server_count = options.cluster_size;
  deployment.leader_probe = [raw, server_count]() -> NodeId {
    for (NodeId id = 0; id < server_count; id++) {
      auto* node = dynamic_cast<RaftKvNode*>(raw->node(id));
      if (node != nullptr && node->is_leader() && raw->IsNodeAlive(id)) {
        return id;
      }
    }
    return kNoNode;
  };
  deployment.oracle = LogOracle(raw, oracle_pattern);
  deployment.cluster = std::move(cluster);
  return deployment;
}

BugSpec BaseRaftKvSpec() {
  BugSpec spec;
  spec.system = "RaftKV (mini RedisRaft, C)";
  spec.binary = &RaftKvBinary();
  spec.relevant_files = {"raft.c", "snapshot.c", "kv.c"};
  spec.run_duration = Seconds(35);
  spec.nemesis.server_count = 5;
  return spec;
}

}  // namespace

void RegisterRaftKvBugs(std::vector<BugSpec>* out) {
  // ---- RedisRaft-42 ---------------------------------------------------------
  {
    BugSpec spec = BaseRaftKvSpec();
    spec.id = "RedisRaft-42";
    spec.source = "J";
    spec.description = "Node crashes due to failed assert related to snapshot & log integrity.";
    spec.expected_faults = "PS(Crash)";
    spec.expected_level = 1;
    RaftKvOptions options;
    options.bug42 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployRaftKv(world, seed, options,
                          "ASSERTION FAILED: snapshot and log integrity");
    };
    spec.production_via_nemesis = true;
    spec.nemesis.p_crash = 0.7;
    spec.nemesis.p_pause = 0.15;
    spec.nemesis.p_partition = 0.15;
    out->push_back(std::move(spec));
  }

  // ---- RedisRaft-43 ---------------------------------------------------------
  {
    BugSpec spec = BaseRaftKvSpec();
    spec.id = "RedisRaft-43";
    spec.source = "J";
    spec.description = "Snapshot index mismatch: crash during RaftLogCreate leaves a "
                       "snapshot without a log segment.";
    spec.expected_faults = "PS(Crash)*3 + ND + PS(Crash)";
    spec.expected_level = 2;
    RaftKvOptions options;
    options.bug43 = true;
    options.snapshot_every = 50;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployRaftKv(world, seed, options,
                          "ASSERTION FAILED: snapshot and log index mismatch");
    };
    // Production trace: the Jepsen-style sequence from the paper, with the
    // final crash landing during snapshot installation.
    spec.production_via_nemesis = false;
    FaultSchedule production;
    production.name = "redisraft-43-production";
    {
      ScheduledFault f;
      f.kind = FaultKind::kProcessCrash;
      f.target_node = 1;
      f.conditions = {Condition::AtTime(Seconds(4))};
      production.faults.push_back(f);
    }
    {
      ScheduledFault f;
      f.kind = FaultKind::kProcessCrash;
      f.target_node = 2;
      f.conditions = {Condition::AtTime(Millis(5500))};
      production.faults.push_back(f);
    }
    {
      ScheduledFault f;
      f.kind = FaultKind::kProcessCrash;
      f.target_node = 3;
      f.conditions = {Condition::AtTime(Seconds(7))};
      production.faults.push_back(f);
    }
    {
      ScheduledFault f;
      f.kind = FaultKind::kNetworkPartition;
      f.target_node = 4;
      f.network.group_a = {"10.0.0.5"};
      f.network.group_b = {"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"};
      f.network.duration = Seconds(6);
      f.conditions = {Condition::AtTime(Seconds(8))};
      production.faults.push_back(f);
    }
    {
      // The critical fault: crash node 1 exactly when it (re)creates its log
      // after installing the snapshot it receives when rejoining (~6 s).
      ScheduledFault f;
      f.kind = FaultKind::kProcessCrash;
      f.target_node = 1;
      f.conditions = {Condition::AfterFault(0), Condition::FunctionEnter(Fid("RaftLogCreate"))};
      production.faults.push_back(f);
    }
    spec.manual_production = std::move(production);
    out->push_back(std::move(spec));
  }

  // ---- RedisRaft-51 ---------------------------------------------------------
  {
    BugSpec spec = BaseRaftKvSpec();
    spec.id = "RedisRaft-51";
    spec.source = "J";
    spec.description = "Leader paused mid snapshot-transfer asserts cache index integrity.";
    spec.expected_faults = "PS(Pause)*3";
    spec.expected_level = 2;
    RaftKvOptions options;
    options.bug51 = true;
    options.snapshot_every = 50;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployRaftKv(world, seed, options,
                          "ASSERTION FAILED: cache index integrity");
    };
    spec.production_via_nemesis = false;
    FaultSchedule production;
    production.name = "redisraft-51-production";
    {
      ScheduledFault f;
      f.kind = FaultKind::kProcessPause;
      f.target_node = 1;
      f.process.pause_duration = Millis(4200);
      f.conditions = {Condition::AtTime(Seconds(5))};
      production.faults.push_back(f);
    }
    {
      ScheduledFault f;
      f.kind = FaultKind::kProcessPause;
      f.target_node = 2;
      f.process.pause_duration = Millis(4200);
      f.conditions = {Condition::AtTime(Seconds(10))};
      production.faults.push_back(f);
    }
    // The role-specific pause: whichever node acts as leader sends snapshot
    // chunks; pause it right there (replicated across all nodes; only the
    // leader's replica fires).
    for (NodeId node = 0; node < 5; node++) {
      ScheduledFault f;
      f.kind = FaultKind::kProcessPause;
      f.target_node = node;
      f.process.pause_duration = Millis(4200);
      f.conditions = {Condition::AfterFault(1),
                      Condition::FunctionEnter(Fid("sendSnapshotChunk"))};
      production.faults.push_back(f);
    }
    spec.manual_production = std::move(production);
    out->push_back(std::move(spec));
  }

  // ---- RedisRaft-NEW --------------------------------------------------------
  {
    BugSpec spec = BaseRaftKvSpec();
    spec.id = "RedisRaft-NEW";
    spec.source = "J";
    spec.description = "Redis itself crashes due to an inconsistent snapshot file "
                       "(non-atomic in-place snapshot write).";
    spec.expected_faults = "ND + PS(Crash) + PS(Crash)";
    spec.expected_level = 3;
    RaftKvOptions options;
    options.bug_new = true;
    options.snapshot_every = 30;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployRaftKv(world, seed, options, "PANIC: corrupted snapshot file");
    };
    spec.production_via_nemesis = false;
    FaultSchedule production;
    production.name = "redisraft-new-production";
    {
      ScheduledFault f;
      f.kind = FaultKind::kNetworkPartition;
      f.target_node = 0;
      f.network.group_a = {"10.0.0.1"};
      f.network.group_b = {"10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5"};
      f.network.duration = Seconds(6);
      f.conditions = {Condition::AtTime(Seconds(4))};
      production.faults.push_back(f);
    }
    {
      ScheduledFault f;
      f.kind = FaultKind::kProcessCrash;
      f.target_node = 0;
      f.conditions = {Condition::AtTime(Seconds(12))};
      production.faults.push_back(f);
    }
    {
      // Crash exactly between the truncating open and the write inside
      // storeSnapshotData.
      ScheduledFault f;
      f.kind = FaultKind::kProcessCrash;
      f.target_node = 0;
      f.conditions = {Condition::AfterFault(1),
                      Condition::FunctionOffset(Fid("storeSnapshotData"), 0x10)};
      production.faults.push_back(f);
    }
    spec.manual_production = std::move(production);
    out->push_back(std::move(spec));
  }

  // ---- RedisRaft-NEW2 -------------------------------------------------------
  {
    BugSpec spec = BaseRaftKvSpec();
    spec.id = "RedisRaft-NEW2";
    spec.source = "J";
    spec.description = "Redis itself fails due to a repeated key (optimistic apply not "
                       "rolled back on log truncation).";
    spec.expected_faults = "ND";
    spec.expected_level = 1;
    RaftKvOptions options;
    options.bug_new2 = true;
    options.snapshot_every = 200;  // Keep snapshots out of the way.
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployRaftKv(world, seed, options, "repeated key");
    };
    spec.production_via_nemesis = true;
    spec.nemesis.p_crash = 0.05;
    spec.nemesis.p_pause = 0.05;
    spec.nemesis.p_partition = 0.9;
    spec.nemesis.p_target_leader = 0.8;
    out->push_back(std::move(spec));
  }
}

}  // namespace rose
