// BugSpecs for the two MiniDocStore (mini MongoDB) bugs of Table 1.
#include "src/apps/minidocstore/minidocstore.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"
#include "src/oracle/oracle.h"
#include "src/workload/kv_client.h"

namespace rose {

namespace {

const BinaryInfo& MiniDocStoreBinary() {
  static const BinaryInfo binary = BuildMiniDocStoreBinary();
  return binary;
}

enum class DsOracleKind { kDataLoss, kUnavailability };

Deployment DeployMiniDocStore(SimWorld& world, uint64_t seed,
                              const MiniDocStoreOptions& options, DsOracleKind oracle_kind) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network,
                                           &MiniDocStoreBinary(), cluster_config);
  Deployment deployment;
  for (int i = 0; i < options.cluster_size; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniDocStoreNode>(c, id, options);
    }));
  }
  KvClientOptions client_options;
  client_options.server_count = options.cluster_size;
  client_options.read_fraction = 0.0;  // Writes only (the oracle audits them).
  for (int i = 0; i < 2; i++) {
    deployment.clients.push_back(cluster->AddNode([client_options](Cluster* c, NodeId id) {
      return std::make_unique<KvClient>(c, id, client_options);
    }));
  }
  Cluster* raw = cluster.get();
  const int server_count = options.cluster_size;
  deployment.leader_probe = [raw, server_count]() -> NodeId {
    NodeId best = kNoNode;
    int64_t best_epoch = -1;
    for (NodeId id = 0; id < server_count; id++) {
      auto* node = dynamic_cast<MiniDocStoreNode*>(raw->node(id));
      if (node != nullptr && node->is_primary() && raw->IsNodeAlive(id) &&
          node->epoch() > best_epoch) {
        best = id;
        best_epoch = node->epoch();
      }
    }
    return best;
  };
  if (oracle_kind == DsOracleKind::kUnavailability) {
    deployment.oracle = LogOracle(raw, "replica set has no primary");
    deployment.cluster = std::move(cluster);
    return deployment;
  }
  // Data loss: an acknowledged write missing from the authoritative
  // primary's oplog.
  deployment.oracle = [raw, server_count, leader_probe = deployment.leader_probe] {
    const NodeId primary_id = leader_probe();
    if (primary_id == kNoNode) {
      return false;
    }
    auto* primary = dynamic_cast<MiniDocStoreNode*>(raw->node(primary_id));
    if (primary == nullptr) {
      return false;
    }
    std::vector<std::string> acked;
    for (NodeId id = server_count; id < server_count + 2; id++) {
      auto* client = dynamic_cast<KvClient*>(raw->node(id));
      if (client == nullptr) {
        continue;
      }
      for (const OpRecord& record : client->history()) {
        if (record.acknowledged) {
          acked.push_back(record.op_id);
        }
      }
    }
    const std::vector<std::string>& committed = primary->oplog();
    for (const HistoryViolation& violation :
         ElleLite::CheckAppendHistory(acked, committed)) {
      if (violation.kind == HistoryViolation::Kind::kLostWrite) {
        return true;
      }
    }
    return false;
  };
  deployment.cluster = std::move(cluster);
  return deployment;
}

}  // namespace

void RegisterMiniDocStoreBugs(std::vector<BugSpec>* out) {
  {
    BugSpec spec;
    spec.id = "MongoDB-2.4.3";
    spec.system = "MiniDocStore (mini MongoDB, C++)";
    spec.source = "M";
    spec.description = "MongoDB data loss: acknowledged writes rolled back after partition.";
    spec.binary = &MiniDocStoreBinary();
    spec.relevant_files = {"repl.c", "storage.c"};
    spec.run_duration = Seconds(35);
    spec.expected_faults = "2*ND";
    spec.expected_level = 1;
    MiniDocStoreOptions options;
    options.bug_dataloss = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniDocStore(world, seed, options, DsOracleKind::kDataLoss);
    };
    spec.production_via_nemesis = true;
    spec.nemesis.server_count = 3;
    spec.nemesis.p_crash = 0.0;
    spec.nemesis.p_pause = 0.1;
    spec.nemesis.p_partition = 0.9;
    spec.nemesis.p_target_leader = 0.85;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec;
    spec.id = "MongoDB-3.2.10";
    spec.system = "MiniDocStore (mini MongoDB, C++)";
    spec.source = "M";
    spec.description = "MongoDB unavailability: no primary elected during partition.";
    spec.binary = &MiniDocStoreBinary();
    spec.relevant_files = {"repl.c", "storage.c"};
    spec.run_duration = Seconds(35);
    spec.expected_faults = "ND";
    spec.expected_level = 1;
    MiniDocStoreOptions options;
    options.bug_unavail = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniDocStore(world, seed, options, DsOracleKind::kUnavailability);
    };
    spec.production_via_nemesis = true;
    spec.nemesis.server_count = 3;
    spec.nemesis.p_crash = 0.0;
    spec.nemesis.p_pause = 0.0;
    spec.nemesis.p_partition = 1.0;
    spec.nemesis.p_target_leader = 0.9;
    spec.nemesis.partition_min = Seconds(11);
    spec.nemesis.partition_max = Seconds(14);
    spec.nemesis.interval_min = Seconds(4);
    spec.nemesis.interval_max = Seconds(8);
    out->push_back(std::move(spec));
  }
}

}  // namespace rose
