// BugSpecs for the four MiniZk (mini ZooKeeper) bugs of Table 1.
#include "src/apps/minizk/minizk.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"
#include "src/workload/kv_client.h"

namespace rose {

namespace {

const BinaryInfo& MiniZkBinary() {
  static const BinaryInfo binary = BuildMiniZkBinary();
  return binary;
}

Deployment DeployMiniZk(SimWorld& world, uint64_t seed, const MiniZkOptions& options,
                        const std::string& oracle_pattern) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network, &MiniZkBinary(),
                                           cluster_config);
  Deployment deployment;
  for (int i = 0; i < options.cluster_size; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniZkNode>(c, id, options);
    }));
  }
  KvClientOptions client_options;
  client_options.server_count = options.cluster_size;
  for (int i = 0; i < 2; i++) {
    deployment.clients.push_back(cluster->AddNode([client_options](Cluster* c, NodeId id) {
      return std::make_unique<KvClient>(c, id, client_options);
    }));
  }
  Cluster* raw = cluster.get();
  const int server_count = options.cluster_size;
  deployment.leader_probe = [raw, server_count]() -> NodeId {
    for (NodeId id = 0; id < server_count; id++) {
      auto* node = dynamic_cast<MiniZkNode*>(raw->node(id));
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

BugSpec BaseZkSpec() {
  BugSpec spec;
  spec.system = "MiniZk (mini ZooKeeper, Java)";
  spec.source = "A";
  spec.binary = &MiniZkBinary();
  spec.relevant_files = {"quorum.c", "txnlog.c", "snapshot.c", "session.c"};
  spec.run_duration = Seconds(30);
  spec.production_via_nemesis = false;
  return spec;
}

ScheduledFault ScfAt(Sys sys, Err err, const std::string& path, NodeId node, SimTime at,
                     int nth = 1) {
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = node;
  fault.syscall.sys = sys;
  fault.syscall.err = err;
  fault.syscall.path_filter = path;
  fault.syscall.nth = nth;
  fault.conditions = {Condition::AtTime(at)};
  return fault;
}

}  // namespace

void RegisterMiniZkBugs(std::vector<BugSpec>* out) {
  {
    BugSpec spec = BaseZkSpec();
    spec.id = "Zookeeper-2247";
    spec.description =
        "Service becomes unavailable when leader fails to write transaction log.";
    spec.expected_faults = "SCF(write)";
    spec.expected_level = 2;
    MiniZkOptions options;
    options.bug2247 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniZk(world, seed, options,
                          "txn log write failed; service unavailable");
    };
    FaultSchedule production;
    production.name = "zk-2247-production";
    production.faults.push_back(
        ScfAt(Sys::kWrite, Err::kEIO, "/data/txnlog", 0, Seconds(6)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec = BaseZkSpec();
    spec.id = "Zookeeper-3006";
    spec.description = "Invalid disk file content causes null pointer exception.";
    spec.expected_faults = "SCF(read)";
    spec.expected_level = 1;
    MiniZkOptions options;
    options.bug3006 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniZk(world, seed, options,
                          "NullPointerException while computing snapshot size");
    };
    FaultSchedule production;
    production.name = "zk-3006-production";
    production.faults.push_back(
        ScfAt(Sys::kRead, Err::kEIO, "/data/snapshot.0", 0, Seconds(6)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec = BaseZkSpec();
    spec.id = "Zookeeper-3157";
    spec.description = "Connection loss causes the client to fail.";
    spec.expected_faults = "SCF(read)";
    spec.expected_level = 1;
    MiniZkOptions options;
    options.bug3157 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniZk(world, seed, options, "connection loss causes client failure");
    };
    FaultSchedule production;
    production.name = "zk-3157-production";
    // The first client lives on node 3 -> ip 10.0.0.4.
    production.faults.push_back(
        ScfAt(Sys::kRead, Err::kECONNRESET, "sock:10.0.0.4", 0, Seconds(5)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec = BaseZkSpec();
    spec.id = "Zookeeper-4203";
    spec.description = "The leader election is stuck forever due to connection error.";
    spec.expected_faults = "SCF(accept)";
    spec.expected_level = 2;
    MiniZkOptions options;
    options.bug4203 = true;
    options.resign_interval = Seconds(8);
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniZk(world, seed, options, "leader election stuck forever");
    };
    FaultSchedule production;
    production.name = "zk-4203-production";
    production.faults.push_back(
        ScfAt(Sys::kAccept, Err::kECONNRESET, "sock:10.0.0.2", 0, Seconds(9)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
}

}  // namespace rose
