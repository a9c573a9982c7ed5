// BugSpec for the MiniTableStore (mini HBase) bug of Table 1.
#include "src/apps/minitablestore/minitablestore.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"

namespace rose {

namespace {

const BinaryInfo& MiniTableStoreBinary() {
  static const BinaryInfo binary = BuildMiniTableStoreBinary();
  return binary;
}

Deployment DeployMiniTableStore(SimWorld& world, uint64_t seed,
                                const MiniTableStoreOptions& options) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network,
                                           &MiniTableStoreBinary(), cluster_config);
  Deployment deployment;
  for (int i = 0; i < 3; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniTableStoreNode>(c, id, options);
    }));
  }
  Cluster* raw = cluster.get();
  deployment.leader_probe = [] { return kTableMaster; };
  deployment.oracle = LogOracle(raw, "duplicate procedure execution detected");
  deployment.cluster = std::move(cluster);
  return deployment;
}

}  // namespace

void RegisterMiniTableStoreBugs(std::vector<BugSpec>* out) {
  BugSpec spec;
  spec.id = "HBASE-19608";
  spec.system = "MiniTableStore (mini HBase, Java)";
  spec.source = "A";
  spec.description = "Race in MasterRpcServices.getProcedureResult.";
  spec.binary = &MiniTableStoreBinary();
  spec.relevant_files = {"master.c"};
  spec.run_duration = Seconds(25);
  spec.expected_faults = "SCF(openat)";
  spec.expected_level = 1;
  MiniTableStoreOptions options;
  options.bug19608 = true;
  spec.deploy = [options](SimWorld& world, uint64_t seed) {
    return DeployMiniTableStore(world, seed, options);
  };
  spec.production_via_nemesis = false;
  FaultSchedule production;
  production.name = "hbase-19608-production";
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = kTableMaster;
  fault.syscall.sys = Sys::kOpenAt;
  fault.syscall.err = Err::kEIO;
  fault.syscall.path_filter = "/data/procs.wal";
  fault.syscall.nth = 1;
  fault.conditions = {Condition::AtTime(Seconds(4))};
  production.faults.push_back(fault);
  spec.manual_production = production;
  out->push_back(std::move(spec));
}

}  // namespace rose
