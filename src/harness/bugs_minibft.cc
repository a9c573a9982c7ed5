// BugSpec for the MiniBft (mini Tendermint) bug of Table 1.
#include "src/apps/minibft/minibft.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"

namespace rose {

namespace {

const BinaryInfo& MiniBftBinary() {
  static const BinaryInfo binary = BuildMiniBftBinary();
  return binary;
}

Deployment DeployMiniBft(SimWorld& world, uint64_t seed, const MiniBftOptions& options) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network, &MiniBftBinary(),
                                           cluster_config);
  Deployment deployment;
  for (int i = 0; i < options.cluster_size; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniBftNode>(c, id, options);
    }));
  }
  Cluster* raw = cluster.get();
  deployment.leader_probe = [] { return static_cast<NodeId>(0); };
  deployment.oracle = LogOracle(raw, "unexpected validator key change");
  deployment.cluster = std::move(cluster);
  return deployment;
}

}  // namespace

void RegisterMiniBftBugs(std::vector<BugSpec>* out) {
  BugSpec spec;
  spec.id = "Tendermint-5839";
  spec.system = "MiniBft (mini Tendermint, Go)";
  spec.source = "M";
  spec.description = "Does not validate permissions to access the validator key file.";
  spec.binary = &MiniBftBinary();
  spec.relevant_files = {"privval.c", "consensus.c"};
  spec.run_duration = Seconds(25);
  spec.expected_faults = "SCF(openat)";
  spec.expected_level = 1;
  MiniBftOptions options;
  options.bug5839 = true;
  spec.deploy = [options](SimWorld& world, uint64_t seed) {
    return DeployMiniBft(world, seed, options);
  };
  spec.production_via_nemesis = false;
  FaultSchedule production;
  production.name = "tendermint-5839-production";
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = 1;
  fault.syscall.sys = Sys::kOpenAt;
  fault.syscall.err = Err::kEACCES;
  fault.syscall.path_filter = "/data/priv_validator_key.json";
  fault.syscall.nth = 1;
  fault.conditions = {Condition::AtTime(Seconds(5))};
  production.faults.push_back(fault);
  spec.manual_production = production;
  out->push_back(std::move(spec));
}

}  // namespace rose
