// BugSpec for the MiniBroker (mini Kafka Streams) bug of Table 1.
#include "src/apps/minibroker/minibroker.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"

namespace rose {

namespace {

const BinaryInfo& MiniBrokerBinary() {
  static const BinaryInfo binary = BuildMiniBrokerBinary();
  return binary;
}

Deployment DeployMiniBroker(SimWorld& world, uint64_t seed, const MiniBrokerOptions& options) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network,
                                           &MiniBrokerBinary(), cluster_config);
  Deployment deployment;
  for (int i = 0; i < 2; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniBrokerNode>(c, id, options);
    }));
  }
  Cluster* raw = cluster.get();
  deployment.leader_probe = [] { return kBrokerStreams; };
  deployment.oracle = LogOracle(raw, "emit-on-change updates lost");
  deployment.cluster = std::move(cluster);
  return deployment;
}

}  // namespace

void RegisterMiniBrokerBugs(std::vector<BugSpec>* out) {
  BugSpec spec;
  spec.id = "Kafka-12508";
  spec.system = "MiniBroker (mini Kafka Streams, Java/Scala)";
  spec.source = "A";
  spec.description = "Emit-on-change tables may lose updates on error or restart.";
  spec.binary = &MiniBrokerBinary();
  spec.relevant_files = {"streams.c"};
  spec.run_duration = Seconds(25);
  spec.expected_faults = "SCF(openat)";
  spec.expected_level = 1;
  MiniBrokerOptions options;
  options.bug12508 = true;
  spec.deploy = [options](SimWorld& world, uint64_t seed) {
    return DeployMiniBroker(world, seed, options);
  };
  spec.production_via_nemesis = false;
  FaultSchedule production;
  production.name = "kafka-12508-production";
  ScheduledFault fault;
  fault.kind = FaultKind::kSyscallFailure;
  fault.target_node = kBrokerStreams;
  fault.syscall.sys = Sys::kOpenAt;
  fault.syscall.err = Err::kEIO;
  fault.syscall.path_filter = "/data/changelog";
  fault.syscall.nth = 1;
  fault.conditions = {Condition::AtTime(Seconds(6))};
  production.faults.push_back(fault);
  spec.manual_production = production;
  out->push_back(std::move(spec));
}

}  // namespace rose
