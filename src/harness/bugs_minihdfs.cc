// BugSpecs for the four MiniHdfs bugs of Table 1.
#include "src/apps/minihdfs/hdfs_client.h"
#include "src/apps/minihdfs/minihdfs.h"
#include "src/harness/bug_registry.h"
#include "src/harness/log_oracle.h"

namespace rose {

namespace {

const BinaryInfo& MiniHdfsBinary() {
  static const BinaryInfo binary = BuildMiniHdfsBinary();
  return binary;
}

Deployment DeployMiniHdfs(SimWorld& world, uint64_t seed, const MiniHdfsOptions& options,
                          const std::string& oracle_pattern) {
  ClusterConfig cluster_config;
  cluster_config.seed = seed;
  auto cluster = std::make_unique<Cluster>(&world.kernel, &world.network, &MiniHdfsBinary(),
                                           cluster_config);
  Deployment deployment;
  for (int i = 0; i < kHdfsServerCount; i++) {
    deployment.servers.push_back(cluster->AddNode([options](Cluster* c, NodeId id) {
      return std::make_unique<MiniHdfsNode>(c, id, options);
    }));
  }
  HdfsClientOptions client_options;
  for (int i = 0; i < 2; i++) {
    deployment.clients.push_back(cluster->AddNode([client_options](Cluster* c, NodeId id) {
      return std::make_unique<HdfsClient>(c, id, client_options);
    }));
  }
  Cluster* raw = cluster.get();
  deployment.leader_probe = [] { return kHdfsNameNode; };
  deployment.oracle = LogOracle(raw, oracle_pattern);
  deployment.cluster = std::move(cluster);
  return deployment;
}

BugSpec BaseHdfsSpec() {
  BugSpec spec;
  spec.system = "MiniHdfs (mini HDFS, Java)";
  spec.source = "A";
  spec.binary = &MiniHdfsBinary();
  spec.relevant_files = {"namenode.c", "datanode.c", "balancer.c"};
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

void RegisterMiniHdfsBugs(std::vector<BugSpec>* out) {
  {
    BugSpec spec = BaseHdfsSpec();
    spec.id = "HDFS-4233";
    spec.description = "NN keeps serving even after no journals started while rolling edit.";
    spec.expected_faults = "SCF(openat)";
    spec.expected_level = 1;
    MiniHdfsOptions options;
    options.bug4233 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniHdfs(world, seed, options, "no journals started while rolling edit");
    };
    FaultSchedule production;
    production.name = "hdfs-4233-production";
    production.faults.push_back(
        ScfAt(Sys::kOpenAt, Err::kEIO, "/data/edits.new", kHdfsNameNode, Seconds(4)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec = BaseHdfsSpec();
    spec.id = "HDFS-12070";
    spec.description = "Files remain open indefinitely if block recovery fails.";
    spec.expected_faults = "SCF(fstat)";
    spec.expected_level = 2;
    MiniHdfsOptions options;
    options.bug12070 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniHdfs(world, seed, options, "remains open indefinitely");
    };
    FaultSchedule production;
    production.name = "hdfs-12070-production";
    // fstat on datanode 1 during finalization of some block (~5 s in).
    production.faults.push_back(
        ScfAt(Sys::kFstat, Err::kEIO, "", kHdfsDataNode1, Seconds(5)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec = BaseHdfsSpec();
    spec.id = "HDFS-15032";
    spec.description = "Balancer crashes when it fails to contact an unavailable namenode.";
    spec.expected_faults = "SCF(connect)";
    spec.expected_level = 2;
    MiniHdfsOptions options;
    options.bug15032 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniHdfs(world, seed, options, "Balancer crashed");
    };
    FaultSchedule production;
    production.name = "hdfs-15032-production";
    // The (report_connects+1)-th connect of a balancer iteration is the
    // unguarded getBlocks call.
    production.faults.push_back(ScfAt(Sys::kConnect, Err::kETIMEDOUT, "sock:10.0.0.1",
                                      kHdfsBalancer, Seconds(4),
                                      /*nth=*/9));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
  {
    BugSpec spec = BaseHdfsSpec();
    spec.id = "HDFS-16332";
    spec.description = "Missing handling of expired block token causes slow read.";
    spec.expected_faults = "SCF(read)";
    spec.expected_level = 1;
    MiniHdfsOptions options;
    options.bug16332 = true;
    spec.deploy = [options](SimWorld& world, uint64_t seed) {
      return DeployMiniHdfs(world, seed, options, "expired block token never refreshed");
    };
    FaultSchedule production;
    production.name = "hdfs-16332-production";
    production.faults.push_back(
        ScfAt(Sys::kRead, Err::kEACCES, "/data/blocks/blk_3", kHdfsDataNode1, Seconds(6)));
    spec.manual_production = production;
    out->push_back(std::move(spec));
  }
}

}  // namespace rose
