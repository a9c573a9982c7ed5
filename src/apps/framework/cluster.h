// Guest cluster runtime: node lifecycle, message dispatch, timers, logs.
//
// One Cluster hosts the nodes of a guest system (plus workload clients) on
// top of the simulated kernel and network. It plays the role of the
// container/deployment layer in the paper's testbed:
//   - spawns one main process per node and registers its IP;
//   - routes messages through real connect()/send() syscalls so network
//     faults surface exactly where Rose expects them;
//   - supervises crashes: a crashed node is restarted after a delay with a
//     fresh pid and a fresh guest object that must recover from its disk;
//   - freezes event delivery to paused processes and flushes on resume.
#ifndef SRC_APPS_FRAMEWORK_CLUSTER_H_
#define SRC_APPS_FRAMEWORK_CLUSTER_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/framework/message.h"
#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/os/kernel.h"
#include "src/profile/binary_info.h"

namespace rose {

class GuestNode;

struct ClusterConfig {
  uint64_t seed = 1;
  SimTime restart_delay = Seconds(2);
  bool auto_restart = true;
  int max_restarts_per_node = 25;
};

class Cluster : public KernelObserver {
 public:
  using NodeFactory = std::function<std::unique_ptr<GuestNode>(Cluster*, NodeId)>;

  Cluster(SimKernel* kernel, Network* network, const BinaryInfo* binary,
          ClusterConfig config);
  ~Cluster() override;

  // Registers a node before Start(). Returns the node id (dense, from 0).
  NodeId AddNode(NodeFactory factory);

  // Spawns processes and boots every node.
  void Start();

  SimKernel& kernel() { return *kernel_; }
  Network& network() { return *network_; }
  EventLoop& loop() { return kernel_->loop(); }
  Rng& rng() { return rng_; }

  GuestNode* node(NodeId id);
  int node_count() const { return static_cast<int>(slots_.size()); }
  std::string IpOf(NodeId id) const { return kernel_->IpOf(id); }
  std::vector<std::string> AllIps() const;
  bool IsNodeAlive(NodeId id) const;

  // --- Services used by GuestNode --------------------------------------------
  bool SendMessage(GuestNode* src, NodeId dst, Message msg);
  void SetTimer(GuestNode* node, std::string_view name, SimTime delay);
  void CancelTimer(GuestNode* node, std::string_view name);
  void AppendLog(NodeId id, const std::string& line);
  // Deliberate self-crash (panic); unwinds via ProcessInterrupted.
  [[noreturn]] void Panic(GuestNode* node, const std::string& reason);

  // --- Logs (consumed by oracles) ----------------------------------------------
  const std::vector<std::string>& LogsOf(NodeId id) const;
  std::string AllLogText() const;
  int restarts_of(NodeId id) const;

  // --- KernelObserver: pause/resume bookkeeping -------------------------------
  void OnProcessStateChange(SimTime now, Pid pid, ProcState from, ProcState to) override;

 private:
  friend class GuestNode;

  struct Slot {
    NodeFactory factory;
    std::unique_ptr<GuestNode> guest;  // Null while crashed.
    // The crashed incarnation, freed only once its replacement exists, so a
    // restarted node is always a distinct object from the one that crashed.
    std::unique_ptr<GuestNode> crashed_guest;
    Pid pid = kNoPid;
    uint64_t generation = 0;
    int restarts = 0;
    bool permanently_down = false;
    IpId ip = 0;  // The node's address, interned in the network.
    std::deque<Message> pending_messages;
    std::deque<std::string> pending_timers;
    // (name, id) of armed timers; a node has a handful, so a flat scan.
    std::vector<std::pair<std::string, TimerId>> timers;
    // conn_fds[dst] is the connected socket to node dst, -1 when none.
    std::vector<int32_t> conn_fds;
    std::vector<std::string> log;
  };

  // The id `name` is registered under in the guest binary, -1 when it is
  // not registered. Each literal is looked up once per cluster, so the
  // binary must be complete before the first announcement.
  int32_t FunctionId(Literal name);
  void BootNode(NodeId id);
  void Deliver(NodeId dst, const Message& msg);
  // Runs `fn(GuestNode*)` against the current guest of `id`, converting a
  // crash unwind into supervision. Returns false if the node was not runnable.
  template <typename Fn>
  bool Dispatch(NodeId id, Fn&& fn);
  void HandleCrash(NodeId id);
  void FlushPending(NodeId id);
  void TimerFired(NodeId id, uint64_t generation, const std::string& name);

  SimKernel* kernel_;
  Network* network_;
  const BinaryInfo* binary_;
  // (literal, function id) per announced name, keyed by the literal's
  // address; a guest announces a handful of names, so a flat scan.
  std::vector<std::pair<const char*, int32_t>> function_ids_;
  ClusterConfig config_;
  Rng rng_;
  std::vector<Slot> slots_;
  bool started_ = false;
};

}  // namespace rose

#endif  // SRC_APPS_FRAMEWORK_CLUSTER_H_
