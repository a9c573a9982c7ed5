// Guest framework tests: message routing, timers, pause queueing, crash
// supervision, logging.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/apps/framework/cluster.h"
#include "src/apps/framework/guest_node.h"
#include "src/harness/world.h"
#include "src/profile/binary_info.h"

namespace rose {
namespace {

// A scriptable guest node for framework testing.
class EchoNode : public GuestNode {
 public:
  EchoNode(Cluster* cluster, NodeId id) : GuestNode(cluster, id, "echo") {}

  void OnStart() override {
    starts++;
    Log("echo started");
  }

  void OnMessage(const Message& msg) override {
    received.push_back(msg);
    if (msg.type == "ping") {
      Message pong("pong", id(), msg.from);
      Send(msg.from, std::move(pong));
    }
    if (msg.type == "panic") {
      Panic("told to die");
    }
    if (msg.type == "write-then-crash") {
      // Two-step durable update; a crash injected at the second syscall
      // leaves only the first half.
      WriteFileDurably("/data/first", "1");
      WriteFileDurably("/data/second", "2");
    }
  }

  void OnTimer(const std::string& name) override { timers.push_back(name); }

  void Arm(const std::string& name, SimTime delay) { SetTimer(name, delay); }
  void Disarm(const std::string& name) { CancelTimer(name); }
  void Enter(Literal function_name) { EnterFunction(function_name); }
  void Reach(Literal function_name, int32_t offset) { AtOffset(function_name, offset); }

  std::vector<Message> received;
  std::vector<std::string> timers;
  int starts = 0;
};

class FrameworkTest : public ::testing::Test {
 protected:
  FrameworkTest() : world_(7) {
    ClusterConfig config;
    config.seed = 7;
    cluster_ = std::make_unique<Cluster>(&world_.kernel, &world_.network, &binary_, config);
    a_ = cluster_->AddNode(
        [](Cluster* c, NodeId id) { return std::make_unique<EchoNode>(c, id); });
    b_ = cluster_->AddNode(
        [](Cluster* c, NodeId id) { return std::make_unique<EchoNode>(c, id); });
    cluster_->Start();
  }

  EchoNode* node(NodeId id) { return dynamic_cast<EchoNode*>(cluster_->node(id)); }

  bool LogsContainLine(const std::string& needle) {
    return cluster_->AllLogText().find(needle) != std::string::npos;
  }

  SimWorld world_;
  BinaryInfo binary_;
  std::unique_ptr<Cluster> cluster_;
  NodeId a_, b_;
};

TEST_F(FrameworkTest, MessagesRouteAndReply) {
  Message ping("ping", a_, b_);
  node(a_)->OnMessage(Message("noop", 99, a_));  // Direct call works too.
  dynamic_cast<EchoNode*>(cluster_->node(a_))->received.clear();
  // Inject a ping from a to b via the cluster.
  cluster_->SendMessage(cluster_->node(a_), b_, std::move(ping));
  world_.loop.RunUntil(Seconds(1));
  ASSERT_EQ(node(b_)->received.size(), 1u);
  EXPECT_EQ(node(b_)->received[0].type, "ping");
  ASSERT_EQ(node(a_)->received.size(), 1u);
  EXPECT_EQ(node(a_)->received[0].type, "pong");
}

TEST_F(FrameworkTest, SendFailsDuringPartitionViaConnectError) {
  world_.network.Block(cluster_->IpOf(a_), cluster_->IpOf(b_));
  Message ping("ping", a_, b_);
  EXPECT_FALSE(cluster_->SendMessage(cluster_->node(a_), b_, std::move(ping)));
  world_.loop.RunUntil(Seconds(1));
  EXPECT_TRUE(node(b_)->received.empty());
}

TEST_F(FrameworkTest, TimersFireAndCancel) {
  node(a_)->Arm("t1", Millis(10));
  node(a_)->Arm("t2", Millis(20));
  node(a_)->Disarm("t2");
  world_.loop.RunUntil(Seconds(1));
  EXPECT_EQ(node(a_)->timers, (std::vector<std::string>{"t1"}));
}

TEST_F(FrameworkTest, RearmingTimerReplacesPrevious) {
  node(a_)->Arm("t", Millis(10));
  node(a_)->Arm("t", Millis(50));
  world_.loop.RunUntil(Millis(30));
  EXPECT_TRUE(node(a_)->timers.empty());
  world_.loop.RunUntil(Millis(100));
  EXPECT_EQ(node(a_)->timers.size(), 1u);
}

TEST_F(FrameworkTest, PausedNodeQueuesMessagesAndTimers) {
  world_.kernel.Pause(node(b_)->pid(), Seconds(5));
  Message ping("ping", a_, b_);
  cluster_->SendMessage(cluster_->node(a_), b_, std::move(ping));
  node(b_)->Arm("during-pause", Millis(100));
  world_.loop.RunUntil(Seconds(3));
  EXPECT_TRUE(node(b_)->received.empty());
  EXPECT_TRUE(node(b_)->timers.empty());
  world_.loop.RunUntil(Seconds(6));  // Resume at 5 s flushes both.
  EXPECT_EQ(node(b_)->received.size(), 1u);
  EXPECT_EQ(node(b_)->timers.size(), 1u);
}

TEST_F(FrameworkTest, PanicCrashesAndSupervisorRestarts) {
  EchoNode* before = node(b_);
  Message die("panic", a_, b_);
  cluster_->SendMessage(cluster_->node(a_), b_, std::move(die));
  world_.loop.RunUntil(Seconds(1));
  EXPECT_FALSE(cluster_->IsNodeAlive(b_));
  world_.loop.RunUntil(Seconds(4));  // Default restart delay is 2 s.
  EXPECT_TRUE(cluster_->IsNodeAlive(b_));
  EchoNode* after = node(b_);
  EXPECT_NE(before, after);        // Fresh guest object.
  EXPECT_EQ(after->starts, 1);     // Booted exactly once.
  EXPECT_EQ(cluster_->restarts_of(b_), 1);
  EXPECT_TRUE(LogsContainLine("PANIC: told to die"));
}

TEST_F(FrameworkTest, ExternallyInjectedCrashAlsoSupervised) {
  world_.kernel.Kill(node(a_)->pid());
  world_.loop.RunUntil(Seconds(4));
  EXPECT_TRUE(cluster_->IsNodeAlive(a_));
  EXPECT_EQ(cluster_->restarts_of(a_), 1);
}

TEST_F(FrameworkTest, DiskSurvivesRestart) {
  world_.kernel.DiskOf(a_).WriteAll("/data/keep", "payload");
  world_.kernel.Kill(node(a_)->pid());
  world_.loop.RunUntil(Seconds(4));
  EXPECT_EQ(*world_.kernel.DiskOf(a_).ReadAll("/data/keep"), "payload");
}

TEST_F(FrameworkTest, MessagesToCrashedNodeDropped) {
  world_.kernel.Kill(node(b_)->pid());
  Message ping("ping", a_, b_);
  cluster_->SendMessage(cluster_->node(a_), b_, std::move(ping));
  world_.loop.RunUntil(Millis(500));  // Before restart.
  // After the restart the fresh node must not see the pre-crash message.
  world_.loop.RunUntil(Seconds(4));
  EXPECT_TRUE(node(b_)->received.empty());
}

// Records uprobe announcements as (pid, function id, offset); -1 for enters.
class UprobeRecorder : public KernelObserver {
 public:
  void OnFunctionEnter(SimTime /*now*/, Pid pid, int32_t function_id) override {
    seen.push_back({pid, function_id, -1});
  }
  void OnFunctionOffset(SimTime /*now*/, Pid pid, int32_t function_id,
                        int32_t offset) override {
    seen.push_back({pid, function_id, offset});
  }
  std::vector<std::array<int32_t, 3>> seen;
};

TEST_F(FrameworkTest, FunctionNamesAnnounceTheirRegistrationIds) {
  binary_.RegisterFunction("first", "echo.c");
  const int32_t second = binary_.RegisterFunction("second", "echo.c");
  ASSERT_NE(second, 0);
  UprobeRecorder recorder;
  world_.kernel.AddObserver(&recorder);
  node(a_)->Enter("unregistered");
  node(a_)->Reach("unregistered", 0x08);
  EXPECT_TRUE(recorder.seen.empty());
  node(a_)->Enter("second");
  node(a_)->Enter("second");
  node(a_)->Reach("second", 0x10);
  const Pid pid = node(a_)->pid();
  EXPECT_EQ(recorder.seen, (std::vector<std::array<int32_t, 3>>{
                               {pid, second, -1}, {pid, second, -1}, {pid, second, 0x10}}));
  world_.kernel.RemoveObserver(&recorder);
}

TEST_F(FrameworkTest, LogsCarryNodePrefixAndAggregate) {
  cluster_->AppendLog(a_, "hello from a");
  EXPECT_FALSE(cluster_->LogsOf(a_).empty());
  EXPECT_TRUE(LogsContainLine("hello from a"));
}

}  // namespace
}  // namespace rose
