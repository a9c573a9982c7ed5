#include <gtest/gtest.h>

#include "src/net/network.h"

namespace rose {
namespace {

class CountingTap : public IngressTap {
 public:
  explicit CountingTap(const Network* net) : net_(net) {}
  void OnPacketIn(SimTime /*now*/, IpId src, IpId dst, int64_t /*size*/) override {
    packets++;
    last_src = net_->IpName(src);
    last_dst = net_->IpName(dst);
  }
  int packets = 0;
  std::string last_src, last_dst;

 private:
  const Network* net_;
};

TEST(NetworkTest, DeliversWithLatency) {
  EventLoop loop;
  Network net(&loop, 1);
  bool delivered = false;
  net.Send("a", "b", 100, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // Not synchronous.
  loop.RunToCompletion();
  EXPECT_TRUE(delivered);
  EXPECT_GE(loop.now(), Millis(1));  // At least the base latency.
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(NetworkTest, BlockDropsOneDirection) {
  EventLoop loop;
  Network net(&loop, 1);
  net.Block("a", "b");
  int forward = 0;
  int backward = 0;
  net.Send("a", "b", 10, [&] { forward++; });
  net.Send("b", "a", 10, [&] { backward++; });
  loop.RunToCompletion();
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(backward, 1);
  EXPECT_EQ(net.packets_dropped(), 1u);
  net.Unblock("a", "b");
  net.Send("a", "b", 10, [&] { forward++; });
  loop.RunToCompletion();
  EXPECT_EQ(forward, 1);
}

TEST(NetworkTest, WildcardRules) {
  EventLoop loop;
  Network net(&loop, 1);
  net.Block("*", "b");
  EXPECT_FALSE(net.IsReachable("anything", "b"));
  EXPECT_TRUE(net.IsReachable("anything", "c"));
  net.HealAll();
  net.Block("a", "*");
  EXPECT_FALSE(net.IsReachable("a", "x"));
  EXPECT_TRUE(net.IsReachable("z", "x"));
}

TEST(NetworkTest, PartitionIsBidirectionalAndHeals) {
  EventLoop loop;
  Network net(&loop, 1);
  net.Partition({"a"}, {"b", "c"}, Seconds(5));
  EXPECT_FALSE(net.IsReachable("a", "b"));
  EXPECT_FALSE(net.IsReachable("b", "a"));
  EXPECT_FALSE(net.IsReachable("c", "a"));
  EXPECT_TRUE(net.IsReachable("b", "c"));  // Same side.
  loop.RunUntil(Seconds(6));
  EXPECT_TRUE(net.IsReachable("a", "b"));
  EXPECT_TRUE(net.IsReachable("b", "a"));
}

TEST(NetworkTest, IsolateExcludesSelfPair) {
  EventLoop loop;
  Network net(&loop, 1);
  net.Isolate("a", {"a", "b", "c"}, 0);
  EXPECT_FALSE(net.IsReachable("a", "b"));
  EXPECT_FALSE(net.IsReachable("a", "c"));
  EXPECT_TRUE(net.IsReachable("b", "c"));
}

TEST(NetworkTest, InFlightPacketsDropWhenPartitionRaisedMidFlight) {
  EventLoop loop;
  Network net(&loop, 1);
  net.set_base_latency(Millis(10));
  int delivered = 0;
  net.Send("a", "b", 10, [&] { delivered++; });
  // Raise the partition before the packet lands.
  loop.ScheduleAt(Millis(1), [&] { net.Block("a", "b"); });
  loop.RunToCompletion();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkTest, IngressTapsFireBeforeDelivery) {
  EventLoop loop;
  Network net(&loop, 1);
  CountingTap tap(&net);
  net.AddIngressTap(&tap);
  bool delivered = false;
  net.Send("x", "y", 42, [&] { delivered = true; });
  loop.RunToCompletion();
  EXPECT_EQ(tap.packets, 1);
  EXPECT_EQ(tap.last_src, "x");
  EXPECT_EQ(tap.last_dst, "y");
  EXPECT_TRUE(delivered);
  net.RemoveIngressTap(&tap);
  net.Send("x", "y", 42, [] {});
  loop.RunToCompletion();
  EXPECT_EQ(tap.packets, 1);  // Detached.
}

TEST(NetworkTest, DroppedPacketsDoNotReachTaps) {
  EventLoop loop;
  Network net(&loop, 1);
  CountingTap tap(&net);
  net.AddIngressTap(&tap);
  net.Block("a", "b");
  net.Send("a", "b", 10, [] {});
  loop.RunToCompletion();
  EXPECT_EQ(tap.packets, 0);
}

TEST(NetworkTest, LatencyIsDeterministicPerSeed) {
  std::vector<SimTime> arrivals_a;
  std::vector<SimTime> arrivals_b;
  for (auto* arrivals : {&arrivals_a, &arrivals_b}) {
    EventLoop loop;
    Network net(&loop, 99);
    for (int i = 0; i < 20; i++) {
      net.Send("a", "b", 10, [&loop, arrivals] { arrivals->push_back(loop.now()); });
    }
    loop.RunToCompletion();
  }
  EXPECT_EQ(arrivals_a, arrivals_b);
}

TEST(NetworkTest, ActiveRulesCount) {
  EventLoop loop;
  Network net(&loop, 1);
  EXPECT_EQ(net.active_rules(), 0u);
  net.Partition({"a"}, {"b"}, 0);
  EXPECT_EQ(net.active_rules(), 2u);
  net.HealAll();
  EXPECT_EQ(net.active_rules(), 0u);
}

}  // namespace
}  // namespace rose
