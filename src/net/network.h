// Simulated network fabric.
//
// Stands in for the data-plane pieces Rose uses on Linux:
//  - TC drop filters  -> DropRule set consulted on every delivery (and by
//    connect() through the NetReachability interface)
//  - XDP ingress hook -> IngressTap observers notified when a packet reaches
//    the receiving NIC, before "the stack" (i.e. before the deliver callback)
//
// The fabric is payload-agnostic: the guest framework hands it a closure to
// run at delivery time. Latency is base + seeded jitter, so message ordering
// varies across seeds but is identical for identical (seed, schedule) pairs.
//
// Addresses are interned: the string API (rules, tests) maps each ip to a
// dense IpId once, and the data plane — Send, IsReachable, in-flight packets
// and the ingress taps — works on ids only.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/os/kernel.h"
#include "src/sim/event_loop.h"

namespace rose {

// Interned ip address (dense, from 0, in first-seen order per Network).
using IpId = uint32_t;

// XDP-analogue: observes packets at receiver ingress. Network::IpName
// resolves the ids.
class IngressTap {
 public:
  virtual ~IngressTap() = default;
  virtual void OnPacketIn(SimTime now, IpId src, IpId dst, int64_t size) = 0;
};

class Network : public NetReachability {
 public:
  Network(EventLoop* loop, uint64_t seed);

  // --- Addresses ---------------------------------------------------------------
  IpId InternIp(std::string_view ip);
  const std::string& IpName(IpId id) const { return ips_[id]; }

  // --- Latency model ---------------------------------------------------------
  void set_base_latency(SimTime base) { base_latency_ = base; }
  void set_jitter(SimTime jitter) { jitter_ = jitter; }

  // --- TC-style fault rules ---------------------------------------------------
  // Blocks src->dst (one direction). "*" matches any ip.
  void Block(const std::string& src_ip, const std::string& dst_ip);
  void Unblock(const std::string& src_ip, const std::string& dst_ip);
  // Blocks both directions between every pair across the two groups for
  // `duration` (0 = until explicitly healed).
  void Partition(const std::vector<std::string>& group_a,
                 const std::vector<std::string>& group_b, SimTime duration);
  // Isolates one node from everyone else for `duration`.
  void Isolate(const std::string& ip, const std::vector<std::string>& others,
               SimTime duration);
  void HealAll();
  bool IsReachable(const std::string& src_ip, const std::string& dst_ip) override;

  // --- Data plane --------------------------------------------------------------
  // Sends `size` bytes src->dst; `deliver` runs at the receiver after the
  // ingress taps fire. Dropped silently when a rule matches (like TC).
  void Send(IpId src, IpId dst, int64_t size, EventCallback deliver);
  void Send(std::string_view src_ip, std::string_view dst_ip, int64_t size,
            EventCallback deliver) {
    Send(InternIp(src_ip), InternIp(dst_ip), size, std::move(deliver));
  }

  void AddIngressTap(IngressTap* tap);
  void RemoveIngressTap(IngressTap* tap);

  // --- Introspection -----------------------------------------------------------
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  size_t active_rules() const { return rules_.size(); }

 private:
  // Never matches a rule: the id of an ip no rule has mentioned.
  static constexpr IpId kUnknownIp = UINT32_MAX;

  struct Packet {
    IpId src = 0;
    IpId dst = 0;
    int64_t size = 0;
    EventCallback deliver;
  };

  IpId FindIp(std::string_view ip) const;
  bool IsReachable(IpId src, IpId dst) const;
  std::vector<IpId> InternAll(const std::vector<std::string>& ips);
  void Arrive(uint32_t slot);
  SimTime NextLatency();

  EventLoop* loop_;
  Rng rng_;
  SimTime base_latency_ = Millis(1);
  SimTime jitter_ = Micros(500);
  std::vector<std::string> ips_;  // IpId -> address.
  IpId wildcard_;                 // The interned "*".
  std::set<std::pair<IpId, IpId>> rules_;
  // Packets on the wire; the delivery event carries only the slot index.
  std::vector<Packet> in_flight_;
  std::vector<uint32_t> free_packets_;
  std::vector<IngressTap*> taps_;
  uint64_t packets_delivered_ = 0;
  uint64_t packets_dropped_ = 0;
};

}  // namespace rose

#endif  // SRC_NET_NETWORK_H_
