#include "src/net/network.h"

#include <algorithm>

namespace rose {

Network::Network(EventLoop* loop, uint64_t seed)
    : loop_(loop), rng_(seed), wildcard_(InternIp("*")) {}

IpId Network::FindIp(std::string_view ip) const {
  for (size_t i = 0; i < ips_.size(); i++) {
    if (ips_[i] == ip) {
      return static_cast<IpId>(i);
    }
  }
  return kUnknownIp;
}

IpId Network::InternIp(std::string_view ip) {
  const IpId found = FindIp(ip);
  if (found != kUnknownIp) {
    return found;
  }
  ips_.emplace_back(ip);
  return static_cast<IpId>(ips_.size() - 1);
}

std::vector<IpId> Network::InternAll(const std::vector<std::string>& ips) {
  std::vector<IpId> ids;
  ids.reserve(ips.size());
  for (const std::string& ip : ips) {
    ids.push_back(InternIp(ip));
  }
  return ids;
}

void Network::Block(const std::string& src_ip, const std::string& dst_ip) {
  rules_.insert({InternIp(src_ip), InternIp(dst_ip)});
}

void Network::Unblock(const std::string& src_ip, const std::string& dst_ip) {
  rules_.erase({InternIp(src_ip), InternIp(dst_ip)});
}

void Network::Partition(const std::vector<std::string>& group_a,
                        const std::vector<std::string>& group_b, SimTime duration) {
  std::vector<IpId> a_ids = InternAll(group_a);
  std::vector<IpId> b_ids = InternAll(group_b);
  for (IpId a : a_ids) {
    for (IpId b : b_ids) {
      rules_.insert({a, b});
      rules_.insert({b, a});
    }
  }
  if (duration > 0) {
    loop_->ScheduleAfter(duration, [this, a_ids = std::move(a_ids), b_ids = std::move(b_ids)] {
      for (IpId a : a_ids) {
        for (IpId b : b_ids) {
          rules_.erase({a, b});
          rules_.erase({b, a});
        }
      }
    });
  }
}

void Network::Isolate(const std::string& ip, const std::vector<std::string>& others,
                      SimTime duration) {
  std::vector<std::string> rest;
  for (const auto& other : others) {
    if (other != ip) {
      rest.push_back(other);
    }
  }
  Partition({ip}, rest, duration);
}

void Network::HealAll() { rules_.clear(); }

bool Network::IsReachable(IpId src, IpId dst) const {
  if (rules_.empty()) {
    return true;
  }
  return rules_.count({src, dst}) == 0 && rules_.count({wildcard_, dst}) == 0 &&
         rules_.count({src, wildcard_}) == 0;
}

bool Network::IsReachable(const std::string& src_ip, const std::string& dst_ip) {
  return IsReachable(FindIp(src_ip), FindIp(dst_ip));
}

SimTime Network::NextLatency() {
  if (jitter_ <= 0) {
    return base_latency_;
  }
  return base_latency_ + static_cast<SimTime>(rng_.NextBelow(static_cast<uint64_t>(jitter_)));
}

void Network::Send(IpId src, IpId dst, int64_t size, EventCallback deliver) {
  if (!IsReachable(src, dst)) {
    packets_dropped_++;
    return;
  }
  const SimTime latency = NextLatency();
  uint32_t slot = 0;
  if (free_packets_.empty()) {
    slot = static_cast<uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_packets_.back();
    free_packets_.pop_back();
  }
  Packet& packet = in_flight_[slot];
  packet.src = src;
  packet.dst = dst;
  packet.size = size;
  packet.deliver = std::move(deliver);
  loop_->ScheduleAfter(latency, [this, slot] { Arrive(slot); });
}

void Network::Arrive(uint32_t slot) {
  Packet packet = std::move(in_flight_[slot]);
  free_packets_.push_back(slot);
  // Rules are re-checked at arrival so a partition raised mid-flight drops
  // in-transit packets too.
  if (!IsReachable(packet.src, packet.dst)) {
    packets_dropped_++;
    return;
  }
  packets_delivered_++;
  for (IngressTap* tap : taps_) {
    tap->OnPacketIn(loop_->now(), packet.src, packet.dst, packet.size);
  }
  packet.deliver();
}

void Network::AddIngressTap(IngressTap* tap) { taps_.push_back(tap); }

void Network::RemoveIngressTap(IngressTap* tap) {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), tap), taps_.end());
}

}  // namespace rose
