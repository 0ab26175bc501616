#include "src/net/network.h"

#include <algorithm>

namespace rose {

Network::Network(EventLoop* loop, uint64_t seed)
    : loop_(loop), rng_(seed), wildcard_(InternIp("*")) {}

IpId Network::InternIp(std::string_view ip) {
  auto [it, inserted] =
      ip_ids_.try_emplace(std::string(ip), static_cast<IpId>(ip_names_.size()));
  if (inserted) {
    ip_names_.emplace_back(ip);
  }
  return it->second;
}

IpId Network::FindIp(const std::string& ip) const {
  auto it = ip_ids_.find(ip);
  return it == ip_ids_.end() ? kNoIp : it->second;
}

void Network::Block(const std::string& src_ip, const std::string& dst_ip) {
  rules_.insert({InternIp(src_ip), InternIp(dst_ip)});
}

void Network::Unblock(const std::string& src_ip, const std::string& dst_ip) {
  rules_.erase({InternIp(src_ip), InternIp(dst_ip)});
}

void Network::Partition(const std::vector<std::string>& group_a,
                        const std::vector<std::string>& group_b, SimTime duration) {
  for (const auto& a : group_a) {
    for (const auto& b : group_b) {
      Block(a, b);
      Block(b, a);
    }
  }
  if (duration > 0) {
    loop_->ScheduleAfter(duration, [this, group_a, group_b] {
      for (const auto& a : group_a) {
        for (const auto& b : group_b) {
          Unblock(a, b);
          Unblock(b, a);
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

bool Network::IsReachable(const std::string& src_ip, const std::string& dst_ip) {
  return rules_.empty() || IsReachable(FindIp(src_ip), FindIp(dst_ip));
}

bool Network::IsReachable(IpId src_ip, IpId dst_ip) const {
  if (rules_.empty()) {
    return true;
  }
  // An ip no rule ever named has no id and matches only the wildcards.
  return rules_.count({src_ip, dst_ip}) == 0 && rules_.count({wildcard_, dst_ip}) == 0 &&
         rules_.count({src_ip, wildcard_}) == 0;
}

SimTime Network::NextLatency() {
  if (jitter_ <= 0) {
    return base_latency_;
  }
  return base_latency_ + static_cast<SimTime>(rng_.NextBelow(static_cast<uint64_t>(jitter_)));
}

void Network::Send(IpId src_ip, IpId dst_ip, int64_t size, std::function<void()> deliver) {
  if (!IsReachable(src_ip, dst_ip)) {
    packets_dropped_++;
    return;
  }
  const SimTime latency = NextLatency();
  loop_->ScheduleAfter(latency, [this, src_ip, dst_ip, size, deliver = std::move(deliver)] {
    // Rules are re-checked at arrival so a partition raised mid-flight drops
    // in-transit packets too.
    if (!IsReachable(src_ip, dst_ip)) {
      packets_dropped_++;
      return;
    }
    packets_delivered_++;
    for (IngressTap* tap : taps_) {
      tap->OnPacketIn(loop_->now(), src_ip, dst_ip, size);
    }
    deliver();
  });
}

void Network::AddIngressTap(IngressTap* tap) { taps_.push_back(tap); }

void Network::RemoveIngressTap(IngressTap* tap) {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), tap), taps_.end());
}

}  // namespace rose
