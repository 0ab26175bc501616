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
// Addresses are interned: each distinct ip string gets a small IpId on
// first use, and the data plane, the drop rules and the ingress taps all
// work on ids. With no drop rule installed (the common case) reachability
// is a single emptiness check.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/os/kernel.h"
#include "src/sim/event_loop.h"

namespace rose {

// Interned ip address; Network::IpName maps it back to the string.
using IpId = int32_t;
inline constexpr IpId kNoIp = -1;

// XDP-analogue: observes packets at receiver ingress.
class IngressTap {
 public:
  virtual ~IngressTap() = default;
  virtual void OnPacketIn(SimTime now, IpId src_ip, IpId dst_ip, int64_t size) = 0;
};

class Network : public NetReachability {
 public:
  Network(EventLoop* loop, uint64_t seed);

  // --- Latency model ---------------------------------------------------------
  void set_base_latency(SimTime base) { base_latency_ = base; }
  void set_jitter(SimTime jitter) { jitter_ = jitter; }

  // --- Addresses -------------------------------------------------------------
  // The id of `ip`, assigned on first use and stable for the network's life.
  IpId InternIp(std::string_view ip);
  const std::string& IpName(IpId id) const { return ip_names_[static_cast<size_t>(id)]; }

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
  bool IsReachable(IpId src_ip, IpId dst_ip) const;

  // --- Data plane --------------------------------------------------------------
  // Sends `size` bytes src->dst; `deliver` runs at the receiver after the
  // ingress taps fire. Dropped silently when a rule matches (like TC).
  void Send(IpId src_ip, IpId dst_ip, int64_t size, std::function<void()> deliver);
  void Send(std::string_view src_ip, std::string_view dst_ip, int64_t size,
            std::function<void()> deliver) {
    Send(InternIp(src_ip), InternIp(dst_ip), size, std::move(deliver));
  }

  void AddIngressTap(IngressTap* tap);
  void RemoveIngressTap(IngressTap* tap);

  // --- Introspection -----------------------------------------------------------
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  size_t active_rules() const { return rules_.size(); }

 private:
  SimTime NextLatency();
  // The id of `ip`, or kNoIp when it was never interned (no rule names it).
  IpId FindIp(const std::string& ip) const;

  EventLoop* loop_;
  Rng rng_;
  SimTime base_latency_ = Millis(1);
  SimTime jitter_ = Micros(500);
  std::vector<std::string> ip_names_;
  std::unordered_map<std::string, IpId> ip_ids_;
  IpId wildcard_;  // The id of "*".
  std::set<std::pair<IpId, IpId>> rules_;
  std::vector<IngressTap*> taps_;
  uint64_t packets_delivered_ = 0;
  uint64_t packets_dropped_ = 0;
};

}  // namespace rose

#endif  // SRC_NET_NETWORK_H_
