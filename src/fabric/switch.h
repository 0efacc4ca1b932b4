// A single non-blocking ToR switch connecting all hosts. Each destination
// port has its own output link (line rate), so incast congestion on a
// receiver shows up as queueing on that port.
#pragma once

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fabric/packet.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/resource.h"

namespace freeflow::fabric {

class Nic;

class Switch {
 public:
  Switch(sim::EventLoop& loop, const sim::CostModel& model);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Registers the NIC serving `host`. Ports are indexed by HostId.
  void connect(HostId host, Nic* nic);

  /// Store-and-forward: forwarding latency, then the output port link.
  void forward(PacketPtr packet);

  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  /// Packets silently dropped on a partitioned host pair.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Fabric partition between two hosts (both NICs stay healthy): while
  /// set, every packet between `a` and `b` is dropped in the fabric, in
  /// both directions. Fault-injector only.
  void set_partitioned(HostId a, HostId b, bool down);
  [[nodiscard]] bool partitioned(HostId a, HostId b) const noexcept;

 private:
  struct Port {
    Nic* nic = nullptr;
    std::unique_ptr<sim::Resource> link;
  };
  [[nodiscard]] static std::uint64_t pair_key(HostId a, HostId b) noexcept {
    if (a > b) std::swap(a, b);
    return (std::uint64_t{a} << 32) | b;
  }

  sim::EventLoop& loop_;
  const sim::CostModel& model_;
  std::vector<Port> ports_;
  /// Severed host pairs, keyed min<<32|max. Usually empty — the common
  /// forward path pays one empty() check.
  std::unordered_set<std::uint64_t> partitions_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace freeflow::fabric
