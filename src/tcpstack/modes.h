// Networking-mode path builders for the two non-overlay container modes the
// paper measures:
//   - host mode: the container binds the host's IP/port directly; the stack
//     is traversed once per side, no bridge (fast, but ports conflict).
//   - bridge mode: veth + docker0-style bridge adds softirq work per chunk
//     on both sides (the classic docker default network).
// The overlay mode builder lives in src/overlay (it needs routers/IPAM).
#pragma once

#include <unordered_map>

#include "fabric/host.h"
#include "sim/cost_model.h"
#include "tcpstack/network.h"

namespace freeflow::tcp {

/// Where an IP lives, whose CPU account its stack work bills to, and the
/// software thread that serializes that endpoint's stack processing.
struct EndpointBinding {
  fabric::Host* host = nullptr;
  sim::UsageAccount* account = nullptr;
  std::shared_ptr<sim::SerialExecutor> thread;
};

/// ip -> host/account registry shared by the mode builders.
class AddressMap {
 public:
  Status add(Ipv4Addr ip, fabric::Host& host, sim::UsageAccount* account = nullptr);
  [[nodiscard]] Result<EndpointBinding> resolve(Ipv4Addr ip) const;

 private:
  std::unordered_map<std::uint32_t, EndpointBinding> map_;
};

/// Shared helpers for composing stack-cost hops. `b` supplies the host,
/// account and serializing thread of the endpoint doing the work.
namespace hops {
std::shared_ptr<Hop> tcp_tx(const EndpointBinding& b, const sim::CostModel& m);
std::shared_ptr<Hop> tcp_rx(const EndpointBinding& b, const sim::CostModel& m);
std::shared_ptr<Hop> bridge(const EndpointBinding& b, const sim::CostModel& m);
std::shared_ptr<Hop> ack_cost(const EndpointBinding& b, double cost_ns);
std::shared_ptr<Hop> wire(fabric::Host& src, fabric::HostId dst);
std::shared_ptr<Hop> rx_wakeup(fabric::Host& host, const sim::CostModel& m);
}  // namespace hops

class HostModeBuilder final : public PathBuilder {
 public:
  explicit HostModeBuilder(const sim::CostModel& model) : model_(model) {}

  [[nodiscard]] AddressMap& addresses() noexcept { return addresses_; }
  Result<PathPair> build(const Endpoint& src, const Endpoint& dst) override;

 private:
  const sim::CostModel& model_;
  AddressMap addresses_;
};

class BridgeModeBuilder final : public PathBuilder {
 public:
  explicit BridgeModeBuilder(const sim::CostModel& model) : model_(model) {}

  [[nodiscard]] AddressMap& addresses() noexcept { return addresses_; }
  Result<PathPair> build(const Endpoint& src, const Endpoint& dst) override;

 private:
  const sim::CostModel& model_;
  AddressMap addresses_;
};

}  // namespace freeflow::tcp
