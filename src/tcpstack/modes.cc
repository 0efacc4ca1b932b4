#include "tcpstack/modes.h"

namespace freeflow::tcp {

Status AddressMap::add(Ipv4Addr ip, fabric::Host& host, sim::UsageAccount* account) {
  EndpointBinding binding{&host, account,
                          std::make_shared<sim::SerialExecutor>(host.cpu())};
  auto [it, inserted] = map_.emplace(ip.value(), std::move(binding));
  (void)it;
  if (!inserted) return already_exists("IP " + ip.to_string() + " already bound");
  return ok_status();
}

Result<EndpointBinding> AddressMap::resolve(Ipv4Addr ip) const {
  auto it = map_.find(ip.value());
  if (it == map_.end()) return not_found("no binding for IP " + ip.to_string());
  return it->second;
}

namespace hops {

std::shared_ptr<Hop> tcp_tx(const EndpointBinding& b, const sim::CostModel& m) {
  return std::make_shared<CpuHop>(
      *b.host, b.thread, [&m](const Segment& s) { return m.tcp_tx_cost(s.payload_bytes()); },
      b.account);
}

std::shared_ptr<Hop> tcp_rx(const EndpointBinding& b, const sim::CostModel& m) {
  return std::make_shared<CpuHop>(
      *b.host, b.thread, [&m](const Segment& s) { return m.tcp_rx_cost(s.payload_bytes()); },
      b.account);
}

std::shared_ptr<Hop> bridge(const EndpointBinding& b, const sim::CostModel& m) {
  return std::make_shared<CpuHop>(
      *b.host, b.thread, [&m](const Segment& s) { return m.bridge_cost(s.payload_bytes()); },
      b.account);
}

std::shared_ptr<Hop> ack_cost(const EndpointBinding& b, double cost_ns) {
  return std::make_shared<CpuHop>(
      *b.host, b.thread, [cost_ns](const Segment&) { return cost_ns; }, b.account);
}

std::shared_ptr<Hop> wire(fabric::Host& src, fabric::HostId dst) {
  return std::make_shared<WireHop>(src, dst);
}

std::shared_ptr<Hop> rx_wakeup(fabric::Host& host, const sim::CostModel& m) {
  return std::make_shared<DelayHop>(host.loop(), m.tcp_rx_wakeup_ns);
}

}  // namespace hops

Result<PathPair> HostModeBuilder::build(const Endpoint& src, const Endpoint& dst) {
  auto s = addresses_.resolve(src.ip);
  if (!s.is_ok()) return s.status();
  auto d = addresses_.resolve(dst.ip);
  if (!d.is_ok()) return d.status();

  fabric::Host& sh = *s->host;
  fabric::Host& dh = *d->host;
  const auto& m = model_;

  PathPair paths;
  paths.data.add(hops::tcp_tx(*s, m));
  paths.control.add(hops::ack_cost(*s, m.tcp_ack_ns));
  if (sh.id() != dh.id()) {
    paths.data.add(hops::wire(sh, dh.id()));
    paths.control.add(hops::wire(sh, dh.id()));
  }
  paths.data.add(hops::tcp_rx(*d, m));
  paths.data.add(hops::rx_wakeup(dh, m));
  paths.control.add(hops::ack_cost(*d, m.tcp_ack_ns));
  return paths;
}

Result<PathPair> BridgeModeBuilder::build(const Endpoint& src, const Endpoint& dst) {
  auto s = addresses_.resolve(src.ip);
  if (!s.is_ok()) return s.status();
  auto d = addresses_.resolve(dst.ip);
  if (!d.is_ok()) return d.status();

  fabric::Host& sh = *s->host;
  fabric::Host& dh = *d->host;
  const auto& m = model_;

  // veth + bridge softirq work executes in the sender's / receiver's
  // context (same thread executor), so it extends the per-side serialized
  // cost: ~19.4 us per 64 KiB chunk per side -> ~27 Gb/s at ~200 % CPU.
  PathPair paths;
  paths.data.add(hops::tcp_tx(*s, m));
  paths.data.add(hops::bridge(*s, m));
  paths.control.add(hops::ack_cost(*s, m.tcp_ack_ns + m.bridge_ack_ns));
  if (sh.id() != dh.id()) {
    paths.data.add(hops::wire(sh, dh.id()));
    paths.control.add(hops::wire(sh, dh.id()));
  }
  paths.data.add(hops::bridge(*d, m));
  paths.data.add(hops::tcp_rx(*d, m));
  paths.data.add(hops::rx_wakeup(dh, m));
  paths.control.add(hops::ack_cost(*d, m.tcp_ack_ns + m.bridge_ack_ns));
  return paths;
}

}  // namespace freeflow::tcp
