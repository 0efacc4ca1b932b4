#include "orchestrator/network_orchestrator.h"

#include "common/logging.h"

namespace freeflow::orch {

namespace {
std::uint64_t trust_key(TenantId a, TenantId b) noexcept {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}
std::uint64_t path_key(fabric::HostId a, fabric::HostId b) noexcept {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | b;
}
}  // namespace

std::string_view transport_name(Transport t) noexcept {
  switch (t) {
    case Transport::shm: return "shm";
    case Transport::rdma: return "rdma";
    case Transport::dpdk: return "dpdk";
    case Transport::tcp_host: return "tcp-host";
    case Transport::tcp_overlay: return "tcp-overlay";
  }
  return "?";
}

NetworkOrchestrator::NetworkOrchestrator(ClusterOrchestrator& cluster_orch)
    : cluster_(cluster_orch) {}

void NetworkOrchestrator::set_tenant_trust(TenantId a, TenantId b, bool is_trusted) {
  // Only actual transitions notify: a redundant grant or revoke changes no
  // decision, so it must not trigger a fleet-wide cache flush.
  const bool changed = is_trusted ? tenant_trust_.insert(trust_key(a, b)).second
                                  : tenant_trust_.erase(trust_key(a, b)) > 0;
  if (!changed) return;
  FF_LOG(info, "orch") << "tenant trust " << a << " <-> " << b
                       << (is_trusted ? " granted" : " revoked");
  // Snapshot by size: a subscriber may subscribe more.
  const std::size_t n = trust_subscribers_.size();
  for (std::size_t i = 0; i < n; ++i) trust_subscribers_[i](a, b, is_trusted);
}

void NetworkOrchestrator::subscribe_trust_changes(TrustFn fn) {
  trust_subscribers_.push_back(std::move(fn));
}

bool NetworkOrchestrator::trusted(const Container& a, const Container& b) const {
  if (a.tenant() == b.tenant()) return true;
  return tenant_trust_.contains(trust_key(a.tenant(), b.tenant()));
}

fabric::HostId NetworkOrchestrator::physical_machine(fabric::HostId host) const {
  const fabric::Host& h = cluster_.cluster().host(host);
  return h.physical_machine().value_or(host);
}

TransportDecision NetworkOrchestrator::decide(const Container& src,
                                              const Container& dst) const {
  TransportDecision d = decide_impl(src, dst);
  // Control-plane rate: a by-name registry lookup per decision is fine here
  // (unlike the per-packet paths, which cache counter pointers).
  auto& m = cluster_.cluster().telemetry().metrics();
  m.counter("orchestrator/decisions").inc();
  m.counter("orchestrator/decisions/" + std::string(transport_name(d.transport))).inc();
  return d;
}

TransportDecision NetworkOrchestrator::decide_impl(const Container& src,
                                                   const Container& dst) const {
  TransportDecision d;
  d.same_host = src.host() == dst.host();

  // Isolation first: untrusted pairs keep the fully-isolated overlay path.
  if (!trusted(src, dst)) {
    d.transport = Transport::tcp_overlay;
    d.reason = "no trust: full isolation via overlay";
    return d;
  }

  // Same host (containers, or processes inside the same VM): shared memory.
  if (d.same_host) {
    d.transport = Transport::shm;
    d.reason = "co-located: shared memory";
    return d;
  }

  const fabric::Host& sh = cluster_.cluster().host(src.host());
  const fabric::Host& dh = cluster_.cluster().host(dst.host());

  // The effective capability of each end is the static NIC mask folded with
  // the last-reported live health: a dead RDMA engine removes rdma from the
  // decision until telemetry reports recovery. Degradation (rate_fraction)
  // deliberately does not shift the decision — a slow NIC slows every
  // transport through it equally.
  const fabric::NicHealth& s_health = nic_health(src.host());
  const fabric::NicHealth& d_health = nic_health(dst.host());

  if (!s_health.link_up || !d_health.link_up) {
    // Nothing traverses a downed link; pick the transport that can ride out
    // the outage (kernel TCP retransmits) and let re-decision upgrade later.
    d.transport = Transport::tcp_host;
    d.reason = "NIC link down: TCP holds the connection through the outage";
    return d;
  }

  // VMs on the same physical machine (deployment case c with two VMs):
  // the paper defers the NetVM-style fast path to future work, so FreeFlow
  // still routes via the NIC — which the hairpin makes equivalent to the
  // inter-host decision below.
  if (sh.nic().capabilities().rdma && dh.nic().capabilities().rdma &&
      s_health.rdma_up && d_health.rdma_up) {
    d.transport = Transport::rdma;
    d.reason = "different hosts, RDMA-capable NICs";
    return d;
  }
  if (sh.nic().capabilities().dpdk && dh.nic().capabilities().dpdk &&
      s_health.dpdk_up && d_health.dpdk_up) {
    d.transport = Transport::dpdk;
    d.reason = "no RDMA; DPDK kernel bypass";
    return d;
  }
  d.transport = Transport::tcp_host;
  d.reason = "commodity NICs: agent-to-agent TCP";
  return d;
}

Result<TransportDecision> NetworkOrchestrator::decide(ContainerId src,
                                                      ContainerId dst) const {
  ContainerPtr s = cluster_.container(src);
  ContainerPtr d = cluster_.container(dst);
  if (s == nullptr || d == nullptr) return not_found("unknown container");
  return decide(*s, *d);
}

Result<NetworkOrchestrator::Location> NetworkOrchestrator::locate(ContainerId id) const {
  ContainerPtr c = cluster_.container(id);
  if (c == nullptr) return not_found("unknown container " + std::to_string(id));
  return Location{c->host(), c->ip(), c->state()};
}

Result<ContainerId> NetworkOrchestrator::resolve_ip(tcp::Ipv4Addr ip) const {
  ContainerPtr c = cluster_.container_by_ip(ip);
  if (c == nullptr) return not_found("no container with IP " + ip.to_string());
  return c->id();
}

// ---------------------------------------------------------- health state

void NetworkOrchestrator::update_nic_health(fabric::HostId host,
                                            const fabric::NicHealth& health) {
  const fabric::NicHealth prev = nic_health(host);  // copy before overwrite
  health_[host] = health;
  cluster_.cluster().telemetry().metrics().counter("orchestrator/health_updates").inc();
  // In subscription order: the control plane's cache flush runs before any
  // re-decision. Snapshot by size: a re-decision may subscribe more.
  const std::size_t n = health_subscribers_.size();
  for (std::size_t i = 0; i < n; ++i) health_subscribers_[i](host, prev, health);
}

const fabric::NicHealth& NetworkOrchestrator::nic_health(fabric::HostId host) const {
  static const fabric::NicHealth k_healthy{};
  auto it = health_.find(host);
  return it == health_.end() ? k_healthy : it->second;
}

void NetworkOrchestrator::subscribe_health(HealthFn fn) {
  health_subscribers_.push_back(std::move(fn));
}

void NetworkOrchestrator::subscribe_lane_failures(LaneFailureFn fn) {
  lane_failure_subscribers_.push_back(std::move(fn));
}

void NetworkOrchestrator::report_lane_failure(fabric::HostId reporter,
                                              fabric::HostId peer, Transport transport) {
  cluster_.cluster().telemetry().metrics().counter("orchestrator/lane_failure_reports").inc();
  FF_LOG(info, "orch") << "lane failure report: host " << reporter << " -> host "
                       << peer << " over " << transport_name(transport);
  // Caches drop decisions riding the failed lane; the conduits on it
  // re-decide from their own failure hooks once the agent fails them.
  for (auto& fn : lane_failure_subscribers_) fn(reporter, peer, transport);
}

void NetworkOrchestrator::update_path_health(fabric::HostId a, fabric::HostId b,
                                             bool up) {
  const std::uint64_t key = path_key(a, b);
  const bool changed = up ? downed_paths_.erase(key) > 0
                          : downed_paths_.insert(key).second;
  if (!changed) return;
  cluster_.cluster().telemetry().metrics().counter("orchestrator/path_updates").inc();
  FF_LOG(info, "orch") << "fabric path host " << a << " <-> host " << b
                       << (up ? " healed" : " partitioned");
  // Snapshot by size: a subscriber may subscribe more.
  const std::size_t n = path_subscribers_.size();
  for (std::size_t i = 0; i < n; ++i) path_subscribers_[i](a, b, up);
}

void NetworkOrchestrator::subscribe_path_partitions(PathFn fn) {
  path_subscribers_.push_back(std::move(fn));
}

}  // namespace freeflow::orch
