// FreeFlow's network orchestrator: the (conceptually) centralized
// control-plane extension the paper adds on top of the cluster
// orchestrator. It maintains three kinds of global state — container
// locations (fed by the cluster orchestrator and, for containers in VMs,
// the fabric controller), assigned IPs, and host NIC capabilities — and
// answers the one question the whole system turns on: *which data-plane
// mechanism should this pair of containers use?*
#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "orchestrator/cluster_orchestrator.h"

namespace freeflow::orch {

/// The data-plane mechanisms FreeFlow integrates (paper §4.2).
enum class Transport : std::uint8_t {
  shm,          ///< same host (or same VM): shared-memory channel
  rdma,         ///< different hosts, both NICs RDMA-capable
  dpdk,         ///< different hosts, kernel bypass without RDMA
  tcp_host,     ///< agent-to-agent kernel TCP (capable-NIC-free fallback)
  tcp_overlay,  ///< plain overlay networking (no trust: full isolation)
};

std::string_view transport_name(Transport t) noexcept;

struct TransportDecision {
  Transport transport = Transport::tcp_overlay;
  bool same_host = false;
  std::string reason;
};

class NetworkOrchestrator {
 public:
  /// Health transition with before/after state — precise invalidation needs
  /// the *diff* (which capability changed, in which direction), not just
  /// the fact that something changed.
  using HealthFn = std::function<void(
      fabric::HostId, const fabric::NicHealth& prev, const fabric::NicHealth& now)>;
  using LaneFailureFn =
      std::function<void(fabric::HostId reporter, fabric::HostId peer, Transport)>;
  /// Inter-host path state change: (a, b, up). Both NICs may be healthy.
  using PathFn = std::function<void(fabric::HostId, fabric::HostId, bool)>;
  /// Trust transition between two tenants: (a, b, now_trusted). Fired only
  /// on actual grant/revoke transitions, not redundant set_tenant_trust calls.
  using TrustFn = std::function<void(TenantId, TenantId, bool)>;

  explicit NetworkOrchestrator(ClusterOrchestrator& cluster_orch);

  NetworkOrchestrator(const NetworkOrchestrator&) = delete;
  NetworkOrchestrator& operator=(const NetworkOrchestrator&) = delete;

  // ---- trust management -------------------------------------------------
  /// Containers of the same tenant trust each other by default; explicit
  /// cross-tenant trust can be granted (e.g. a shared data-plane service).
  void set_tenant_trust(TenantId a, TenantId b, bool trusted);
  [[nodiscard]] bool trusted(const Container& a, const Container& b) const;

  /// Fired on every effective trust grant/revoke — the invalidation source
  /// that lets decision caches drop entries the trust change falsified (a
  /// revoked pair must fall back to the isolated overlay immediately, not
  /// when a cached shm/rdma decision happens to age out).
  void subscribe_trust_changes(TrustFn fn);

  // ---- the decision function (paper Table 1) ----------------------------
  [[nodiscard]] Result<TransportDecision> decide(ContainerId src, ContainerId dst) const;
  [[nodiscard]] TransportDecision decide(const Container& src, const Container& dst) const;

  // ---- location queries (what the network library pulls) ---------------
  struct Location {
    fabric::HostId host;
    tcp::Ipv4Addr ip;
    ContainerState state;
  };
  /// Synchronous lookup of current truth (the orchestrator's view).
  [[nodiscard]] Result<Location> locate(ContainerId id) const;
  [[nodiscard]] Result<ContainerId> resolve_ip(tcp::Ipv4Addr ip) const;

  // ---- live health state (fault tolerance) ------------------------------
  /// Telemetry ingest: the fabric's monitoring (modeled by the fault
  /// injector) reports a host NIC's live health. decide() folds this over
  /// the static capability mask, and every health subscriber is notified so
  /// affected agents can re-decide their conduits.
  void update_nic_health(fabric::HostId host, const fabric::NicHealth& health);
  [[nodiscard]] const fabric::NicHealth& nic_health(fabric::HostId host) const;

  /// Fired by update_nic_health, and only by it, with the host and its old
  /// and new health. Subscribers run in the order they subscribed: the
  /// control plane subscribes in its constructor, so decision caches flush
  /// stale entries before any later subscriber re-decides against them.
  void subscribe_health(HealthFn fn);

  /// Fired by report_lane_failure with the reported transport, so caches
  /// can flush exactly the decisions riding the failed lane.
  void subscribe_lane_failures(LaneFailureFn fn);

  /// Agent-side failure report (missed heartbeats, send errors), filed once
  /// per lane death before any endpoint on the lane fails. It only flushes
  /// caches: it does not overwrite telemetry (a healthy peer must not be
  /// exiled by a confused reporter) and fires no health subscriber — each
  /// conduit on the lane re-decides from its own failure hook, against a
  /// cache this report already flushed.
  void report_lane_failure(fabric::HostId reporter, fabric::HostId peer,
                           Transport transport);

  // ---- inter-host path health (path_partition faults) -------------------
  /// Telemetry ingest for a fabric path partition between two hosts whose
  /// NICs are individually healthy. Deliberately NOT folded into decide():
  /// no inter-host transport survives a severed fabric path, so shifting
  /// the transport cannot heal the pair — migrating one endpoint can, which
  /// is why this feeds the migration coordinator instead of re-decision.
  void update_path_health(fabric::HostId a, fabric::HostId b, bool up);
  /// Fired on every update_path_health transition (down and heal).
  void subscribe_path_partitions(PathFn fn);

  [[nodiscard]] ClusterOrchestrator& cluster_orch() noexcept { return cluster_; }

  /// Effective physical machine of a host: itself, or the machine under a
  /// VM host (fabric-controller knowledge, deployment cases c/d).
  [[nodiscard]] fabric::HostId physical_machine(fabric::HostId host) const;

 private:
  [[nodiscard]] TransportDecision decide_impl(const Container& src,
                                              const Container& dst) const;

  ClusterOrchestrator& cluster_;
  std::unordered_set<std::uint64_t> tenant_trust_;
  std::vector<TrustFn> trust_subscribers_;
  std::vector<HealthFn> health_subscribers_;
  std::vector<LaneFailureFn> lane_failure_subscribers_;
  /// Last reported NIC health per host; absent means healthy.
  std::unordered_map<fabric::HostId, fabric::NicHealth> health_;
  std::vector<PathFn> path_subscribers_;
  /// Severed inter-host paths, keyed min(a,b)<<32 | max(a,b).
  std::unordered_set<std::uint64_t> downed_paths_;
};

}  // namespace freeflow::orch
