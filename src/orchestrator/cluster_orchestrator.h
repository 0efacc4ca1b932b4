// Mesos/Kubernetes-style cluster orchestrator: schedules containers onto
// hosts, drives their lifecycle (including live migration) and notifies
// subscribers — the paper's key observation is that this centrally-managed
// deployment gives FreeFlow its location feed for free.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fabric/cluster.h"
#include "orchestrator/container.h"
#include "overlay/overlay.h"

namespace freeflow::orch {

class ClusterOrchestrator {
 public:
  /// Fired after a container moves or stops.
  using EventFn = std::function<void(const Container&)>;

  ClusterOrchestrator(fabric::Cluster& cluster, overlay::OverlayNetwork& overlay);

  ClusterOrchestrator(const ClusterOrchestrator&) = delete;
  ClusterOrchestrator& operator=(const ClusterOrchestrator&) = delete;

  /// Starts a container on its pinned host, else on the host running the
  /// fewest containers (spread placement); allocates its overlay IP.
  Result<ContainerPtr> deploy(ContainerSpec spec);

  /// Live-migrates a container; the overlay IP is preserved. Completes
  /// after `downtime` of simulated migration blackout, then notifies.
  Status migrate(ContainerId id, fabric::HostId dst, SimDuration downtime = 50 * k_millisecond);

  Status stop(ContainerId id);

  [[nodiscard]] ContainerPtr container(ContainerId id) const;
  [[nodiscard]] ContainerPtr container_by_ip(tcp::Ipv4Addr ip) const;
  [[nodiscard]] std::vector<ContainerPtr> containers_on(fabric::HostId host) const;
  /// Running containers of one tenant, sorted by id (deterministic order for
  /// tenant-scoped cache flushes).
  [[nodiscard]] std::vector<ContainerPtr> containers_of_tenant(TenantId tenant) const;

  /// Fired when a migrated container lands: the network layer's resume.
  void on_moved(EventFn fn) { moved_.push_back(std::move(fn)); }
  void on_stopped(EventFn fn) { stopped_.push_back(std::move(fn)); }
  /// Fired when a migration begins (state just became `migrating`), before
  /// any downtime elapses: the network layer's capture, the same for every
  /// move whoever asked for it — every conduit touching the container
  /// detaches, so no bytes die in a channel during the move.
  void on_migration_started(EventFn fn) { migration_started_.push_back(std::move(fn)); }

  [[nodiscard]] fabric::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] overlay::OverlayNetwork& overlay() noexcept { return overlay_; }

 private:
  fabric::HostId pick_host() const;

  fabric::Cluster& cluster_;
  overlay::OverlayNetwork& overlay_;
  ContainerId next_id_ = 1;
  std::unordered_map<ContainerId, ContainerPtr> containers_;
  std::vector<EventFn> moved_;
  std::vector<EventFn> stopped_;
  std::vector<EventFn> migration_started_;
};

}  // namespace freeflow::orch
