#include "core/freeflow.h"

namespace freeflow::core {

FreeFlow::FreeFlow(orch::NetworkOrchestrator& orchestrator, agent::AgentConfig config)
    : orchestrator_(orchestrator),
      plane_(orchestrator, config.control_plane_shards),
      agents_(orchestrator, config) {
  // Route migration notifications to the affected library instances. The
  // orchestrator outlives this object, so guard with the liveness token.
  std::weak_ptr<bool> alive = alive_;
  orchestrator_.subscribe_moves([this, alive](const orch::Container& moved) {
    if (alive.expired()) return;
    // A coordinator-driven move resumes through the coordinator's own
    // rebind instead of the reactive one below (its moves subscription runs
    // after this one).
    if (planned_.contains(moved.id())) return;
    for (auto& [cid, net] : nets_) {
      if (cid == moved.id() || net->has_conduit_to(moved.id())) net->handle_moved(moved.id());
    }
  });
  // Reactive (coordinator-less) migration: the instant the container stops
  // for its stop-and-copy, detach every conduit touching it so no bytes die
  // in a closed channel during the downtime — sends queue, and the moved
  // notification above re-binds when the container lands.
  orchestrator_.cluster_orch().on_migration_started(
      [this, alive](const orch::Container& moving) {
        if (alive.expired()) return;
        if (planned_.contains(moving.id())) return;
        for (auto& [cid, net] : nets_) {
          if (cid == moving.id() || net->has_conduit_to(moving.id())) {
            net->freeze_conduits(moving.id());
          }
        }
      });
  // Container stops tear their connections down everywhere. A stop caused
  // by a host crash surfaces as host_crashed to the peers' close callbacks.
  orchestrator_.cluster_orch().on_stopped([this, alive](const orch::Container& stopped) {
    if (alive.expired()) return;
    const bool crashed =
        orchestrator_.cluster_orch().cluster().host(stopped.host()).crashed();
    auto it = nets_.find(stopped.id());
    if (it != nets_.end()) {
      it->second->handle_self_stopped();
      nets_.erase(it);
    }
    const CloseReason reason =
        crashed ? CloseReason::host_crashed : CloseReason::peer_bye;
    for (auto& [cid, net] : nets_) {
      if (net->has_conduit_to(stopped.id())) net->handle_peer_stopped(stopped.id(), reason);
    }
  });
  // NIC health changes (telemetry or agent failure reports): every library
  // instance with a conduit touching the changed host re-decides.
  orchestrator_.subscribe_health([this, alive](fabric::HostId changed) {
    if (alive.expired()) return;
    std::vector<ContainerNetPtr> snapshot;
    snapshot.reserve(nets_.size());
    for (auto& [cid, net] : nets_) snapshot.push_back(net);
    for (auto& net : snapshot) net->handle_health_event(changed);
  });
}

tcp::TcpNetwork& FreeFlow::fallback_net() {
  if (fallback_net_ == nullptr) {
    auto& cluster_orch = orchestrator_.cluster_orch();
    fallback_net_ = std::make_unique<tcp::TcpNetwork>(
        loop(), cluster_orch.cluster().cost_model(),
        cluster_orch.overlay().path_builder());
  }
  return *fallback_net_;
}

TransportSelector& FreeFlow::selector_on(fabric::HostId host) {
  auto it = selectors_.find(host);
  if (it == selectors_.end()) {
    it = selectors_
             .emplace(host, std::make_unique<TransportSelector>(
                                plane_, agents_.loop(), host,
                                agents_.config().selector_cache_capacity))
             .first;
  }
  return *it->second;
}

Result<ContainerNetPtr> FreeFlow::attach(orch::ContainerId id) {
  if (auto it = nets_.find(id); it != nets_.end()) return it->second;
  auto container = orchestrator_.cluster_orch().container(id);
  if (container == nullptr) return not_found("no container " + std::to_string(id));
  if (container->state() != orch::ContainerState::running) {
    return failed_precondition("container not running");
  }
  auto net = std::make_shared<ContainerNet>(*this, container);
  net->register_with_agent();
  nets_.emplace(id, net);
  return net;
}

void FreeFlow::note_planned_migration(orch::ContainerId id, bool active) {
  if (active) {
    planned_.insert(id);
  } else {
    planned_.erase(id);
  }
}

ContainerNetPtr FreeFlow::net(orch::ContainerId id) const {
  auto it = nets_.find(id);
  return it == nets_.end() ? nullptr : it->second;
}

}  // namespace freeflow::core
