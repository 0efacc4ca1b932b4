#include "core/freeflow.h"

namespace freeflow::core {

FreeFlow::FreeFlow(orch::NetworkOrchestrator& orchestrator, agent::AgentConfig config)
    : orchestrator_(orchestrator),
      plane_(orchestrator, config.control_plane_shards),
      agents_(orchestrator, config) {
  // Every move of a container — planned, proactive or reactive — runs one
  // capture and one resume, from the orchestrator's two move notifications.
  // The orchestrator outlives this object, so guard with the liveness token.
  std::weak_ptr<bool> alive = alive_;
  // Capture: the instant the container stops for its stop-and-copy, detach
  // every conduit touching it. Each takes back what its shm lane has not
  // delivered, ahead of its queue, so no bytes die in a channel during the
  // downtime — sends queue behind them, and the resume below rebinds when
  // it lands.
  orchestrator_.cluster_orch().on_migration_started(
      [this, alive](const orch::Container& moving) {
        if (alive.expired()) return;
        for (auto& net : nets_touching(moving.id())) net->freeze_conduits(moving.id());
      });
  // Resume: every touching conduit unpauses before the first rebind — a
  // paused, detached end refuses the rebind's channel (and its refit).
  orchestrator_.cluster_orch().on_moved([this, alive](const orch::Container& moved) {
    if (alive.expired()) return;
    const auto touching = nets_touching(moved.id());
    for (const auto& net : touching) net->thaw_conduits(moved.id());
    for (const auto& net : touching) net->rebind_conduits(moved.id());
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
  // NIC health changes: every library instance with a conduit touching the
  // changed host re-decides, after the plane (subscribed first, in its
  // constructor) has flushed the affected cached decisions.
  orchestrator_.subscribe_health([this, alive](fabric::HostId changed,
                                               const fabric::NicHealth&,
                                               const fabric::NicHealth&) {
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

const ConduitSeries& FreeFlow::conduit_series(fabric::HostId host,
                                              orch::Transport transport) {
  const auto key = std::make_pair(host, transport);
  auto it = conduit_series_.find(key);
  if (it == conduit_series_.end()) {
    auto& metrics = orchestrator_.cluster_orch().cluster().telemetry().metrics();
    it = conduit_series_
             .emplace(key, ConduitSeries::registered(metrics, host, transport))
             .first;
  }
  return it->second;
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

std::vector<ContainerNetPtr> FreeFlow::nets_touching(orch::ContainerId id) const {
  std::vector<ContainerNetPtr> out;
  for (const auto& [cid, net] : nets_) {
    if (cid == id || net->has_conduit_to(id)) out.push_back(net);
  }
  return out;
}

ContainerNetPtr FreeFlow::net(orch::ContainerId id) const {
  auto it = nets_.find(id);
  return it == nets_.end() ? nullptr : it->second;
}

}  // namespace freeflow::core
