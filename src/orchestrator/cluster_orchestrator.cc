#include "orchestrator/cluster_orchestrator.h"

#include <algorithm>

#include "common/logging.h"

namespace freeflow::orch {

ClusterOrchestrator::ClusterOrchestrator(fabric::Cluster& cluster,
                                         overlay::OverlayNetwork& overlay)
    : cluster_(cluster), overlay_(overlay) {}

fabric::HostId ClusterOrchestrator::pick_host() const {
  FF_CHECK(cluster_.host_count() > 0);
  std::vector<std::size_t> load(cluster_.host_count(), 0);
  for (const auto& [id, c] : containers_) {
    if (c->state() == ContainerState::running) ++load[c->host()];
  }
  std::size_t best = 0;
  for (std::size_t h = 1; h < load.size(); ++h) {
    if (load[h] < load[best]) best = h;
  }
  return static_cast<fabric::HostId>(best);
}

Result<ContainerPtr> ClusterOrchestrator::deploy(ContainerSpec spec) {
  if (spec.pinned_host.has_value() && *spec.pinned_host >= cluster_.host_count()) {
    return invalid_argument("pinned host out of range");
  }
  const fabric::HostId host = spec.pinned_host.value_or(pick_host());
  overlay_.attach_host(host);

  auto requested_ip = spec.requested_ip;
  auto container = std::make_shared<Container>(next_id_++, std::move(spec), host, tcp::Ipv4Addr{});
  auto ip = overlay_.add_container(host, &container->account(), requested_ip);
  if (!ip.is_ok()) return ip.status();
  container->set_ip(*ip);
  container->set_state(ContainerState::running);
  containers_[container->id()] = container;
  FF_LOG(info, "orch") << "deployed " << container->name() << " (" << ip->to_string()
                       << ") on host " << host;
  return container;
}

Status ClusterOrchestrator::migrate(ContainerId id, fabric::HostId dst,
                                    SimDuration downtime) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("no container " + std::to_string(id));
  ContainerPtr c = it->second;
  if (c->state() != ContainerState::running) {
    return failed_precondition("container not running");
  }
  if (dst >= cluster_.host_count()) return invalid_argument("destination host out of range");
  if (dst == c->host()) return ok_status();

  overlay_.attach_host(dst);
  c->set_state(ContainerState::migrating);
  for (auto& fn : migration_started_) fn(*c);
  cluster_.loop().schedule(downtime, [this, c, dst]() {
    const Status moved = overlay_.move_container(c->ip(), dst, &c->account());
    FF_CHECK(moved.is_ok());
    c->set_host(dst);
    c->set_state(ContainerState::running);
    FF_LOG(info, "orch") << "migrated " << c->name() << " to host " << dst;
    for (auto& fn : moved_) fn(*c);
  });
  return ok_status();
}

Status ClusterOrchestrator::stop(ContainerId id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return not_found("no container " + std::to_string(id));
  ContainerPtr c = it->second;
  if (c->state() == ContainerState::stopped) return ok_status();
  c->set_state(ContainerState::stopped);
  FF_RETURN_IF_ERROR(overlay_.remove_container(c->ip()));
  for (auto& fn : stopped_) fn(*c);
  return ok_status();
}

ContainerPtr ClusterOrchestrator::container(ContainerId id) const {
  auto it = containers_.find(id);
  return it == containers_.end() ? nullptr : it->second;
}

ContainerPtr ClusterOrchestrator::container_by_ip(tcp::Ipv4Addr ip) const {
  for (const auto& [id, c] : containers_) {
    if (c->ip() == ip && c->state() != ContainerState::stopped) return c;
  }
  return nullptr;
}

std::vector<ContainerPtr> ClusterOrchestrator::containers_on(fabric::HostId host) const {
  std::vector<ContainerPtr> out;
  for (const auto& [id, c] : containers_) {
    if (c->host() == host && c->state() == ContainerState::running) out.push_back(c);
  }
  return out;
}

std::vector<ContainerPtr> ClusterOrchestrator::containers_of_tenant(TenantId tenant) const {
  std::vector<ContainerPtr> out;
  for (const auto& [id, c] : containers_) {
    if (c->tenant() == tenant && c->state() == ContainerState::running) out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const ContainerPtr& a, const ContainerPtr& b) { return a->id() < b->id(); });
  return out;
}

}  // namespace freeflow::orch
