#include "fabric/cluster.h"

#include "common/status.h"

namespace freeflow::fabric {

Cluster::Cluster(sim::CostModel model)
    : model_(model), switch_(loop_, model_) {}

Host& Cluster::add_host(const std::string& name, NicCapabilities nic_caps) {
  const auto id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(loop_, model_, id, name, nic_caps, telemetry_));
  Host& host = *hosts_.back();
  host.nic().attach(&switch_);
  switch_.connect(id, &host.nic());
  return host;
}

void Cluster::add_hosts(int count, const std::string& prefix, NicCapabilities nic_caps) {
  for (int i = 0; i < count; ++i) {
    add_host(prefix + std::to_string(i), nic_caps);
  }
}

Host& Cluster::host(HostId id) {
  FF_CHECK(id < hosts_.size());
  return *hosts_[id];
}

}  // namespace freeflow::fabric
