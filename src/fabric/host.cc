#include "fabric/host.h"

namespace freeflow::fabric {

Host::Host(sim::EventLoop& loop, const sim::CostModel& model, HostId id,
           std::string name, NicCapabilities nic_caps, telemetry::Telemetry& hub)
    : loop_(loop),
      model_(model),
      id_(id),
      name_(std::move(name)),
      cpu_(loop, name_ + "/cpu", model.core_rate, model.cores_per_host),
      membus_(loop, name_ + "/membus", model.membus_bytes_per_sec, 1),
      nic_(loop, model, id, nic_caps, hub) {}

}  // namespace freeflow::fabric
