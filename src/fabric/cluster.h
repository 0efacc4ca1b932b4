// Builds the simulated datacenter: a set of hosts hanging off one ToR
// switch, all driven by a single event loop and cost model.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fabric/host.h"
#include "fabric/switch.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"

namespace freeflow::fabric {

class Cluster {
 public:
  explicit Cluster(sim::CostModel model = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a host with the given NIC capabilities; returns it.
  Host& add_host(const std::string& name, NicCapabilities nic_caps = {});

  /// Adds `count` identical hosts named "<prefix>0..n".
  void add_hosts(int count, const std::string& prefix = "host",
                 NicCapabilities nic_caps = {});

  [[nodiscard]] Host& host(HostId id);
  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] const sim::CostModel& cost_model() const noexcept { return model_; }
  [[nodiscard]] Switch& tor() noexcept { return switch_; }

  /// Deployment-wide observability hub. The cluster is the one object every
  /// layer can reach (agents/conduits via their fabric, the orchestrator via
  /// cluster_orch().cluster()), so it owns the shared registry and tracer.
  [[nodiscard]] telemetry::Telemetry& telemetry() noexcept { return telemetry_; }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const noexcept {
    return telemetry_;
  }

 private:
  sim::CostModel model_;
  sim::EventLoop loop_;
  telemetry::Telemetry telemetry_{&loop_};
  Switch switch_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace freeflow::fabric
