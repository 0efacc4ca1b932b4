// Telemetry hub: one MetricRegistry + one Tracer per simulated deployment,
// owned by fabric::Cluster. Instrumented objects (NICs, agents, selectors,
// the control plane) register their series here at construction. Conduits
// keep their per-flow counts as members and add each to a host-level
// family that FreeFlow registers the first time a (host, transport) pair
// attaches, so no connection touches the registry's map.
// Entity naming scheme, every family listed in DESIGN.md §10:
//   conduit/h<host>/<transport>/<metric>    nic/<host>/<metric>[/<packet-kind>]
//   agent/<host>/<metric>                   orchestrator/<metric>
#pragma once

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace freeflow::telemetry {

class Telemetry {
 public:
  explicit Telemetry(sim::EventLoop* loop = nullptr) noexcept : tracer_(loop) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }

 private:
  MetricRegistry metrics_;
  Tracer tracer_;
};

}  // namespace freeflow::telemetry
