// Telemetry hub: one MetricRegistry + one Tracer per simulated deployment,
// owned by fabric::Cluster. Every instrumented object (NICs, conduits,
// agents, selectors, the control plane) registers its series here at
// construction, and the registry is the only place those counts live.
// Entity naming scheme, every family listed in DESIGN.md §10:
//   conduit/<token>/c<container>/<metric>   nic/<host>/<metric>[/<packet-kind>]
//   agent/<host>/<metric>                   orchestrator/<metric>
// (both endpoints of a channel share the token, hence the container leg)
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
