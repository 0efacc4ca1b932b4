// A physical (or virtual) host: a pool of CPU cores, a memory bus and a NIC.
// Every software stage in the simulation charges work to one of these
// resources, which is how throughput ceilings and CPU-% figures emerge.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "fabric/nic.h"
#include "fabric/packet.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/resource.h"

namespace freeflow::fabric {

class Host {
 public:
  Host(sim::EventLoop& loop, const sim::CostModel& model, HostId id,
       std::string name, NicCapabilities nic_caps, telemetry::Telemetry& hub);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] sim::Resource& cpu() noexcept { return cpu_; }
  [[nodiscard]] sim::Resource& membus() noexcept { return membus_; }
  [[nodiscard]] Nic& nic() noexcept { return nic_; }
  [[nodiscard]] const Nic& nic() const noexcept { return nic_; }

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] const sim::CostModel& cost_model() const noexcept { return model_; }

  /// For containers-in-VMs deployments (paper Fig. 2 cases c/d): the
  /// physical machine this VM runs on, if this host is a VM.
  void set_physical_machine(HostId machine) noexcept { physical_machine_ = machine; }
  [[nodiscard]] std::optional<HostId> physical_machine() const noexcept {
    return physical_machine_;
  }
  [[nodiscard]] bool is_vm() const noexcept { return physical_machine_.has_value(); }

  /// Fault injection: a crashed host takes its NIC link down with it. The
  /// flag lets upper layers distinguish a crash (peers close with
  /// CloseReason::host_crashed) from a graceful container stop.
  void set_crashed(bool crashed) noexcept {
    crashed_ = crashed;
    nic_.set_link_up(!crashed);
  }
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

 private:
  sim::EventLoop& loop_;
  const sim::CostModel& model_;
  HostId id_;
  std::string name_;
  sim::Resource cpu_;
  sim::Resource membus_;
  Nic nic_;
  std::optional<HostId> physical_machine_;
  bool crashed_ = false;
};

}  // namespace freeflow::fabric
