// A FaultPlan is a deterministic script of infrastructure failures: which
// host, what breaks, when, and (for recoverable faults) when it heals.
// Plans are data — building one touches nothing; a FaultInjector executes
// it against the live cluster on the simulation clock. The same plan armed
// against the same seeded simulation must reproduce byte-identical traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "fabric/packet.h"

namespace freeflow::faults {

enum class FaultKind {
  nic_link_down,  ///< whole link dark: every packet kind drops
  nic_link_up,
  rdma_down,      ///< RDMA engine dead: rdma_chunk drops, kernel path lives
  rdma_up,
  dpdk_down,      ///< poll-mode path dead: dpdk_frame drops
  dpdk_up,
  nic_degrade,    ///< serialization slows to `fraction` of line rate
  nic_restore,
  host_crash,     ///< unrecoverable: link down + every container stopped
  agent_pause,    ///< agent process frozen (records buffer, no heartbeats)
  agent_resume,
  path_partition, ///< inter-host fabric path severed (both NICs healthy)
  path_heal,
};

[[nodiscard]] constexpr const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::nic_link_down: return "nic_link_down";
    case FaultKind::nic_link_up: return "nic_link_up";
    case FaultKind::rdma_down: return "rdma_down";
    case FaultKind::rdma_up: return "rdma_up";
    case FaultKind::dpdk_down: return "dpdk_down";
    case FaultKind::dpdk_up: return "dpdk_up";
    case FaultKind::nic_degrade: return "nic_degrade";
    case FaultKind::nic_restore: return "nic_restore";
    case FaultKind::host_crash: return "host_crash";
    case FaultKind::agent_pause: return "agent_pause";
    case FaultKind::agent_resume: return "agent_resume";
    case FaultKind::path_partition: return "path_partition";
    case FaultKind::path_heal: return "path_heal";
  }
  return "?";
}

struct FaultEvent {
  SimTime at = 0;  ///< absolute simulation time
  FaultKind kind = FaultKind::nic_link_down;
  fabric::HostId host = 0;
  double fraction = 1.0;  ///< nic_degrade/nic_restore: the degrade's line-rate
                          ///< fraction (the restore names which degrade heals)
  fabric::HostId peer = 0;  ///< path_partition/path_heal only: the far host
};

class FaultPlan {
 public:
  FaultPlan& add(FaultEvent event);

  // Convenience builders for the common fault/heal pairs.
  FaultPlan& link_flap(fabric::HostId host, SimTime at, SimDuration down_for);
  FaultPlan& rdma_outage(fabric::HostId host, SimTime at, SimDuration down_for);
  FaultPlan& dpdk_outage(fabric::HostId host, SimTime at, SimDuration down_for);
  FaultPlan& degrade(fabric::HostId host, SimTime at, double fraction,
                     SimDuration slow_for);
  FaultPlan& agent_pause(fabric::HostId host, SimTime at, SimDuration pause_for);
  /// Severs the fabric path between `a` and `b` (both NICs stay healthy),
  /// healing after `down_for`.
  FaultPlan& path_partition(fabric::HostId a, fabric::HostId b, SimTime at,
                            SimDuration down_for);

  /// Events sorted by time (ties keep insertion order, for determinism).
  [[nodiscard]] std::vector<FaultEvent> events() const;
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Human-readable listing, one event per line (stable across runs).
  [[nodiscard]] std::string describe() const;

  /// Seeded random plan over hosts [0, hosts): `pairs` recoverable
  /// fault/heal pairs (no crashes) spread over [0, horizon). The same seed
  /// always yields the same plan.
  static FaultPlan random(std::uint64_t seed, std::size_t hosts, SimTime horizon,
                          std::size_t pairs);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace freeflow::faults
