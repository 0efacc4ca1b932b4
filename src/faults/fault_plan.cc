#include "faults/fault_plan.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace freeflow::faults {

FaultPlan& FaultPlan::add(FaultEvent event) {
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::link_flap(fabric::HostId host, SimTime at,
                                SimDuration down_for) {
  add({at, FaultKind::nic_link_down, host});
  add({at + down_for, FaultKind::nic_link_up, host});
  return *this;
}

FaultPlan& FaultPlan::rdma_outage(fabric::HostId host, SimTime at,
                                  SimDuration down_for) {
  add({at, FaultKind::rdma_down, host});
  add({at + down_for, FaultKind::rdma_up, host});
  return *this;
}

FaultPlan& FaultPlan::dpdk_outage(fabric::HostId host, SimTime at,
                                  SimDuration down_for) {
  add({at, FaultKind::dpdk_down, host});
  add({at + down_for, FaultKind::dpdk_up, host});
  return *this;
}

FaultPlan& FaultPlan::degrade(fabric::HostId host, SimTime at, double fraction,
                              SimDuration slow_for) {
  // The restore carries the same fraction so the injector can retire exactly
  // this degrade's contribution — overlapping degrades on one host each heal
  // independently instead of the last restore clobbering the rest.
  add({at, FaultKind::nic_degrade, host, fraction});
  add({at + slow_for, FaultKind::nic_restore, host, fraction});
  return *this;
}

FaultPlan& FaultPlan::agent_pause(fabric::HostId host, SimTime at,
                                  SimDuration pause_for) {
  add({at, FaultKind::agent_pause, host});
  add({at + pause_for, FaultKind::agent_resume, host});
  return *this;
}

FaultPlan& FaultPlan::path_partition(fabric::HostId a, fabric::HostId b,
                                     SimTime at, SimDuration down_for) {
  add({at, FaultKind::path_partition, a, 1.0, b});
  add({at + down_for, FaultKind::path_heal, a, 1.0, b});
  return *this;
}

std::vector<FaultEvent> FaultPlan::events() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return sorted;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultEvent& event : events()) {
    char line[128];
    if (event.kind == FaultKind::nic_degrade) {
      std::snprintf(line, sizeof(line), "t=%" PRId64 " host=%u %s frac=%.3f\n",
                    event.at, event.host, fault_kind_name(event.kind),
                    event.fraction);
    } else if (event.kind == FaultKind::path_partition ||
               event.kind == FaultKind::path_heal) {
      std::snprintf(line, sizeof(line), "t=%" PRId64 " host=%u %s peer=%u\n",
                    event.at, event.host, fault_kind_name(event.kind),
                    event.peer);
    } else {
      std::snprintf(line, sizeof(line), "t=%" PRId64 " host=%u %s\n", event.at,
                    event.host, fault_kind_name(event.kind));
    }
    out += line;
  }
  return out;
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::size_t hosts, SimTime horizon,
                            std::size_t pairs) {
  FaultPlan plan;
  if (hosts == 0 || horizon <= 0) return plan;
  Rng rng(seed);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto host = static_cast<fabric::HostId>(rng.next_below(hosts));
    // Fault onset in the first 80% of the horizon, heal within the rest (so
    // every random fault is observed both broken and recovered).
    const SimTime at = rng.uniform(0, horizon * 4 / 5);
    const SimDuration down_for = rng.uniform(horizon / 100 + 1, horizon / 5 + 1);
    switch (rng.next_below(4)) {
      case 0:
        plan.link_flap(host, at, down_for);
        break;
      case 1:
        plan.rdma_outage(host, at, down_for);
        break;
      case 2:
        plan.dpdk_outage(host, at, down_for);
        break;
      default:
        plan.degrade(host, at, 0.1 + 0.8 * rng.next_double(), down_for);
    }
  }
  return plan;
}

}  // namespace freeflow::faults
