#include "fabric/switch.h"

#include "common/status.h"
#include "fabric/nic.h"

namespace freeflow::fabric {

Switch::Switch(sim::EventLoop& loop, const sim::CostModel& model)
    : loop_(loop), model_(model) {}

void Switch::connect(HostId host, Nic* nic) {
  FF_CHECK(nic != nullptr);
  if (ports_.size() <= host) ports_.resize(host + 1);
  FF_CHECK(ports_[host].nic == nullptr);
  ports_[host].nic = nic;
  ports_[host].link = std::make_unique<sim::Resource>(
      loop_, "switch_port", nic->capabilities().line_rate_gbps * 1e9 / 8.0, 1);
}

void Switch::set_partitioned(HostId a, HostId b, bool down) {
  if (down) {
    partitions_.insert(pair_key(a, b));
  } else {
    partitions_.erase(pair_key(a, b));
  }
}

bool Switch::partitioned(HostId a, HostId b) const noexcept {
  return !partitions_.empty() && partitions_.contains(pair_key(a, b));
}

void Switch::forward(PacketPtr packet) {
  const HostId dst = packet->dst_host;
  FF_CHECK(dst < ports_.size() && ports_[dst].nic != nullptr);
  if (partitioned(packet->src_host, dst)) {
    // Fabric partition: the packet dies in the switch. Both endpoint NICs
    // are healthy, so only end-to-end machinery (retransmits, migration)
    // can observe or heal this.
    ++dropped_;
    return;
  }
  ++forwarded_;
  Port& port = ports_[dst];
  loop_.schedule(model_.switch_fwd_ns, [this, packet, &port]() {
    port.link->submit(static_cast<double>(packet->wire_bytes),
                      [packet, &port]() { port.nic->deliver(packet); },
                      /*account=*/nullptr, model_.link_prop_ns);
  });
}

}  // namespace freeflow::fabric
