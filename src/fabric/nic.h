// A physical NIC: line-rate serialization, an on-board processor (used by
// the RDMA engine), capability flags the network orchestrator reads, and a
// receive demultiplexer keyed by packet kind.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "fabric/packet.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/resource.h"
#include "telemetry/telemetry.h"

namespace freeflow::fabric {

class Switch;

struct NicCapabilities {
  bool rdma = true;
  bool dpdk = true;
  double line_rate_gbps = 40.0;
};

/// Live health of a NIC, mutated by the fault injector. Faults are modeled
/// per capability: an RDMA engine death drops only rdma_chunk packets, so
/// the kernel path (and the control plane) keeps working — which is exactly
/// what makes a transport fallback possible. A link-down drops everything.
struct NicHealth {
  bool link_up = true;
  bool rdma_up = true;
  bool dpdk_up = true;
  /// Fraction of line rate the NIC can still serialize at (degradation).
  double rate_fraction = 1.0;

  [[nodiscard]] bool healthy() const noexcept {
    return link_up && rdma_up && dpdk_up && rate_fraction >= 1.0;
  }
};

/// Per-tenant transmit QoS. The NIC schedules its tx link with weighted
/// deficit round-robin across tenants: each round a tenant's deficit grows
/// by `weight` quanta, so long-run bandwidth shares converge to the weight
/// ratio while any single tenant still gets the full line rate when alone
/// (work conservation). `rate_bps`, when non-zero, additionally caps the
/// tenant with a token bucket — its packets wait for tokens even when the
/// link is idle.
struct TenantQos {
  std::uint32_t weight = 1;
  double rate_bps = 0.0;  ///< 0 = uncapped
};

class Nic {
 public:
  /// Registers the per-PacketKind byte/drop counters and a tx-utilization
  /// probe ("nic/<host>/...") in `hub`, and the per-tenant series as tenants
  /// appear. The hub must outlive the NIC (both die with the cluster).
  Nic(sim::EventLoop& loop, const sim::CostModel& model, HostId host,
      NicCapabilities caps, telemetry::Telemetry& hub);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] HostId host() const noexcept { return host_; }
  [[nodiscard]] const NicCapabilities& capabilities() const noexcept { return caps_; }

  /// Fault-injection surface. Setters mutate live health; the injector is
  /// responsible for pushing the new state to the orchestrator (telemetry
  /// has its own detection latency — the NIC itself tells nobody).
  [[nodiscard]] const NicHealth& health() const noexcept { return health_; }
  void set_link_up(bool up) noexcept { health_.link_up = up; }
  void set_rdma_up(bool up) noexcept { health_.rdma_up = up; }
  void set_dpdk_up(bool up) noexcept { health_.dpdk_up = up; }
  /// Degrades serialization to `fraction` of line rate (1.0 restores).
  void set_rate_fraction(double fraction) noexcept;

  /// True if the current health state would discard a packet of `kind`.
  [[nodiscard]] bool would_drop(PacketKind kind) const noexcept;

  /// Observer for dropped packets (tx or rx side): the local agent uses
  /// this as its send-error signal for instant lane-failure detection.
  void set_on_drop(std::function<void(PacketKind)> cb) { on_drop_ = std::move(cb); }

  /// The on-NIC processor; the RDMA engine charges per-packet work here.
  [[nodiscard]] sim::Resource& processor() noexcept { return processor_; }
  [[nodiscard]] const sim::Resource& processor() const noexcept { return processor_; }

  /// Attaches this NIC to the ToR switch. Must be called before send().
  void attach(Switch* tor) noexcept { tor_ = tor; }

  /// Serializes and hands the packet to the switch (or loops back if the
  /// destination is this host — e.g. an RDMA hairpin through the NIC).
  /// Packets enter per-tenant queues (keyed by `packet->tenant`) and a
  /// weighted deficit-round-robin scheduler feeds the tx link one packet at
  /// a time, so a saturating tenant cannot starve the others.
  void send(PacketPtr packet);

  /// Configures (or reconfigures) one tenant's scheduling weight and
  /// optional rate cap. Unconfigured tenants default to weight 1, uncapped.
  void set_tenant_qos(std::uint32_t tenant, TenantQos qos);

  /// Bytes this NIC transmitted for `tenant` (0 if never seen).
  [[nodiscard]] std::uint64_t tenant_tx_bytes(std::uint32_t tenant) const noexcept;
  /// Packets currently queued for `tenant` awaiting the scheduler.
  [[nodiscard]] std::size_t tenant_queue_depth(std::uint32_t tenant) const noexcept;

  /// Registers the receive handler for one packet kind.
  void set_rx_handler(PacketKind kind, std::function<void(PacketPtr)> handler);

  /// Called by the switch (or loopback) when a packet arrives.
  void deliver(PacketPtr packet);

  [[nodiscard]] std::uint64_t tx_packets() const noexcept { return tx_packets_; }
  [[nodiscard]] std::uint64_t rx_packets() const noexcept { return rx_packets_; }
  [[nodiscard]] std::uint64_t tx_bytes() const noexcept { return sum(ctr_tx_bytes_); }
  [[nodiscard]] std::uint64_t rx_bytes() const noexcept { return sum(ctr_rx_bytes_); }

 private:
  /// DRR quantum per unit of weight, in bytes. Small enough that a weight-8
  /// tenant interleaves with a weight-1 tenant every few packets; deficits
  /// accumulate across rounds, so packets larger than one quantum still go
  /// out once the deficit catches up.
  static constexpr double k_drr_quantum_bytes = 16.0 * 1024;

  struct TenantQueue {
    std::deque<PacketPtr> q;
    TenantQos qos;
    double deficit = 0.0;  ///< bytes this tenant may send before rotating
    bool active = false;   ///< member of active_
    bool charged = false;  ///< deficit already grew this rotation
    double tokens = 0.0;   ///< rate-cap token bucket, in bytes
    SimTime tokens_at = 0;
    telemetry::Counter* ctr_tx_bytes = nullptr;
    telemetry::Gauge* g_queue_depth = nullptr;
    telemetry::Gauge* g_deficit = nullptr;
  };
  using KindCounters = std::array<telemetry::Counter*, k_packet_kinds>;

  [[nodiscard]] static std::uint64_t sum(const KindCounters& counters) noexcept {
    std::uint64_t total = 0;
    for (const telemetry::Counter* c : counters) total += c->value();
    return total;
  }

  sim::EventLoop& loop_;
  const sim::CostModel& model_;
  void drop(PacketKind kind);
  TenantQueue& tenant_queue(std::uint32_t tenant);
  void refill_tokens(TenantQueue& tq) noexcept;
  /// Picks the next packet by WDRR and occupies the tx link with it; no-op
  /// while a packet is serializing or every queue is empty/rate-blocked
  /// (blocked queues arm a retry timer at the earliest token-ready time).
  void dispatch_next();
  void transmit(PacketPtr packet);

  HostId host_;
  NicCapabilities caps_;
  NicHealth health_;
  sim::Resource processor_;
  sim::Resource tx_link_;
  Switch* tor_ = nullptr;
  std::array<std::function<void(PacketPtr)>, 4> rx_handlers_{};
  std::function<void(PacketKind)> on_drop_;

  /// Keyed by tenant; std::map keeps round-robin admission order (and
  /// telemetry names) deterministic. Pointers into the map are stable.
  std::map<std::uint32_t, TenantQueue> tenants_;
  /// Rotation of tenants with queued packets (WDRR active list).
  std::deque<TenantQueue*> active_;
  bool tx_busy_ = false;
  bool retry_armed_ = false;
  telemetry::MetricRegistry& metrics_;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;

  // Per-PacketKind telemetry, registered by the constructor.
  KindCounters ctr_tx_bytes_{};
  KindCounters ctr_rx_bytes_{};
  KindCounters ctr_drops_{};
};

}  // namespace freeflow::fabric
