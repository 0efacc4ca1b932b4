// Calibration constants for the simulated testbed.
//
// The paper's testbed is a pair of Intel Xeon 2.40 GHz 4-core servers with
// 40 Gbps Mellanox CX3 (RoCE) NICs running Docker (CentOS 7). The constants
// below are chosen so the *textual* numbers in the paper re-emerge from
// resource contention in the simulation:
//
//   - TCP through the docker0 bridge:    ~27 Gb/s at ~200 % CPU     (§2.3.1)
//   - TCP in host mode:                  ~38 Gb/s                   (§2, fig)
//   - Overlay (software router) mode:    worse than host mode       (Fig. 1)
//   - RDMA (intra- or inter-host):       ~40 Gb/s (NIC line rate),
//                                        low host CPU               (§2.3.1)
//   - Shared memory:                     near memory bandwidth,
//                                        lowest latency, some CPU   (§2.3.1)
//
// Derivations (64 KiB GSO chunk):
//   host-mode TCP per-chunk CPU  = fixed + copy ≈ 13.9 µs  → ≈ 37.7 Gb/s
//   bridge adds ≈ 5.5 µs/chunk per side                    → ≈ 27.0 Gb/s
//   overlay router adds 2 copies + fixed ≈ 23.2 µs/chunk   → ≈ 22.6 Gb/s
//   RDMA NIC ≈ 780 ns per 4 KiB chunk                      → ≈ 42 Gb/s, so
//     the 40 Gb/s line rate is the binding cap (NIC processor ≈ 95 % busy)
//   SHM copy at 0.06 ns/B per side                         → ≈ 133 Gb/s/pair,
//     plateauing at the memory bus for multiple pairs
//
// All benchmarks read these through a `CostModel` instance so ablations can
// perturb individual stages.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace freeflow::sim {

struct CostModel {
  // ---- Host hardware -------------------------------------------------
  int cores_per_host = 4;
  double core_rate = 1e9;               ///< work-ns served per second per core
  double membus_bytes_per_sec = 50e9;   ///< ~400 Gb/s memory bandwidth

  // ---- Physical network ----------------------------------------------
  double nic_line_gbps = 40.0;          ///< CX3 line rate
  SimDuration link_prop_ns = 300;       ///< host <-> ToR propagation
  SimDuration switch_fwd_ns = 200;      ///< ToR forwarding latency

  // ---- Kernel TCP/IP stack (per GSO chunk of up to tcp_chunk_bytes) ---
  std::uint32_t tcp_chunk_bytes = 64 * 1024;
  double tcp_tx_fixed_ns = 3800;        ///< syscall + protocol tx
  double tcp_rx_fixed_ns = 3700;        ///< softirq + protocol rx
  double tcp_copy_ns_per_byte = 0.154;  ///< one user<->kernel copy
  SimDuration tcp_rx_wakeup_ns = 4000;  ///< scheduler wakeup on delivery
  int tcp_window_chunks = 8;            ///< in-flight GSO chunks per connection
  SimDuration tcp_rto_ns = 5 * k_millisecond;
  double tcp_ack_ns = 800;              ///< ack gen/processing per data chunk

  // ---- veth + linux bridge hop (bridge/overlay modes), per chunk ------
  double bridge_fixed_ns = 1500;
  double bridge_ns_per_byte = 0.061;
  double bridge_ack_ns = 300;           ///< bridge hop cost for pure acks

  // ---- Overlay software router (per chunk) ----------------------------
  double router_fixed_ns = 3000;        ///< 2 syscalls + forwarding decision
  double router_copy_ns_per_byte = 0.154;  ///< charged twice (in + out)
  double vxlan_ns_per_chunk = 800;      ///< encap/decap, inter-host only
  double router_ack_ns = 1000;          ///< router forwarding cost for pure acks

  // ---- RDMA verbs ------------------------------------------------------
  std::uint32_t rdma_mtu_bytes = 4096;
  double rdma_post_ns = 600;            ///< host CPU per posted verb
  double rdma_poll_ns = 300;            ///< host CPU per reaped completion
  double nic_proc_rate = 1e9;           ///< NIC processor work-ns per second
  double nic_pkt_fixed_ns = 400;        ///< NIC processor per packet
  double nic_pkt_ns_per_byte = 0.0928;  ///< NIC processor per byte
  double nic_dma_bus_bytes_factor = 1.0;  ///< membus bytes charged per wire byte

  // ---- Shared memory channel ------------------------------------------
  double shm_post_ns = 250;             ///< ring enqueue (sender CPU)
  double shm_poll_ns = 150;             ///< ring dequeue (receiver CPU)
  SimDuration shm_wakeup_ns = 300;      ///< cross-core notification latency
  double shm_copy_ns_per_byte = 0.060;  ///< streaming memcpy per side
  double shm_bus_bytes_factor = 2.0;    ///< membus bytes charged per payload byte

  // ---- DPDK poll-mode driver -------------------------------------------
  double dpdk_pkt_fixed_ns = 250;
  double dpdk_pkt_ns_per_byte = 0.061;  ///< ≈ 500 ns per 4 KiB chunk
  SimDuration dpdk_poll_gap_ns = 200;   ///< mean time until next poll iteration

  // ---- FreeFlow agent ---------------------------------------------------
  SimDuration agent_wakeup_ns = 500;    ///< CQ-notify wakeup at the agent
  double agent_record_ns = 300;         ///< agent CPU per relayed record
  double agent_copy_ns_per_byte = 0.060;  ///< only in copy-relay mode (ablation)

  // ---- FreeFlow control plane ------------------------------------------
  SimDuration orchestrator_rpc_ns = 50 * k_microsecond;  ///< location query RTT
  /// Library-side miss coalescing: decide() misses arriving within one
  /// window ride the same batched RPC to the home shard.
  SimDuration decide_batch_window_ns = 10 * k_microsecond;
  /// Orchestrator-shard service model: per-RPC fixed overhead plus a
  /// marginal cost per decision, served serially per shard — the quantity
  /// sharding divides. Cross-shard lookups add one forward round per
  /// distinct peer shard referenced by a batch.
  SimDuration orchestrator_batch_fixed_ns = 5 * k_microsecond;
  SimDuration orchestrator_decide_service_ns = 100;
  SimDuration cross_shard_forward_ns = 2 * k_microsecond;

  // ---- Fault tolerance --------------------------------------------------
  /// Fabric telemetry latency: time from a NIC fault to the orchestrator's
  /// health map reflecting it (and re-decision callbacks firing).
  SimDuration fault_detect_ns = 200 * k_microsecond;

  // ---- Planned live migration (src/migration) --------------------------
  /// Quiesce budget: how long the coordinator waits for each paused
  /// conduit's retained window to drain before capturing it anyway (the
  /// undrained tail replays at the destination, peers dedup — lossless).
  SimDuration migration_quiesce_deadline_ns = 2 * k_millisecond;
  /// Destination-side activation: container unfreeze fixed cost. Models a
  /// pre-copied migration where only the final connection state bounds the
  /// blackout (the memory pre-copy overlaps with execution);
  /// contrast the 50 ms stop-and-copy default of the *reactive*
  /// ClusterOrchestrator::migrate path.
  SimDuration migration_resume_fixed_ns = 300 * k_microsecond;
  /// Transfer cost per byte of moved connection state (~40 GB/s state
  /// push; MigrationReport::image_bytes counts those bytes).
  double migration_image_byte_ns = 0.025;

  /// NIC processor work units for one packet of `bytes`.
  [[nodiscard]] double nic_pkt_cost(std::uint32_t bytes) const noexcept {
    return nic_pkt_fixed_ns + nic_pkt_ns_per_byte * static_cast<double>(bytes);
  }
  [[nodiscard]] double tcp_tx_cost(std::uint32_t bytes) const noexcept {
    return tcp_tx_fixed_ns + tcp_copy_ns_per_byte * static_cast<double>(bytes);
  }
  [[nodiscard]] double tcp_rx_cost(std::uint32_t bytes) const noexcept {
    return tcp_rx_fixed_ns + tcp_copy_ns_per_byte * static_cast<double>(bytes);
  }
  [[nodiscard]] double bridge_cost(std::uint32_t bytes) const noexcept {
    return bridge_fixed_ns + bridge_ns_per_byte * static_cast<double>(bytes);
  }
  [[nodiscard]] double router_cost(std::uint32_t bytes) const noexcept {
    return router_fixed_ns + 2.0 * router_copy_ns_per_byte * static_cast<double>(bytes);
  }
  [[nodiscard]] double dpdk_pkt_cost(std::uint32_t bytes) const noexcept {
    return dpdk_pkt_fixed_ns + dpdk_pkt_ns_per_byte * static_cast<double>(bytes);
  }
};

}  // namespace freeflow::sim
