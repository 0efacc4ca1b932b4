// Sharded control plane: the scale-out front of the network orchestrator.
//
// The paper (§4.1) argues the centralized orchestrator is cheap because it
// is off the data path — true per packet, false per flow once every setup
// consults one decision service. This module partitions the control plane
// into N `OrchestratorShard`s by *host* (shard = host % N): each shard has
// its own RPC queue and serial service capacity on the simulation clock, so
// decision throughput scales with the shard count instead of serializing
// the cluster. A thin router fronts the shards; a query for (src, dst) is
// served by the home shard of the *origin host* (the agent always asks its
// own shard), which forwards to the peer's shard when dst lives elsewhere —
// one batched forward round per (RPC, peer shard), not one per decision.
//
// The hard part is invalidation. Every container carries a monotonically
// increasing *decision epoch*; any event that can change decisions touching
// it — migration, stop, a NIC-health transition on its host, an agent lane
// -failure report — bumps the epoch and pushes a *precise* flush to exactly
// the caches that registered interest in that container (the selectors keep
// per-container reverse indexes, so a flush drops exactly the affected
// (src, dst) entries). Flushes carry a transport drop-mask: an RDMA engine
// death drops only cached rdma decisions and leaves co-located shm pairs
// untouched; a recovery drops the downgraded decisions that can now be
// upgraded (see DESIGN.md §12 for the full fault-kind × flush-scope
// matrix). Decision replies carry the epochs they were served under, so a
// reply that raced a migration is rejected by the cache and re-queried
// instead of poisoning it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "orchestrator/network_orchestrator.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"

namespace freeflow::orch {

/// Monotonic per-container decision version. Bumped on every event that can
/// change decisions involving the container; cached entries and in-flight
/// replies are stamped with it and rejected when they lag.
using DecisionEpoch = std::uint64_t;

/// Bit of `t` in a flush drop-mask.
[[nodiscard]] constexpr std::uint8_t transport_bit(Transport t) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(t));
}
inline constexpr std::uint8_t k_drop_none = 0;
inline constexpr std::uint8_t k_drop_all = 0x1F;  ///< all five transports

/// A decision cache that registered interest in containers (the per-agent
/// `TransportSelector`s). Flush pushes arrive through this interface.
class DecisionCacheClient {
 public:
  virtual ~DecisionCacheClient() = default;
  /// Precise invalidation push: drop cached entries involving `container`
  /// whose decision transport is in `drop_mask`; surviving entries are
  /// re-stamped with `epoch` (the event was proven not to affect them).
  virtual void on_flush(ContainerId container, DecisionEpoch epoch,
                        std::uint8_t drop_mask) = 0;
};

class ShardedControlPlane {
 public:
  struct DecideRequest {
    ContainerId src = 0;
    ContainerId dst = 0;
  };
  /// One answered decision. `error` carries an unknown-container answer,
  /// which caches return but never store; epochs are sampled at
  /// shard service time, NOT delivery time — the gap is exactly what the
  /// cache's epoch check closes.
  struct DecideReply {
    Status error;
    TransportDecision decision;
    DecisionEpoch src_epoch = 0;
    DecisionEpoch dst_epoch = 0;
  };
  using BatchFn = std::function<void(std::vector<DecideReply>)>;

  ShardedControlPlane(NetworkOrchestrator& orchestrator, int shards);
  ~ShardedControlPlane();

  ShardedControlPlane(const ShardedControlPlane&) = delete;
  ShardedControlPlane& operator=(const ShardedControlPlane&) = delete;

  /// One batched decide RPC from the agent on `origin` to its home shard.
  /// Replies arrive after wire latency + the shard's queue + service time
  /// (+ one forward round per distinct peer shard among the requests).
  /// Service answers from current truth; requests are not reordered.
  void decide_batch(fabric::HostId origin, std::vector<DecideRequest> requests,
                    BatchFn done);

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// The partition function. Host-granular so one agent talks to one shard.
  [[nodiscard]] int shard_of_host(fabric::HostId host) const noexcept {
    return static_cast<int>(host % shards_.size());
  }

  /// Current decision epoch of a container (0 until first bumped). Ground
  /// truth — caches consult it to validate replies and audit hits.
  [[nodiscard]] DecisionEpoch epoch(ContainerId container) const;

  // ---- interest registry (who holds entries involving a container) ------
  void register_interest(ContainerId container, DecisionCacheClient* cache);
  void drop_interest(ContainerId container, DecisionCacheClient* cache);
  /// Removes `cache` from every interest set (cache teardown).
  void detach(DecisionCacheClient* cache);

  /// Planned migration is starting for `container`: bump its epoch and push
  /// a full-mask flush NOW — before the first conduit pauses — so no
  /// selector serves a decision pinned to the source host mid-move. The
  /// move-completion subscription bumps again when the new location lands.
  void note_migration_started(ContainerId container) {
    bump_and_flush(container, k_drop_all);
  }

  // ---- introspection (the "orch/*" registry counters) ------------------
  [[nodiscard]] std::uint64_t shard_rpcs() const noexcept { return ctr_rpcs_->value(); }
  [[nodiscard]] std::uint64_t cross_shard_forwards() const noexcept {
    return ctr_forwards_->value();
  }

  [[nodiscard]] NetworkOrchestrator& orchestrator() noexcept { return orch_; }

 private:
  /// One shard's queueing state: a serial service line on the sim clock.
  struct Shard {
    SimTime busy_until = 0;
  };

  [[nodiscard]] sim::EventLoop& loop();
  void bump_and_flush(ContainerId container, std::uint8_t drop_mask);
  /// Bumps every container on `host` (health events are host-granular).
  void flush_host(fabric::HostId host, std::uint8_t drop_mask);
  /// The invalidation matrix for NIC-health transitions (DESIGN.md §12).
  [[nodiscard]] static std::uint8_t health_drop_mask(
      const fabric::NicHealth& prev, const fabric::NicHealth& now) noexcept;

  NetworkOrchestrator& orch_;
  std::vector<Shard> shards_;
  std::unordered_map<ContainerId, DecisionEpoch> epochs_;
  /// container -> caches holding entries involving it. Small vectors: an
  /// entry's holders are the agents of the two endpoints' hosts.
  std::unordered_map<ContainerId, std::vector<DecisionCacheClient*>> holders_;

  telemetry::Counter* ctr_rpcs_ = nullptr;
  telemetry::Counter* ctr_decisions_ = nullptr;
  telemetry::Counter* ctr_forwards_ = nullptr;
  telemetry::Counter* ctr_bumps_ = nullptr;
  telemetry::Counter* ctr_flushes_ = nullptr;

  /// The orchestrator (and its subscriber lists) can outlive this plane;
  /// subscriptions and scheduled service events guard on this token.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace freeflow::orch
