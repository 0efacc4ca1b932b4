// Transport selector: the per-agent decision cache over the sharded
// control plane. The library "keeps pulling the newest container location
// information from the network orchestrator" (paper §3.2); each host's
// agent now holds its own bounded cache of (src, dst) -> TransportDecision
// entries, versioned by the control plane's per-container decision epochs.
//
// Misses are batched per home shard: every query that arrives within one
// coalescing window rides the same batched RPC instead of paying its own.
// Only answers are cached: an unknown-container error is returned to the
// caller but never stored, so a deploy right after it is seen at once. The
// cache is bounded: beyond capacity the least-recently-used entry is
// evicted.
//
// Coherence is push-only and precise. The plane tracks which selectors
// hold entries involving each container (the selector registers interest
// as entries appear and drops it when the last one dies); fault reports,
// NIC-health transitions, trust changes and migrations push epoch-bumped
// flushes that drop exactly the affected entries via a per-container
// reverse index — a co-located shm pair survives its host's RDMA engine
// dying. An entry therefore lives until a flush, an LRU eviction or a
// failed hit-time audit: every hit is checked against ground-truth epochs,
// and an entry whose epochs lag is served as a miss and counted in
// `selector/stale_served`, which the perf gate holds at zero.
//
// The selector's round, eviction, invalidation, audit and epoch-reject
// counts live only in the registry ("selector/*", summed over every
// host's selector); hits and misses are per-selector members.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "orchestrator/shard.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"

namespace freeflow::core {

class TransportSelector final : public orch::DecisionCacheClient {
 public:
  TransportSelector(orch::ShardedControlPlane& plane, sim::EventLoop& loop,
                    fabric::HostId host, std::size_t capacity);
  ~TransportSelector() override;

  TransportSelector(const TransportSelector&) = delete;
  TransportSelector& operator=(const TransportSelector&) = delete;

  /// Decides the transport from `src` to `dst`. Cached answers return after
  /// one scheduling quantum; misses join the current batch window and pay
  /// (one shared) home-shard RPC. A reply that raced an epoch bump (e.g. a
  /// migration completing while the RPC was in flight) is rejected and
  /// re-queried instead of being cached or served.
  void decide(orch::ContainerId src, orch::ContainerId dst,
              std::function<void(Result<orch::TransportDecision>)> cb);

  /// Control-plane flush push (DecisionCacheClient), the only way entries
  /// are invalidated. Drops entries for `container` whose transport is in
  /// `drop_mask` — O(entries actually affected) via the reverse index, not
  /// a full-cache sweep — and re-stamps survivors.
  void on_flush(orch::ContainerId container, orch::DecisionEpoch epoch,
                std::uint8_t drop_mask) override;

  [[nodiscard]] fabric::HostId host() const noexcept { return host_; }
  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }

  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }

 private:
  /// Epoch-reject retry budget: a query that keeps racing container events
  /// (one bump per in-flight window is the realistic worst case) re-rides
  /// the next batch this many times before surfacing `aborted`.
  static constexpr int k_max_decide_attempts = 4;

  struct CacheEntry {
    orch::TransportDecision decision;
    orch::DecisionEpoch src_epoch = 0;
    orch::DecisionEpoch dst_epoch = 0;
    std::list<std::uint64_t>::iterator lru;
  };
  using CacheMap = std::unordered_map<std::uint64_t, CacheEntry>;

  struct PendingQuery {
    std::uint64_t key = 0;
    orch::ContainerId src = 0;
    orch::ContainerId dst = 0;
    int attempt = 0;
    std::function<void(Result<orch::TransportDecision>)> cb;
  };

  void enqueue(PendingQuery q);
  void flush_batch();
  void complete(PendingQuery q, orch::ShardedControlPlane::DecideReply reply);
  void store(const PendingQuery& q,
             const orch::ShardedControlPlane::DecideReply& reply);
  /// Single exit for entries: maintains LRU, reverse index and interest.
  void erase_entry(CacheMap::iterator it);
  void unindex(orch::ContainerId container, std::uint64_t key);
  void index(orch::ContainerId container, std::uint64_t key);

  orch::ShardedControlPlane& plane_;
  sim::EventLoop& loop_;
  const fabric::HostId host_;
  const std::size_t capacity_;

  CacheMap cache_;
  /// Most-recently-used at the front; evictions pop the back.
  std::list<std::uint64_t> lru_;
  /// container -> keys of cached entries involving it (precise flushes).
  std::unordered_map<orch::ContainerId, std::unordered_set<std::uint64_t>> by_container_;

  std::vector<PendingQuery> batch_;
  bool flush_scheduled_ = false;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  // Registry-shared counters (aggregated across the per-agent selectors).
  telemetry::Counter* ctr_rpc_rounds_ = nullptr;
  telemetry::Counter* ctr_coalesced_ = nullptr;
  telemetry::Counter* ctr_invalidations_ = nullptr;
  /// Hits whose epochs lagged ground truth — a flush that should have
  /// arrived didn't. Served as a miss instead.
  telemetry::Counter* ctr_stale_served_ = nullptr;
  telemetry::Counter* ctr_evictions_ = nullptr;
  /// In-flight replies rejected because an epoch bump overtook them.
  telemetry::Counter* ctr_epoch_rejects_ = nullptr;

  /// Guard for replies scheduled on the loop outliving this selector.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace freeflow::core
