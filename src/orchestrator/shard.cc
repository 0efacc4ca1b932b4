#include "orchestrator/shard.h"

#include <algorithm>

#include "common/logging.h"

namespace freeflow::orch {

ShardedControlPlane::ShardedControlPlane(NetworkOrchestrator& orchestrator, int shards)
    : orch_(orchestrator), shards_(static_cast<std::size_t>(std::max(shards, 1))) {
  auto& metrics = orch_.cluster_orch().cluster().telemetry().metrics();
  ctr_rpcs_ = &metrics.counter("orch/shard_rpcs");
  ctr_decisions_ = &metrics.counter("orch/shard_decisions");
  ctr_forwards_ = &metrics.counter("orch/cross_shard_forwards");
  ctr_bumps_ = &metrics.counter("orch/decision_epoch_bumps");
  ctr_flushes_ = &metrics.counter("orch/cache_flushes_pushed");

  // Invalidation sources. Subscribers run in subscription order, and these
  // are registered at construction — before any re-decision handler
  // (FreeFlow subscribes its own health, move and stop handlers after
  // constructing the plane) — so caches are flushed before the first
  // re-decide can consult them.
  std::weak_ptr<bool> alive = alive_;
  orch_.subscribe_health([this, alive](fabric::HostId host,
                                       const fabric::NicHealth& prev,
                                       const fabric::NicHealth& now) {
    if (alive.expired()) return;
    const std::uint8_t mask = health_drop_mask(prev, now);
    if (mask != k_drop_none) flush_host(host, mask);
  });
  orch_.subscribe_lane_failures([this, alive](fabric::HostId reporter,
                                              fabric::HostId peer, Transport t) {
    if (alive.expired()) return;
    // The report does not change orchestrator truth (telemetry may still
    // say healthy), but cached decisions over the reported transport must
    // re-consult: the conduits on the lane re-decide right after this.
    flush_host(reporter, transport_bit(t));
    if (peer != reporter) flush_host(peer, transport_bit(t));
  });
  orch_.subscribe_trust_changes([this, alive](TenantId a, TenantId b, bool now_trusted) {
    if (alive.expired()) return;
    // A revoke falsifies every cached non-overlay decision touching either
    // tenant (the pair must drop to the isolated overlay NOW); a grant only
    // falsifies the overlay decisions that can upgrade. Flushing both
    // tenants' containers over-covers same-tenant pairs, but those re-decide
    // to the same answer — correctness needs the cross-tenant entries gone.
    const std::uint8_t mask = now_trusted
                                  ? transport_bit(Transport::tcp_overlay)
                                  : static_cast<std::uint8_t>(
                                        k_drop_all & ~transport_bit(Transport::tcp_overlay));
    for (const auto& c : orch_.cluster_orch().containers_of_tenant(a)) {
      bump_and_flush(c->id(), mask);
    }
    if (b != a) {
      for (const auto& c : orch_.cluster_orch().containers_of_tenant(b)) {
        bump_and_flush(c->id(), mask);
      }
    }
  });
  orch_.cluster_orch().on_moved([this, alive](const Container& moved) {
    if (alive.expired()) return;
    // A move changes the host underneath every decision: drop everything.
    bump_and_flush(moved.id(), k_drop_all);
  });
  orch_.cluster_orch().on_stopped([this, alive](const Container& stopped) {
    if (alive.expired()) return;
    bump_and_flush(stopped.id(), k_drop_all);
  });
}

ShardedControlPlane::~ShardedControlPlane() { *alive_ = false; }

sim::EventLoop& ShardedControlPlane::loop() {
  return orch_.cluster_orch().cluster().loop();
}

DecisionEpoch ShardedControlPlane::epoch(ContainerId container) const {
  auto it = epochs_.find(container);
  return it == epochs_.end() ? 0 : it->second;
}

void ShardedControlPlane::decide_batch(fabric::HostId origin,
                                       std::vector<DecideRequest> requests,
                                       BatchFn done) {
  const auto& cm = orch_.cluster_orch().cluster().cost_model();
  const int home = shard_of_host(origin);
  Shard& shard = shards_[static_cast<std::size_t>(home)];
  ctr_rpcs_->inc();

  // Service cost, computed at enqueue so later arrivals queue behind it:
  // a fixed per-RPC overhead, a marginal cost per decision, and one
  // forward round per *distinct* peer shard referenced by the batch (the
  // shard coalesces its cross-shard lookups, mirroring the library's own
  // miss batching one level up).
  SimDuration cost = cm.orchestrator_batch_fixed_ns +
                     static_cast<SimDuration>(requests.size()) *
                         cm.orchestrator_decide_service_ns;
  std::uint32_t peer_shards = 0;  // bitset; shard counts are small (<= 32)
  std::uint64_t forwarded = 0;
  for (const auto& r : requests) {
    ContainerPtr dst = orch_.cluster_orch().container(r.dst);
    if (dst == nullptr) continue;
    const int peer = shard_of_host(dst->host());
    if (peer == home) continue;
    ++forwarded;
    peer_shards |= 1u << (static_cast<unsigned>(peer) % 32u);
  }
  for (std::uint32_t bits = peer_shards; bits != 0; bits &= bits - 1) {
    cost += cm.cross_shard_forward_ns;
  }
  ctr_forwards_->inc(forwarded);
  ctr_decisions_->inc(requests.size());

  const SimDuration one_way = cm.orchestrator_rpc_ns / 2;
  const SimTime arrival = loop().now() + one_way;
  const SimTime service_done = std::max(arrival, shard.busy_until) + cost;
  shard.busy_until = service_done;

  std::weak_ptr<bool> alive = alive_;
  loop().schedule_at(service_done, [this, alive, one_way,
                                    requests = std::move(requests),
                                    done = std::move(done)]() mutable {
    if (alive.expired()) return;
    // Service moment: answer from current truth, stamped with current
    // epochs. Anything that changes between now and delivery bumps the
    // epoch past these stamps and the client rejects the reply.
    std::vector<DecideReply> replies;
    replies.reserve(requests.size());
    for (const auto& r : requests) {
      DecideReply reply;
      auto d = orch_.decide(r.src, r.dst);
      if (d.is_ok()) {
        reply.decision = std::move(d.value());
      } else {
        reply.error = d.status();
      }
      reply.src_epoch = epoch(r.src);
      reply.dst_epoch = epoch(r.dst);
      replies.push_back(std::move(reply));
    }
    loop().schedule(one_way, [done = std::move(done),
                              replies = std::move(replies)]() mutable {
      done(std::move(replies));
    });
  });
}

// ------------------------------------------------------------ invalidation

std::uint8_t ShardedControlPlane::health_drop_mask(
    const fabric::NicHealth& prev, const fabric::NicHealth& now) noexcept {
  // Link transitions reroute everything through the host either way.
  if (prev.link_up != now.link_up) return k_drop_all;
  std::uint8_t mask = k_drop_none;
  // A capability death invalidates decisions *using* it; a recovery
  // invalidates the downgraded decisions that can now be upgraded. Entries
  // outside the mask (co-located shm, untrusted overlay) are provably
  // unaffected and survive with a re-stamped epoch.
  if (prev.rdma_up && !now.rdma_up) mask |= transport_bit(Transport::rdma);
  if (!prev.rdma_up && now.rdma_up) {
    mask |= transport_bit(Transport::dpdk) | transport_bit(Transport::tcp_host);
  }
  if (prev.dpdk_up && !now.dpdk_up) mask |= transport_bit(Transport::dpdk);
  if (!prev.dpdk_up && now.dpdk_up) mask |= transport_bit(Transport::tcp_host);
  // rate_fraction does not shift decisions (a slow NIC slows every
  // transport equally), so degradation flushes nothing.
  return mask;
}

void ShardedControlPlane::flush_host(fabric::HostId host, std::uint8_t drop_mask) {
  for (const auto& c : orch_.cluster_orch().containers_on(host)) {
    bump_and_flush(c->id(), drop_mask);
  }
}

void ShardedControlPlane::bump_and_flush(ContainerId container,
                                         std::uint8_t drop_mask) {
  const DecisionEpoch e = ++epochs_[container];
  ctr_bumps_->inc();
  auto it = holders_.find(container);
  if (it == holders_.end()) return;
  // Snapshot: a flushed cache whose last entry for the container dies will
  // drop_interest() reentrantly.
  std::vector<DecisionCacheClient*> snapshot = it->second;
  ctr_flushes_->inc(snapshot.size());
  for (DecisionCacheClient* cache : snapshot) {
    cache->on_flush(container, e, drop_mask);
  }
}

// -------------------------------------------------------- interest registry

void ShardedControlPlane::register_interest(ContainerId container,
                                            DecisionCacheClient* cache) {
  auto& list = holders_[container];
  if (std::find(list.begin(), list.end(), cache) == list.end()) {
    list.push_back(cache);
  }
}

void ShardedControlPlane::drop_interest(ContainerId container,
                                        DecisionCacheClient* cache) {
  auto it = holders_.find(container);
  if (it == holders_.end()) return;
  std::erase(it->second, cache);
  if (it->second.empty()) holders_.erase(it);
}

void ShardedControlPlane::detach(DecisionCacheClient* cache) {
  for (auto it = holders_.begin(); it != holders_.end();) {
    std::erase(it->second, cache);
    it = it->second.empty() ? holders_.erase(it) : std::next(it);
  }
}

}  // namespace freeflow::orch
