#include "core/selector.h"

namespace freeflow::core {

namespace {
std::uint64_t pair_key(orch::ContainerId a, orch::ContainerId b) noexcept {
  return (std::uint64_t{a} << 32) | b;
}
orch::ContainerId key_src(std::uint64_t key) noexcept {
  return static_cast<orch::ContainerId>(key >> 32);
}
orch::ContainerId key_dst(std::uint64_t key) noexcept {
  return static_cast<orch::ContainerId>(key & 0xFFFFFFFFULL);
}
}  // namespace

TransportSelector::TransportSelector(orch::ShardedControlPlane& plane,
                                     sim::EventLoop& loop, fabric::HostId host,
                                     std::size_t capacity)
    : plane_(plane), loop_(loop), host_(host), capacity_(capacity) {
  FF_CHECK(capacity_ > 0);
  auto& metrics =
      plane_.orchestrator().cluster_orch().cluster().telemetry().metrics();
  ctr_rpc_rounds_ = &metrics.counter("selector/decide_rpc_rounds");
  ctr_coalesced_ = &metrics.counter("selector/decide_coalesced");
  ctr_invalidations_ = &metrics.counter("selector/invalidations");
  ctr_stale_served_ = &metrics.counter("selector/stale_served");
  ctr_evictions_ = &metrics.counter("selector/cache_evictions");
  ctr_epoch_rejects_ = &metrics.counter("selector/epoch_rejects");
}

TransportSelector::~TransportSelector() {
  *alive_ = false;
  plane_.detach(this);
}

void TransportSelector::decide(orch::ContainerId src, orch::ContainerId dst,
                               std::function<void(Result<orch::TransportDecision>)> cb) {
  const std::uint64_t key = pair_key(src, dst);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    CacheEntry& e = it->second;
    if (e.src_epoch < plane_.epoch(src) || e.dst_epoch < plane_.epoch(dst)) {
      // Ground-truth audit: the entry's epochs lag — a flush that should
      // have dropped or re-stamped it never arrived. Serve as a miss (never
      // the stale answer) and count the escape; the perf gate holds this
      // at zero.
      ctr_stale_served_->inc();
      erase_entry(it);
    } else {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, e.lru);
      loop_.schedule(0, [cb = std::move(cb), d = e.decision]() { cb(d); });
      return;
    }
  }
  ++misses_;
  enqueue(PendingQuery{key, src, dst, 0, std::move(cb)});
}

void TransportSelector::enqueue(PendingQuery q) {
  batch_.push_back(std::move(q));
  if (flush_scheduled_) return;  // riding the window already open
  flush_scheduled_ = true;
  const SimDuration window = plane_.orchestrator()
                                 .cluster_orch()
                                 .cluster()
                                 .cost_model()
                                 .decide_batch_window_ns;
  std::weak_ptr<bool> alive = alive_;
  loop_.schedule(window, [this, alive]() {
    if (alive.expired()) return;
    flush_batch();
  });
}

void TransportSelector::flush_batch() {
  flush_scheduled_ = false;
  std::vector<PendingQuery> round;
  round.swap(batch_);  // queries arriving during callbacks start a new round
  ctr_rpc_rounds_->inc();
  if (round.size() > 1) ctr_coalesced_->inc(round.size() - 1);

  std::vector<orch::ShardedControlPlane::DecideRequest> requests;
  requests.reserve(round.size());
  for (const auto& q : round) requests.push_back({q.src, q.dst});

  std::weak_ptr<bool> alive = alive_;
  plane_.decide_batch(
      host_, std::move(requests),
      [this, alive, round = std::move(round)](
          std::vector<orch::ShardedControlPlane::DecideReply> replies) mutable {
        if (alive.expired()) return;
        FF_CHECK(replies.size() == round.size());
        for (std::size_t i = 0; i < round.size(); ++i) {
          complete(std::move(round[i]), std::move(replies[i]));
        }
      });
}

void TransportSelector::complete(PendingQuery q,
                                 orch::ShardedControlPlane::DecideReply reply) {
  // Epoch check: the reply was served at shard service time; if the
  // container moved (or its host's health flipped) while the reply was on
  // the wire, the epochs in our plane lookup have advanced past the stamps
  // and the answer describes a world that no longer exists. Reject it and
  // ride the next batch instead of caching or serving it.
  if (reply.src_epoch < plane_.epoch(q.src) || reply.dst_epoch < plane_.epoch(q.dst)) {
    ctr_epoch_rejects_->inc();
    if (q.attempt + 1 < k_max_decide_attempts) {
      ++q.attempt;
      enqueue(std::move(q));
    } else {
      q.cb(aborted("transport decision kept racing container events"));
    }
    return;
  }
  if (!reply.error.is_ok()) {
    // Not cached: the container may be deployed a moment from now, and
    // nothing would push a flush for an id no cache registered interest in.
    q.cb(std::move(reply.error));
    return;
  }
  store(q, reply);
  q.cb(std::move(reply.decision));
}

void TransportSelector::store(const PendingQuery& q,
                              const orch::ShardedControlPlane::DecideReply& reply) {
  auto it = cache_.find(q.key);
  if (it == cache_.end()) {
    if (cache_.size() >= capacity_) {
      // Evict the least-recently-used entry to stay within bound.
      auto victim = cache_.find(lru_.back());
      FF_CHECK(victim != cache_.end());
      erase_entry(victim);
      ctr_evictions_->inc();
    }
    lru_.push_front(q.key);
    it = cache_.emplace(q.key, CacheEntry{}).first;
    it->second.lru = lru_.begin();
    index(q.src, q.key);
    if (q.dst != q.src) index(q.dst, q.key);
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  CacheEntry& e = it->second;
  e.decision = reply.decision;
  e.src_epoch = reply.src_epoch;
  e.dst_epoch = reply.dst_epoch;
}

void TransportSelector::on_flush(orch::ContainerId container,
                                 orch::DecisionEpoch epoch, std::uint8_t drop_mask) {
  auto idx = by_container_.find(container);
  if (idx == by_container_.end()) return;
  // Copy: erase_entry mutates (and may erase) the index set underneath us.
  std::vector<std::uint64_t> keys(idx->second.begin(), idx->second.end());
  for (std::uint64_t key : keys) {
    auto it = cache_.find(key);
    if (it == cache_.end()) continue;
    CacheEntry& e = it->second;
    if ((orch::transport_bit(e.decision.transport) & drop_mask) != 0) {
      erase_entry(it);
      ctr_invalidations_->inc();
    } else {
      // Provably unaffected by this event (e.g. a co-located shm pair
      // riding out an RDMA engine death): re-stamp so the hit-path audit
      // knows the entry was revalidated, not missed.
      if (key_src(key) == container) e.src_epoch = epoch;
      if (key_dst(key) == container) e.dst_epoch = epoch;
    }
  }
}

void TransportSelector::erase_entry(CacheMap::iterator it) {
  const std::uint64_t key = it->first;
  lru_.erase(it->second.lru);
  cache_.erase(it);
  unindex(key_src(key), key);
  if (key_dst(key) != key_src(key)) unindex(key_dst(key), key);
}

void TransportSelector::index(orch::ContainerId container, std::uint64_t key) {
  auto& keys = by_container_[container];
  if (keys.empty()) plane_.register_interest(container, this);
  keys.insert(key);
}

void TransportSelector::unindex(orch::ContainerId container, std::uint64_t key) {
  auto idx = by_container_.find(container);
  if (idx == by_container_.end()) return;
  idx->second.erase(key);
  if (idx->second.empty()) {
    by_container_.erase(idx);
    plane_.drop_interest(container, this);
  }
}

}  // namespace freeflow::core
