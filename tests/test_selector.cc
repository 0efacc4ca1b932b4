// Sharded control plane + per-agent decision caches: routing, precise
// invalidation, epoch coherence. The properties under test are the ones
// the decision-storm bench gates — a cache entry is never served after an
// event that could change it (stale_served == 0 is the acceptance bar),
// and invalidation drops exactly the affected (src, dst) entries.
#include <gtest/gtest.h>

#include <string>

#include "core/freeflow.h"
#include "faults/fault_injector.h"
#include "sim_env.h"

namespace freeflow {
namespace {

using testing::Env;
using faults::FaultInjector;
using faults::FaultKind;

/// Synchronous-looking decide: runs the loop until the callback fires.
Result<orch::TransportDecision> decide_now(Env& env, core::TransportSelector& sel,
                                           orch::ContainerId src,
                                           orch::ContainerId dst) {
  Result<orch::TransportDecision> out = unavailable("decide never completed");
  bool done = false;
  sel.decide(src, dst, [&](Result<orch::TransportDecision> d) {
    out = std::move(d);
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  return out;
}

/// A "selector/<name>" registry counter: the sum over every host's selector.
std::uint64_t selector_counter(Env& env, const std::string& name) {
  return env.cluster.telemetry().metrics().counter_value("selector/" + name);
}

// ------------------------------------------------------ precise invalidation

TEST(Selector, PreciseInvalidationDropsOnlyAffectedPairs) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto c = env.deploy("c", 1, 1);
  auto& sel = env.freeflow().selector();

  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::shm);
  ASSERT_EQ(decide_now(env, sel, a->id(), c->id())->transport, orch::Transport::rdma);
  ASSERT_EQ(decide_now(env, sel, b->id(), c->id())->transport, orch::Transport::rdma);
  ASSERT_EQ(sel.cache_size(), 3u);

  // A full-mask push for c drops exactly the two entries touching c.
  env.freeflow().control_plane().note_migration_started(c->id());
  EXPECT_EQ(sel.cache_size(), 1u);
  EXPECT_EQ(selector_counter(env, "invalidations"), 2u);

  // The (a, b) entry was untouched: still a hit.
  const auto hits_before = sel.cache_hits();
  ASSERT_TRUE(decide_now(env, sel, a->id(), b->id()).is_ok());
  EXPECT_EQ(sel.cache_hits(), hits_before + 1);
}

// Trust is an orchestrator-level event that can change any cached decision
// for the two tenants involved. Regression: revoking trust never reached
// the shards, so warmed selectors kept handing out shm/rdma decisions to
// pairs that no longer trust each other — an isolation hole, not a perf bug.
TEST(Selector, TenantTrustRevocationFlushesCachedDecisions) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 2, 0);
  auto& sel = env.freeflow().selector();

  // Untrusted cross-tenant pair: only the overlay is permitted; cached.
  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport,
            orch::Transport::tcp_overlay);

  // Granting trust must flush the cached overlay answer so the co-located
  // pair upgrades to shm on the next decide.
  env.net_orch->set_tenant_trust(1, 2, true);
  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport,
            orch::Transport::shm);

  // Revoking trust must drop the cached shm decision the same way.
  env.net_orch->set_tenant_trust(1, 2, false);
  EXPECT_EQ(decide_now(env, sel, a->id(), b->id())->transport,
            orch::Transport::tcp_overlay);
  EXPECT_EQ(selector_counter(env, "stale_served"), 0u);

  // No-op transitions (revoking absent trust, double-granting) must not
  // thrash the cache with redundant flushes.
  const auto inv_before = selector_counter(env, "invalidations");
  env.net_orch->set_tenant_trust(1, 2, false);
  env.net_orch->set_tenant_trust(3, 4, false);
  EXPECT_EQ(selector_counter(env, "invalidations"), inv_before);
}

TEST(Selector, LruEvictionKeepsCacheBounded) {
  agent::AgentConfig config;
  config.selector_cache_capacity = 2;
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto c = env.deploy("c", 1, 1);
  auto& sel = env.freeflow(config).selector();

  ASSERT_TRUE(decide_now(env, sel, a->id(), b->id()).is_ok());
  ASSERT_TRUE(decide_now(env, sel, a->id(), c->id()).is_ok());
  ASSERT_TRUE(decide_now(env, sel, b->id(), c->id()).is_ok());  // evicts (a, b)
  EXPECT_EQ(sel.cache_size(), 2u);
  EXPECT_EQ(selector_counter(env, "cache_evictions"), 1u);

  // The evicted pair is a miss again; the survivors are hits.
  const auto misses_before = sel.cache_misses();
  ASSERT_TRUE(decide_now(env, sel, a->id(), b->id()).is_ok());
  EXPECT_EQ(sel.cache_misses(), misses_before + 1);
}

// Push-only coherence: nothing ages an entry out. A cached decision is
// still a hit long after any time-based expiry would have dropped it, and
// costs no round; only an event that can change it (here the peer moving
// next to its source) turns the next decide into a miss with the new answer.
TEST(Selector, EntryLivesUntilFlushed) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto& sel = env.freeflow().selector();

  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::rdma);
  const auto rounds = selector_counter(env, "decide_rpc_rounds");
  env.loop().run_for(1 * k_second);
  const auto hits_before = sel.cache_hits();
  EXPECT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::rdma);
  EXPECT_EQ(sel.cache_hits(), hits_before + 1);
  EXPECT_EQ(selector_counter(env, "decide_rpc_rounds"), rounds);

  ASSERT_TRUE(env.cluster_orch->migrate(b->id(), 0, /*downtime=*/1 * k_millisecond)
                  .is_ok());
  ASSERT_TRUE(env.wait([&]() { return b->host() == 0; }));
  const auto misses_before = sel.cache_misses();
  EXPECT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::shm);
  EXPECT_EQ(sel.cache_misses(), misses_before + 1);
  EXPECT_EQ(selector_counter(env, "stale_served"), 0u);
}

// An unknown-container answer is returned but never cached: no flush would
// ever reach an entry for an id nobody registered interest in, so the
// container deployed under that id a moment later is decided at once.
TEST(Selector, UnknownContainerIsNotCached) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto& sel = env.freeflow().selector();
  const orch::ContainerId next = a->id() + 1;  // ids are handed out in order

  auto d1 = decide_now(env, sel, a->id(), next);
  ASSERT_FALSE(d1.is_ok());
  EXPECT_EQ(d1.status().code(), Errc::not_found);
  const SimTime answered_at = env.loop().now();

  auto b = env.deploy("b", 1, 0);
  ASSERT_EQ(b->id(), next);
  auto d2 = decide_now(env, sel, a->id(), b->id());
  // Well inside the window a cached error would still have been served.
  ASSERT_LT(env.loop().now() - answered_at, 10 * k_millisecond);
  ASSERT_TRUE(d2.is_ok());
  EXPECT_EQ(d2->transport, orch::Transport::shm);
}

// ------------------------------------------------------------ fault coherence

// A cached rdma decision must NOT survive the orchestrator learning the
// RDMA engine died. The flush lands with the health update; the very next
// decide() re-consults.
TEST(Selector, FaultFlushPreventsStaleServe) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto& ff = env.freeflow();
  auto& sel = ff.selector();
  FaultInjector injector(*env.net_orch, ff.agents());

  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::rdma);

  injector.apply({env.loop().now(), FaultKind::rdma_down, 1});
  const auto& cm = env.cluster.cost_model();
  env.loop().run_for(cm.fault_detect_ns + k_microsecond);

  auto d = decide_now(env, sel, a->id(), b->id());
  ASSERT_TRUE(d.is_ok());
  EXPECT_NE(d->transport, orch::Transport::rdma);
  EXPECT_EQ(selector_counter(env, "stale_served"), 0u);
}

// An RDMA engine death drops only the cached rdma decisions: a co-located
// pair's shm entry on the same host rides it out untouched.
TEST(Selector, RdmaDeathDropsOnlyRdmaEntries) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto c = env.deploy("c", 1, 1);
  auto& sel = env.freeflow().selector();

  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::shm);
  ASSERT_EQ(decide_now(env, sel, a->id(), c->id())->transport, orch::Transport::rdma);

  fabric::NicHealth sick;
  sick.rdma_up = false;
  env.net_orch->update_nic_health(0, sick);

  // shm entry survived (hit); rdma entry was flushed (miss, re-decided).
  const auto hits_before = sel.cache_hits();
  const auto misses_before = sel.cache_misses();
  EXPECT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::shm);
  EXPECT_EQ(sel.cache_hits(), hits_before + 1);
  EXPECT_NE(decide_now(env, sel, a->id(), c->id())->transport, orch::Transport::rdma);
  EXPECT_EQ(sel.cache_misses(), misses_before + 1);
  EXPECT_EQ(selector_counter(env, "stale_served"), 0u);
}

TEST(Selector, ReportLaneFailureFlushesTransportEntries) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto c = env.deploy("c", 1, 1);
  auto& sel = env.freeflow().selector();

  ASSERT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::shm);
  ASSERT_EQ(decide_now(env, sel, a->id(), c->id())->transport, orch::Transport::rdma);
  const auto invalidations_before = selector_counter(env, "invalidations");

  // An agent reports the rdma lane between hosts 0 and 1 dead: the cached
  // rdma decision is flushed even though telemetry still says healthy.
  env.net_orch->report_lane_failure(0, 1, orch::Transport::rdma);
  EXPECT_GE(selector_counter(env, "invalidations"), invalidations_before + 1);

  const auto hits_before = sel.cache_hits();
  EXPECT_EQ(decide_now(env, sel, a->id(), b->id())->transport, orch::Transport::shm);
  EXPECT_EQ(sel.cache_hits(), hits_before + 1);  // shm entry untouched
}

// --------------------------------------------------------------- sharding

TEST(Shards, CrossShardDecideForwards) {
  agent::AgentConfig config;
  config.control_plane_shards = 4;
  Env env(4);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);  // home shard 0, dst shard 1: forward
  auto& ff = env.freeflow(config);

  ASSERT_EQ(decide_now(env, ff.selector_on(0), a->id(), b->id())->transport,
            orch::Transport::rdma);
  EXPECT_EQ(ff.control_plane().shard_count(), 4);
  EXPECT_GE(ff.control_plane().cross_shard_forwards(), 1u);
  EXPECT_GE(ff.control_plane().shard_rpcs(), 1u);
}

TEST(Shards, SameShardDecideDoesNotForward) {
  agent::AgentConfig config;
  config.control_plane_shards = 4;
  Env env(8);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 4);  // 4 % 4 == 0: same home shard
  auto& ff = env.freeflow(config);

  ASSERT_TRUE(decide_now(env, ff.selector_on(0), a->id(), b->id()).is_ok());
  EXPECT_EQ(ff.control_plane().cross_shard_forwards(), 0u);
}

// A migration completing while a decide reply is on the wire bumps the
// container's epoch past the reply's stamp: the cache rejects the answer
// (it describes the pre-move world) and re-queries instead of serving it.
TEST(Shards, MigrationMidFlightRejectedByEpoch) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto& ff = env.freeflow();
  auto& sel = ff.selector();

  // Reply timeline: batch window 10 us + one-way 25 us + service ~5 us +
  // one-way 25 us ~= 65 us. A move landing at 50 us falls between shard
  // service (where the reply is stamped) and delivery.
  Result<orch::TransportDecision> out = unavailable("pending");
  bool done = false;
  sel.decide(a->id(), b->id(), [&](Result<orch::TransportDecision> d) {
    out = std::move(d);
    done = true;
  });
  ASSERT_TRUE(env.cluster_orch->migrate(b->id(), 0, /*downtime=*/50 * k_microsecond)
                  .is_ok());
  ASSERT_TRUE(env.wait([&]() { return done; }));

  // The answer reflects the post-move world, proving the stale in-flight
  // reply (rdma, stamped pre-move) was rejected and re-queried.
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out->transport, orch::Transport::shm);
  EXPECT_GE(selector_counter(env, "epoch_rejects"), 1u);
  EXPECT_EQ(selector_counter(env, "stale_served"), 0u);
}

// Decisions are a pure function of cluster truth: the shard count changes
// timing and load distribution, never answers. And the whole pipeline is
// deterministic — identical runs produce identical stats.
TEST(Shards, DeterministicAcrossShardCounts) {
  auto run = [](int shards) {
    agent::AgentConfig config;
    config.control_plane_shards = shards;
    auto env = std::make_unique<Env>(4);
    std::vector<orch::ContainerPtr> cs;
    for (int i = 0; i < 8; ++i) {
      cs.push_back(env->deploy("c" + std::to_string(i), 1,
                               static_cast<fabric::HostId>(i % 4)));
    }
    auto& ff = env->freeflow(config);
    std::vector<orch::Transport> decisions;
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        if (i == j) continue;
        auto d = decide_now(*env, ff.selector_on(cs[static_cast<std::size_t>(i)]->host()),
                            cs[static_cast<std::size_t>(i)]->id(),
                            cs[static_cast<std::size_t>(j)]->id());
        EXPECT_TRUE(d.is_ok());
        decisions.push_back(d->transport);
      }
    }
    return std::pair{decisions, ff.control_plane().shard_rpcs()};
  };

  const auto [d1, rpcs1] = run(1);
  const auto [d4, rpcs4] = run(4);
  EXPECT_EQ(d1, d4);  // same answers regardless of partitioning

  const auto [d4b, rpcs4b] = run(4);
  EXPECT_EQ(d4, d4b);
  EXPECT_EQ(rpcs4, rpcs4b);  // byte-identical re-run
}

}  // namespace
}  // namespace freeflow
