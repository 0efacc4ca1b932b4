// Fault-injection scenario matrix: every recoverable fault the injector can
// produce is driven against a live transfer, and the transfer must survive
// with zero payload loss and no reordering — the conduit-level ARQ plus the
// agent/orchestrator failover machinery are what's under test. The whole
// binary also runs under ASan/LSan in CI (chaos-smoke stage).
#include <gtest/gtest.h>

#include "core/freeflow.h"
#include "faults/fault_injector.h"
#include "sim_env.h"

namespace freeflow::faults {
namespace {

using freeflow::testing::Env;

/// Deterministic byte pattern keyed by absolute stream offset: the receiver
/// verifies every arriving byte against the offset it SHOULD be at, which
/// catches loss, duplication and reordering in one check.
constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131 + 17) & 0xFF);
}

orch::Transport transport_of(const core::ContainerNetPtr& net) {
  auto conns = net->connections();
  return conns.empty() ? orch::Transport::tcp_overlay : conns[0].transport;
}

std::uint64_t rebinds_of(const core::ContainerNetPtr& net) {
  auto conns = net->connections();
  return conns.empty() ? 0 : conns[0].rebinds;
}

struct Pair {
  orch::ContainerPtr a, b;
  core::ContainerNetPtr net_a, net_b;
};

Pair attach_pair(Env& env, fabric::HostId ha, fabric::HostId hb,
                 agent::AgentConfig config = {}) {
  Pair p;
  p.a = env.deploy("a", 1, ha);
  p.b = env.deploy("b", 1, hb);
  auto& ff = env.freeflow(config);
  auto na = ff.attach(p.a->id());
  auto nb = ff.attach(p.b->id());
  EXPECT_TRUE(na.is_ok());
  EXPECT_TRUE(nb.is_ok());
  p.net_a = *na;
  p.net_b = *nb;
  return p;
}

/// A pattern-checked one-way transfer of `target` bytes, paced on the
/// socket's writability (the idiom the throughput drivers use).
struct Stream {
  core::FlowSocketPtr client, server;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t verified = 0;  ///< in-order, pattern-correct bytes received
  bool corrupt = false;
  SimTime last_rx = 0;
  std::shared_ptr<std::function<void()>> pump;

  [[nodiscard]] bool done() const { return !corrupt && verified >= target; }
};

std::shared_ptr<Stream> start_stream(Env& env, Pair& p, std::uint16_t port,
                                     std::uint64_t target) {
  auto st = std::make_shared<Stream>();
  st->target = target;
  sim::EventLoop* loop = &env.loop();

  EXPECT_TRUE(p.net_b->sock_listen(port, [st, loop](core::FlowSocketPtr s) {
    st->server = s;
    s->set_on_data([st, loop](Buffer&& b) {
      const auto* bytes = b.data();
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(st->verified + i)) {
          st->corrupt = true;
          return;
        }
      }
      st->verified += b.size();
      st->last_rx = loop->now();
    });
  }).is_ok());
  p.net_a->sock_connect(p.b->ip(), port, [st](Result<core::FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok()) << s.status();
    st->client = *s;
  });
  EXPECT_TRUE(env.wait([&]() { return st->client != nullptr && st->server != nullptr; }));

  st->pump = std::make_shared<std::function<void()>>();
  std::weak_ptr<Stream> w = st;
  *st->pump = [w]() {
    auto stream = w.lock();
    if (stream == nullptr) return;
    while (stream->sent < stream->target && stream->client->writable()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(64 * 1024, stream->target - stream->sent));
      Buffer msg(n);
      auto* out = msg.data();
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::byte>(pattern_byte(stream->sent + i));
      }
      ASSERT_TRUE(stream->client->send(std::move(msg)).is_ok());
      stream->sent += n;
    }
  };
  st->client->set_on_space([pump = st->pump]() { (*pump)(); });
  (*st->pump)();
  return st;
}

// ------------------------------------------------------------- acceptance

// Kill-RDMA-mid-transfer: a 64 MB transfer riding rdma survives the NIC's
// RDMA engine dying — it fails over to tcp_host with zero loss and in-order
// delivery, and re-upgrades to rdma once the engine heals.
TEST(FaultMatrix, KillRdmaMidTransferFailsOverAndReupgrades) {
  fabric::NicCapabilities caps;
  caps.dpdk = false;  // make tcp_host the fallback edge
  Env env(2, {}, caps);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7000, 64ull * 1024 * 1024);
  FaultInjector injector(*env.net_orch, env.freeflow().agents());

  ASSERT_TRUE(env.wait([&]() { return st->verified > 4 * 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::rdma);

  injector.apply({env.loop().now(), FaultKind::rdma_down, 1});
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  EXPECT_EQ(transport_of(p.net_a), orch::Transport::tcp_host);
  EXPECT_GE(rebinds_of(p.net_a), 1u);

  injector.apply({env.loop().now(), FaultKind::rdma_up, 1});
  ASSERT_TRUE(env.wait(
      [&]() { return transport_of(p.net_a) == orch::Transport::rdma; }));

  // The re-upgraded lane must actually carry data, not just exist.
  st->target += 1024 * 1024;
  (*st->pump)();
  ASSERT_TRUE(env.wait([&]() { return st->done(); }))
      << "sent " << st->sent << " verified " << st->verified << "/" << st->target
      << " writable " << st->client->writable()
      << " retained " << p.net_a->connections()[0].retained
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
}

// --------------------------------------------------------------- matrix

// rdma -> dpdk -> tcp_host: each kill steps the conduit down one rung of
// the capability ladder, without losing a byte.
TEST(FaultMatrix, FallbackChainRdmaDpdkTcp) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7001, 32ull * 1024 * 1024);
  FaultInjector injector(*env.net_orch, env.freeflow().agents());

  ASSERT_TRUE(env.wait([&]() { return st->verified > 2 * 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::rdma);

  injector.apply({env.loop().now(), FaultKind::rdma_down, 1});
  ASSERT_TRUE(env.wait(
      [&]() { return transport_of(p.net_a) == orch::Transport::dpdk; }));

  injector.apply({env.loop().now(), FaultKind::dpdk_down, 1});
  ASSERT_TRUE(env.wait(
      [&]() { return transport_of(p.net_a) == orch::Transport::tcp_host; }));

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target;
  EXPECT_FALSE(st->corrupt);
}

// A link flap shorter than any failover machinery cares about: kernel TCP
// retransmission plus conduit ARQ ride it out; the transfer just stalls.
TEST(FaultMatrix, LinkFlapStallsAndRecovers) {
  fabric::NicCapabilities caps;
  caps.rdma = false;
  caps.dpdk = false;
  Env env(2, {}, caps);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7002, 8ull * 1024 * 1024);
  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  FaultPlan plan;
  plan.link_flap(1, 1 * k_millisecond, 5 * k_millisecond);
  injector.arm(plan);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target;
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(injector.faults_applied(), 2u);
}

// A degraded NIC (20 % of line rate) slows the transfer but must not change
// correctness — and the orchestrator deliberately keeps the decision.
TEST(FaultMatrix, DegradedNicStillCompletes) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7003, 8ull * 1024 * 1024);
  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  FaultPlan plan;
  plan.degrade(1, 1 * k_millisecond, 0.2, 20 * k_millisecond);
  injector.arm(plan);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second));
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(transport_of(p.net_a), orch::Transport::rdma);
}

// Regression: two degrade windows overlapping on one host used to clobber
// each other — the first restore snapped the NIC back to full rate while
// the longer degrade was still in force. Each restore must heal only its
// own degrade; the NIC runs at the most severe fraction still active.
TEST(FaultMatrix, OverlappingDegradesComposeAndHealIndependently) {
  Env env(2);
  env.freeflow();
  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  FaultPlan plan;
  plan.degrade(1, 1 * k_millisecond, 0.5, 10 * k_millisecond);   // heals at 11 ms
  plan.degrade(1, 2 * k_millisecond, 0.25, 4 * k_millisecond);   // heals at 6 ms
  injector.arm(plan);

  const auto& nic = env.cluster.host(1).nic();
  env.loop().run_until(1500 * k_microsecond);
  EXPECT_DOUBLE_EQ(nic.health().rate_fraction, 0.5);
  env.loop().run_until(3 * k_millisecond);
  EXPECT_DOUBLE_EQ(nic.health().rate_fraction, 0.25);  // most severe wins
  env.loop().run_until(8 * k_millisecond);
  // The short degrade healed, the long one is still active: 0.5, not 1.0.
  EXPECT_DOUBLE_EQ(nic.health().rate_fraction, 0.5);
  env.loop().run_until(15 * k_millisecond);
  EXPECT_DOUBLE_EQ(nic.health().rate_fraction, 1.0);
  EXPECT_EQ(injector.faults_applied(), 4u);
}

// An agent pause buffers the relay in both directions; resume replays the
// buffers in order, so the stream completes untouched.
TEST(FaultMatrix, AgentPauseBuffersAndResumes) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7004, 8ull * 1024 * 1024);
  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  FaultPlan plan;
  plan.agent_pause(1, 1 * k_millisecond, 2 * k_millisecond);
  injector.arm(plan);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second));
  EXPECT_FALSE(st->corrupt);
  EXPECT_TRUE(env.freeflow().agents().agent_on(1).paused() == false);
}

// Missed heartbeats are the detection path of last resort: an agent that
// goes silent (paused longer than the timeout) gets its lanes declared dead
// by the peer's monitor. No config opt-in: lane-health monitoring is on by
// default now that the monitor runs as a maintenance (non-blocking) timer.
TEST(FaultMatrix, MissedHeartbeatsDeclareLaneDead) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7005, 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->done(); }));

  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  injector.apply({env.loop().now(), FaultKind::agent_pause, 1});
  agent::Agent& agent_a = env.freeflow().agents().agent_on(0);
  EXPECT_TRUE(env.wait([&]() { return agent_a.lanes_failed() > 0; }, 1 * k_second));
  injector.apply({env.loop().now(), FaultKind::agent_resume, 1});
}

// One lane death takes one path: the declaring agent files a single report,
// which flushes the cached decisions riding the lane, and retires both
// halves of the trunk. Only the conduit on the lane re-decides — once, from
// its failure hook — so a co-located shm pair on the same host decides
// nothing, and no in-flight decision races a second report's epoch bump.
TEST(FaultMatrix, LaneDeathIsReportedOnceAndRedecidedOnce) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto& ff = env.freeflow();
  auto c = env.deploy("c", 1, 0);
  auto d = env.deploy("d", 1, 0);
  Pair local{c, d, *ff.attach(c->id()), *ff.attach(d->id())};
  auto idle = start_stream(env, local, 7008, 64 * 1024);
  ASSERT_TRUE(env.wait([&]() { return idle->done(); }));
  ASSERT_EQ(transport_of(local.net_a), orch::Transport::shm);

  auto st = start_stream(env, p, 7007, 8ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::rdma);

  auto& metrics = env.cluster.telemetry().metrics();
  auto& selector = ff.selector_on(0);
  const auto reports = metrics.counter_value("orchestrator/lane_failure_reports");
  const auto rejects = metrics.counter_value("selector/epoch_rejects");
  const auto decides = selector.cache_hits() + selector.cache_misses();

  ff.agents().agent_on(0).declare_lane_failed(1, orch::Transport::rdma);
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  EXPECT_GE(rebinds_of(p.net_a), 1u);
  EXPECT_EQ(metrics.counter_value("orchestrator/lane_failure_reports"), reports + 1);
  EXPECT_EQ(metrics.counter_value("selector/epoch_rejects"), rejects);
  // The rdma conduit's one refit; the shm pair made no decide.
  EXPECT_EQ(selector.cache_hits() + selector.cache_misses(), decides + 1);
}

// A host crash is unrecoverable: peers' sockets close with host_crashed —
// not peer_bye — so applications can tell a crash from a goodbye.
TEST(FaultMatrix, HostCrashClosesPeersWithReason) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7006, 4ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 64 * 1024; }));

  bool closed = false;
  core::CloseReason reason{};
  st->client->set_on_close([&](core::CloseReason r) {
    reason = r;
    closed = true;
  });
  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  injector.apply({env.loop().now(), FaultKind::host_crash, 1});
  EXPECT_TRUE(env.wait([&]() { return closed; }));
  EXPECT_EQ(reason, core::CloseReason::host_crashed);
  EXPECT_EQ(p.net_a->conduit_count(), 0u);
}

// --------------------------------------------------------- determinism

struct ChaosRun {
  std::string trace;        ///< injector event trace
  std::string transitions;  ///< "t:transport" every time the conduit moves
  std::uint64_t verified = 0;
  bool corrupt = false;
};

ChaosRun run_chaos(std::uint64_t seed) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_stream(env, p, 7100, 16ull * 1024 * 1024);
  FaultInjector injector(*env.net_orch, env.freeflow().agents());
  FaultPlan plan = FaultPlan::random(seed, 2, 20 * k_millisecond, 2);
  plan.rdma_outage(1, 2 * k_millisecond, 10 * k_millisecond);
  injector.arm(plan);

  ChaosRun run;
  orch::Transport last = transport_of(p.net_a);
  run.transitions += std::string(orch::transport_name(last)) + "\n";
  env.wait(
      [&]() {
        const orch::Transport t = transport_of(p.net_a);
        if (t != last) {
          last = t;
          run.transitions += "t=" + std::to_string(env.loop().now()) + " " +
                             std::string(orch::transport_name(t)) + "\n";
        }
        return st->done() && injector.faults_applied() >= plan.size();
      },
      200 * k_millisecond);
  run.trace = injector.trace_text();
  run.verified = st->verified;
  run.corrupt = st->corrupt;
  return run;
}

// Same seed, same plan => byte-identical fault trace, identical failover
// decisions, identical bytes delivered. This is what makes chaos failures
// replayable.
TEST(FaultDeterminism, SameSeedSamePlanIsByteIdentical) {
  const ChaosRun first = run_chaos(42);
  const ChaosRun second = run_chaos(42);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.transitions, second.transitions);
  EXPECT_EQ(first.verified, second.verified);
  EXPECT_FALSE(first.corrupt);
  EXPECT_FALSE(second.corrupt);
  EXPECT_FALSE(first.trace.empty());
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  FaultPlan a = FaultPlan::random(1, 4, 100 * k_millisecond, 4);
  FaultPlan b = FaultPlan::random(2, 4, 100 * k_millisecond, 4);
  EXPECT_NE(a.describe(), b.describe());
  EXPECT_EQ(a.describe(), FaultPlan::random(1, 4, 100 * k_millisecond, 4).describe());
}

}  // namespace
}  // namespace freeflow::faults
