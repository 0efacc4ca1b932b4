// Teardown-protocol coverage: close()/detach() must be idempotent, must
// propagate to the remote side (VMsg::bye), must tolerate in-flight
// traffic without use-after-free (the whole binary runs under ASan in
// CI), and a connect/close churn loop must hold steady memory — every
// registry the connection touched returns to its pre-connection size.
#include <gtest/gtest.h>

#include "core/freeflow.h"
#include "sim_env.h"

namespace freeflow::core {
namespace {

using freeflow::testing::Env;

struct TeardownFixture : ::testing::Test {
  struct Pair {
    orch::ContainerPtr a, b;
    ContainerNetPtr net_a, net_b;
  };

  static Pair make_pair(Env& env, bool same_host) {
    Pair p;
    p.a = env.deploy("a", 1, 0);
    p.b = env.deploy("b", 1, same_host ? 0 : 1);
    auto na = env.freeflow().attach(p.a->id());
    auto nb = env.freeflow().attach(p.b->id());
    EXPECT_TRUE(na.is_ok());
    EXPECT_TRUE(nb.is_ok());
    p.net_a = *na;
    p.net_b = *nb;
    return p;
  }

  static std::pair<FlowSocketPtr, FlowSocketPtr> socket_pair(Env& env, Pair& p,
                                                             std::uint16_t port) {
    FlowSocketPtr client, server;
    EXPECT_TRUE(p.net_b->sock_listen(port, [&](FlowSocketPtr s) { server = s; }).is_ok());
    p.net_a->sock_connect(p.b->ip(), port, [&](Result<FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok()) << s.status();
      client = *s;
    });
    EXPECT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
    return {client, server};
  }

  static std::pair<VirtualQpPtr, VirtualQpPtr> qp_pair(Env& env, Pair& p,
                                                       std::uint16_t port) {
    VirtualQpPtr qa, qb;
    EXPECT_TRUE(p.net_b->listen_qp(port, [&](VirtualQpPtr q) { qb = q; }).is_ok());
    p.net_a->connect_qp(p.b->ip(), port, p.net_a->create_cq(), p.net_a->create_cq(),
                        [&](Result<VirtualQpPtr> q) {
      ASSERT_TRUE(q.is_ok()) << q.status();
      qa = *q;
    });
    EXPECT_TRUE(env.wait([&]() { return qa != nullptr && qb != nullptr; }));
    return {qa, qb};
  }
};

// ------------------------------------------------------------ idempotence

TEST(ConduitTeardown, PeerCloseAfterLocalCloseIsIdempotent) {
  sim::EventLoop loop;
  telemetry::Telemetry hub;
  Conduit conduit(1, 10, 20, tcp::Ipv4Addr(10, 0, 0, 1), 80, true, hub, loop);
  int closed = 0;
  int torn_down = 0;
  CloseReason reason{};
  conduit.set_on_closed([&](CloseReason r) {
    reason = r;
    ++closed;
  });
  conduit.set_on_teardown([&]() { ++torn_down; });
  conduit.close();
  // Late bye from the wire after the local close: must be a no-op.
  conduit.close_with(CloseReason::peer_bye, /*handshake=*/false);
  conduit.close();
  EXPECT_EQ(closed, 1);
  EXPECT_EQ(torn_down, 1);
  EXPECT_EQ(reason, CloseReason::app_close);
  EXPECT_EQ(conduit.close_reason(), CloseReason::app_close);
}

TEST_F(TeardownFixture, DoubleCloseIsIdempotentOnEverySurface) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/false);
  auto [client, server] = socket_pair(env, p, 6000);
  auto [qa, qb] = qp_pair(env, p, 18515);

  client->close();
  client->close();  // second close: silent no-op
  qa->close();
  qa->close();
  EXPECT_TRUE(env.wait([&]() {
    return p.net_a->conduit_count() == 0 && p.net_b->conduit_count() == 0;
  }));
  // Remote ends observed the teardown; closing them again is still safe.
  server->close();
  qb->close();
  EXPECT_FALSE(server->is_open());
  EXPECT_EQ(client->send(Buffer::from_string("x")).code(), Errc::failed_precondition);
}

// -------------------------------------------------------- bye propagation

TEST_F(TeardownFixture, OneSidedCloseTearsDownBothEnds) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/false);
  auto [client, server] = socket_pair(env, p, 6000);
  EXPECT_EQ(p.net_a->conduit_count(), 1u);
  EXPECT_EQ(p.net_b->conduit_count(), 1u);

  bool server_saw_close = false;
  CloseReason server_reason{};
  server->set_on_close([&](CloseReason r) {
    server_reason = r;
    server_saw_close = true;
  });
  client->close();

  // The bye must reach the passive side and erase the conduit from BOTH
  // owner registries without the server ever calling close() itself.
  EXPECT_TRUE(env.wait([&]() {
    return server_saw_close && p.net_a->conduit_count() == 0 &&
           p.net_b->conduit_count() == 0;
  }));
  EXPECT_FALSE(server->is_open());
  EXPECT_EQ(server_reason, CloseReason::peer_bye);
}

// The bye/bye_ack handshake times out against an unresponsive peer: freeze
// the remote agent (records buffer, nothing is acked) and close. The drain
// timer must fire on the sim clock and report drain_timeout — not hang, and
// not pretend the close was acknowledged.
TEST_F(TeardownFixture, UnresponsivePeerYieldsDrainTimeout) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/false);
  auto [client, server] = socket_pair(env, p, 6000);

  env.freeflow().agents().agent_on(1).set_paused(true);
  bool closed = false;
  CloseReason reason{};
  client->set_on_close([&](CloseReason r) {
    reason = r;
    closed = true;
  });
  client->close();
  EXPECT_TRUE(env.wait([&]() { return closed; }, 1 * k_second));
  EXPECT_EQ(reason, CloseReason::drain_timeout);
  EXPECT_EQ(p.net_a->conduit_count(), 0u);
  env.freeflow().agents().agent_on(1).set_paused(false);
}

// A graceful handshake completes before the drain timeout: the closer's own
// callback reports app_close only after the peer acked the bye.
TEST_F(TeardownFixture, GracefulCloseReportsAppClose) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/false);
  auto [client, server] = socket_pair(env, p, 6000);

  bool closed = false;
  CloseReason reason{};
  client->set_on_close([&](CloseReason r) {
    reason = r;
    closed = true;
  });
  client->close();
  EXPECT_TRUE(env.wait([&]() { return closed; }));
  EXPECT_EQ(reason, CloseReason::app_close);
}

// ------------------------------------------------------- close with inflight

TEST_F(TeardownFixture, CloseWithInflightTrafficDrainsCleanly) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/true);  // shm lane: deepest pipeline
  auto [client, server] = socket_pair(env, p, 6000);

  std::size_t received = 0;
  server->set_on_data([&](Buffer&& b) { received += b.size(); });

  // Fill the pipe, then close mid-flight without draining first. The
  // in-flight chunks either deliver or drop; ASan verifies no callback
  // fires into freed endpoint/lane state.
  for (int i = 0; i < 8; ++i) {
    Buffer msg(64 * 1024);
    fill_pattern(msg.mutable_view(), i);
    (void)client->send(std::move(msg));
  }
  for (int i = 0; i < 3; ++i) env.loop().step();  // a few deliveries start
  client->close();
  client = nullptr;  // drop the test's reference while chunks are in flight

  EXPECT_TRUE(env.wait([&]() {
    return p.net_a->conduit_count() == 0 && p.net_b->conduit_count() == 0;
  }));
  env.wait([]() { return false; }, 1 * k_second);  // drain any stragglers
  EXPECT_FALSE(server->is_open());
}

// ------------------------------------------------------------- churn loop

TEST_F(TeardownFixture, ConnectCloseChurnHoldsSteadyMemory) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/false);
  agent::Agent& agent_a = env.freeflow().agents().agent_on(0);
  agent::Agent& agent_b = env.freeflow().agents().agent_on(1);

  FlowSocketPtr server;
  ASSERT_TRUE(
      p.net_b->sock_listen(6000, [&](FlowSocketPtr s) { server = std::move(s); }).is_ok());

  std::size_t endpoints_a = 0, endpoints_b = 0;
  for (int round = 0; round < 8; ++round) {
    server = nullptr;
    FlowSocketPtr client;
    p.net_a->sock_connect(p.b->ip(), 6000, [&](Result<FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok()) << s.status();
      client = *s;
    });
    ASSERT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
    std::string got;
    server->set_on_data([&](Buffer&& b) { got = b.to_string(); });
    ASSERT_TRUE(client->send(Buffer::from_string("ping")).is_ok());
    ASSERT_TRUE(env.wait([&]() { return got == "ping"; }));
    client->close();
    ASSERT_TRUE(env.wait([&]() {
      return p.net_a->conduit_count() == 0 && p.net_b->conduit_count() == 0;
    })) << "round " << round;
    if (round == 0) {
      // Size of every per-connection registry after one full cycle...
      endpoints_a = agent_a.endpoint_count();
      endpoints_b = agent_b.endpoint_count();
    } else {
      // ...must not grow across further cycles: no channel, endpoint or
      // reassembly state accretes per connection.
      ASSERT_EQ(agent_a.endpoint_count(), endpoints_a) << "round " << round;
      ASSERT_EQ(agent_b.endpoint_count(), endpoints_b) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace freeflow::core
