#include <gtest/gtest.h>

#include "sim_env.h"

namespace freeflow::orch {
namespace {

using freeflow::testing::Env;

TEST(ClusterOrchestrator, DeployAssignsIpAndHost) {
  Env env(2);
  auto c = env.deploy("web", 1, 0);
  EXPECT_EQ(c->host(), 0u);
  EXPECT_EQ(c->state(), ContainerState::running);
  EXPECT_NE(c->ip().value(), 0u);
  EXPECT_EQ(env.cluster_orch->container(c->id()), c);
  EXPECT_EQ(env.cluster_orch->container_by_name("web"), c);
  EXPECT_EQ(env.cluster_orch->container_by_ip(c->ip()), c);
}

TEST(ClusterOrchestrator, SpreadPlacementBalances) {
  Env env(3);
  env.cluster_orch->set_placement_policy(PlacementPolicy::spread);
  std::vector<int> per_host(3, 0);
  for (int i = 0; i < 9; ++i) {
    ContainerSpec spec;
    spec.name = "c" + std::to_string(i);
    auto c = env.cluster_orch->deploy(std::move(spec));
    ASSERT_TRUE(c.is_ok());
    ++per_host[(*c)->host()];
  }
  EXPECT_EQ(per_host, (std::vector<int>{3, 3, 3}));
}

TEST(ClusterOrchestrator, BinpackPlacementConcentrates) {
  Env env(3);
  env.cluster_orch->set_placement_policy(PlacementPolicy::binpack);
  env.deploy("seed", 1, 1);  // host1 has one container: binpack piles on
  for (int i = 0; i < 5; ++i) {
    ContainerSpec spec;
    spec.name = "c" + std::to_string(i);
    auto c = env.cluster_orch->deploy(std::move(spec));
    ASSERT_TRUE(c.is_ok());
    EXPECT_EQ((*c)->host(), 1u);
  }
}

TEST(ClusterOrchestrator, UniqueIpsAcrossDeployments) {
  Env env(2);
  std::set<std::uint32_t> ips;
  for (int i = 0; i < 20; ++i) {
    auto c = env.deploy("c" + std::to_string(i), 1, static_cast<fabric::HostId>(i % 2));
    EXPECT_TRUE(ips.insert(c->ip().value()).second);
  }
}

TEST(ClusterOrchestrator, StopReleasesIp) {
  Env env(1);
  auto c = env.deploy("victim", 1, 0);
  const auto ip = c->ip();
  ASSERT_TRUE(env.cluster_orch->stop(c->id()).is_ok());
  EXPECT_EQ(c->state(), ContainerState::stopped);
  EXPECT_FALSE(env.overlay_net.ipam().in_use(ip));
  EXPECT_EQ(env.cluster_orch->container_by_ip(ip), nullptr);
}

TEST(ClusterOrchestrator, MigrationPreservesIpAndNotifies) {
  Env env(2);
  auto c = env.deploy("mover", 1, 0);
  const auto ip = c->ip();
  int notifications = 0;
  env.cluster_orch->on_moved([&](const Container& moved) {
    ++notifications;
    EXPECT_EQ(moved.id(), c->id());
  });
  ASSERT_TRUE(env.cluster_orch->migrate(c->id(), 1).is_ok());
  EXPECT_EQ(c->state(), ContainerState::migrating);
  env.loop().run();
  EXPECT_EQ(c->state(), ContainerState::running);
  EXPECT_EQ(c->host(), 1u);
  EXPECT_EQ(c->ip(), ip);
  EXPECT_EQ(notifications, 1);
}

TEST(ClusterOrchestrator, MigrateErrors) {
  Env env(2);
  auto c = env.deploy("x", 1, 0);
  EXPECT_EQ(env.cluster_orch->migrate(999, 1).code(), Errc::not_found);
  EXPECT_EQ(env.cluster_orch->migrate(c->id(), 7).code(), Errc::invalid_argument);
  EXPECT_TRUE(env.cluster_orch->migrate(c->id(), 0).is_ok());  // no-op same host
}

// ------------------------------------------------- NetworkOrchestrator

TEST(NetworkOrchestrator, LocateAndResolve) {
  Env env(2);
  auto c = env.deploy("svc", 1, 1);
  auto loc = env.net_orch->locate(c->id());
  ASSERT_TRUE(loc.is_ok());
  EXPECT_EQ(loc->host, 1u);
  EXPECT_EQ(loc->ip, c->ip());
  EXPECT_EQ(env.net_orch->resolve_ip(c->ip()).value(), c->id());
  EXPECT_FALSE(env.net_orch->locate(777).is_ok());
}

TEST(NetworkOrchestrator, QueryLocationPaysRpcLatency) {
  Env env(1);
  auto c = env.deploy("svc", 1, 0);
  bool answered = false;
  const SimTime start = env.loop().now();
  SimTime when = 0;
  env.net_orch->query_location(c->id(), [&](Result<NetworkOrchestrator::Location> l) {
    EXPECT_TRUE(l.is_ok());
    answered = true;
    when = env.loop().now();
  });
  EXPECT_FALSE(answered);
  env.loop().run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(when - start, env.cluster.cost_model().orchestrator_rpc_ns);
}

TEST(NetworkOrchestrator, TrustDefaultsToSameTenant) {
  Env env(1);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto c = env.deploy("c", 2, 0);
  EXPECT_TRUE(env.net_orch->trusted(*a, *b));
  EXPECT_FALSE(env.net_orch->trusted(*a, *c));
  env.net_orch->set_tenant_trust(1, 2, true);
  EXPECT_TRUE(env.net_orch->trusted(*a, *c));
  env.net_orch->set_tenant_trust(1, 2, false);
  EXPECT_FALSE(env.net_orch->trusted(*a, *c));
}

// The paper's (commented) Table 1: best transport per deployment case and
// constraint. Parameterized over the four cases.
struct DecisionCase {
  const char* name;
  bool same_host;       // case a/c vs b/d
  bool vms;             // cases c/d run containers inside VMs
  bool trusted;
  bool rdma_nics;
  Transport expected;
};

// Without this gtest prints the raw bytes of the case, including the address
// of `name`, into the listed test name, so the name changed with every build.
void PrintTo(const DecisionCase& tc, std::ostream* os) { *os << tc.name; }

class DecisionMatrix : public ::testing::TestWithParam<DecisionCase> {};

TEST_P(DecisionMatrix, PicksPaperTransport) {
  const DecisionCase& tc = GetParam();
  fabric::NicCapabilities caps;
  caps.rdma = tc.rdma_nics;
  caps.dpdk = false;  // isolate the rdma-vs-tcp fallback decision
  Env env(2, sim::CostModel{}, caps);
  if (tc.vms) {
    // Hosts are VMs pinned on physical machines (fabric controller view).
    env.cluster.host(0).set_physical_machine(10);
    env.cluster.host(1).set_physical_machine(11);
  }
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", tc.trusted ? 1 : 2, tc.same_host ? 0 : 1);

  auto d = env.net_orch->decide(a->id(), b->id());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d->transport, tc.expected) << tc.name << ": " << d->reason;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable1, DecisionMatrix,
    ::testing::Values(
        // Case (a): same bare-metal host.
        DecisionCase{"a_default", true, false, true, true, Transport::shm},
        DecisionCase{"a_no_trust", true, false, false, true, Transport::tcp_overlay},
        DecisionCase{"a_no_rdma", true, false, true, false, Transport::shm},
        // Case (b): different bare-metal hosts.
        DecisionCase{"b_default", false, false, true, true, Transport::rdma},
        DecisionCase{"b_no_trust", false, false, false, true, Transport::tcp_overlay},
        DecisionCase{"b_no_rdma", false, false, true, false, Transport::tcp_host},
        // Case (c): same VM (containers co-located inside one VM host).
        DecisionCase{"c_default", true, true, true, true, Transport::shm},
        DecisionCase{"c_no_rdma", true, true, true, false, Transport::shm},
        // Case (d): VMs on different physical machines.
        DecisionCase{"d_default", false, true, true, true, Transport::rdma},
        DecisionCase{"d_no_trust", false, true, false, true, Transport::tcp_overlay}),
    [](const ::testing::TestParamInfo<DecisionCase>& pinfo) {
      return pinfo.param.name;
    });

TEST(NetworkOrchestrator, DpdkFallbackWhenNoRdma) {
  fabric::NicCapabilities caps;
  caps.rdma = false;
  caps.dpdk = true;
  Env env(2, sim::CostModel{}, caps);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto d = env.net_orch->decide(a->id(), b->id());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d->transport, Transport::dpdk);
}

TEST(NetworkOrchestrator, GlobalIsolationSwitchForcesOverlay) {
  Env env(1);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  env.net_orch->set_allow_isolation_trade(false);
  auto d = env.net_orch->decide(a->id(), b->id());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d->transport, Transport::tcp_overlay);
}

TEST(NetworkOrchestrator, MoveSubscriptionFires) {
  Env env(2);
  auto c = env.deploy("m", 1, 0);
  ContainerId seen = 0;
  env.net_orch->subscribe_moves([&](const Container& moved) { seen = moved.id(); });
  ASSERT_TRUE(env.cluster_orch->migrate(c->id(), 1).is_ok());
  env.loop().run();
  EXPECT_EQ(seen, c->id());
}

TEST(NetworkOrchestrator, DecisionChangesAfterMigration) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  EXPECT_EQ(env.net_orch->decide(a->id(), b->id())->transport, Transport::rdma);
  ASSERT_TRUE(env.cluster_orch->migrate(b->id(), 0).is_ok());
  env.loop().run();
  EXPECT_EQ(env.net_orch->decide(a->id(), b->id())->transport, Transport::shm);
}

TEST(NetworkOrchestrator, PhysicalMachineMapping) {
  Env env(2);
  EXPECT_EQ(env.net_orch->physical_machine(0), 0u);
  env.cluster.host(1).set_physical_machine(42);
  EXPECT_EQ(env.net_orch->physical_machine(1), 42u);
}

}  // namespace
}  // namespace freeflow::orch
