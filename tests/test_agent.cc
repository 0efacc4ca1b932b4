#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "agent/agent.h"
#include "agent/relay.h"
#include "agent/trunk.h"
#include "common/framing.h"
#include "rdma/cm.h"
#include "sim_env.h"
#include "tcpstack/modes.h"

namespace freeflow::agent {
namespace {

using freeflow::testing::Env;

TEST(Relay, HeaderRoundTrip) {
  RelayHeader h;
  h.src_container = 3;
  h.dst_container = 9;
  h.channel = 0xABCDEF12345ULL;
  h.msg_seq = 77;
  h.total_len = 1000;
  h.frag_offset = 256;
  std::byte buf[RelayHeader::k_size];
  h.encode(buf);
  const RelayHeader d = RelayHeader::decode(buf);
  EXPECT_EQ(d.src_container, 3u);
  EXPECT_EQ(d.dst_container, 9u);
  EXPECT_EQ(d.channel, 0xABCDEF12345ULL);
  EXPECT_EQ(d.msg_seq, 77u);
  EXPECT_EQ(d.total_len, 1000u);
  EXPECT_EQ(d.frag_offset, 256u);
  EXPECT_FALSE(d.last_fragment(100));
  EXPECT_TRUE(d.last_fragment(744));
}

TEST(Relay, RecordRoundTrip) {
  RelayHeader h;
  h.total_len = 5;
  Buffer payload = Buffer::from_string("hello");
  Buffer record = make_record(h, payload.view());
  auto parsed = parse_record(record.view());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->header.total_len, 5u);
  EXPECT_EQ(Buffer(parsed->fragment.data(), parsed->fragment.size()).to_string(), "hello");
}

TEST(Relay, ParseRejectsGarbage) {
  Buffer tiny(4);
  EXPECT_FALSE(parse_record(tiny.view()).is_ok());
  RelayHeader h;
  h.total_len = 1;  // fragment longer than message
  Buffer bad = make_record(h, Buffer(10).view());
  EXPECT_FALSE(parse_record(bad.view()).is_ok());
}

// ------------------------------------------------------ trunk record paths

RelayHeader numbered_header(std::uint64_t seq, std::size_t fragment_len) {
  RelayHeader h;
  h.src_container = 1;
  h.dst_container = 2;
  h.channel = 7;
  h.msg_seq = seq;
  h.total_len = static_cast<std::uint32_t>(fragment_len);
  return h;
}

Buffer numbered_fragment(std::uint64_t seq, std::size_t len) {
  Buffer fragment(len);
  fill_pattern(fragment.mutable_view(), seq);
  return fragment;
}

/// Checks `records` are seq 1..n in order, each intact.
void expect_in_order(const std::vector<Buffer>& records, std::size_t n) {
  ASSERT_EQ(records.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    auto parsed = parse_record(records[i].view());
    ASSERT_TRUE(parsed.is_ok()) << parsed.status();
    EXPECT_EQ(parsed->header.msg_seq, i + 1) << "record " << i;
    EXPECT_TRUE(check_pattern(parsed->fragment, parsed->header.msg_seq));
  }
}

/// Two RDMA trunk halves, on hosts 0 and 1, whose QPs are not yet connected.
struct RdmaTrunkRig {
  static constexpr std::size_t k_slot_bytes = 4096 + RelayHeader::k_size;

  explicit RdmaTrunkRig(std::uint32_t slots) {
    cluster.add_hosts(2);
    dev_a = std::make_unique<rdma::RdmaDevice>(cluster.host(0));
    dev_b = std::make_unique<rdma::RdmaDevice>(cluster.host(1));
    a = std::make_unique<RdmaTrunk>(*dev_a, account_a, true, k_slot_bytes, slots);
    b = std::make_unique<RdmaTrunk>(*dev_b, account_b, true, k_slot_bytes, 32);
    b->set_on_record([this](Buffer&& record) { at_b.push_back(std::move(record)); });
  }

  void connect() { ASSERT_TRUE(rdma::connect_pair(*a->qp(), *b->qp()).is_ok()); }
  void send(std::uint64_t seq) {
    const std::size_t len = 100 + seq * 397 % 3900;
    a->send(numbered_header(seq, len), {}, numbered_fragment(seq, len).view());
  }
  bool run_until(const std::function<bool()>& pred) {
    return freeflow::testing::run_until(cluster.loop(), pred);
  }

  fabric::Cluster cluster;
  std::unique_ptr<rdma::RdmaDevice> dev_a, dev_b;
  sim::UsageAccount account_a, account_b;
  std::unique_ptr<RdmaTrunk> a, b;
  std::vector<Buffer> at_b;
};

TEST(RdmaTrunkOrder, RecordSentBeforeTheQueueDrainsWaitsBehindIt) {
  // Records sent before the QP is ready queue. Once the QP is connected
  // every slot is free, but until the trunk pumps, the queue is still
  // there: a record sent now must go behind it, not straight into a slot.
  RdmaTrunkRig rig(4);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) rig.send(seq);
  EXPECT_EQ(rig.a->queued(), 3u);
  rig.connect();
  rig.send(4);
  EXPECT_EQ(rig.a->queued(), 0u);  // all four posted, in order
  rig.b->start();
  rig.a->start();
  ASSERT_TRUE(rig.run_until([&]() { return rig.at_b.size() == 4; }));
  expect_in_order(rig.at_b, 4);
}

TEST(RdmaTrunkOrder, RecordsSentWhileSlotsAreExhaustedKeepTheirOrder) {
  // Two slots: most records queue. The peer's records reach `a` while its
  // backlog drains, and each makes `a` send one more from inside its poll,
  // where send slots have just been freed but the backlog is not yet
  // pumped.
  RdmaTrunkRig rig(2);
  rig.connect();
  rig.b->start();
  rig.a->start();
  std::uint64_t next = 1;
  for (; next <= 12; ++next) rig.send(next);
  EXPECT_EQ(rig.a->queued(), 10u);
  std::size_t sent_from_poll = 0, queued_at_poll_sends = 0;
  rig.a->set_on_record([&](Message&&) {
    queued_at_poll_sends += rig.a->queued();
    ++sent_from_poll;
    rig.send(next++);
  });
  for (std::uint64_t i = 0; i < 6; ++i) {
    rig.b->send(numbered_header(100 + i, 10), {}, numbered_fragment(100 + i, 10).view());
  }
  ASSERT_TRUE(rig.run_until([&]() { return rig.at_b.size() == 18; }));
  EXPECT_EQ(sent_from_poll, 6u);
  EXPECT_GT(queued_at_poll_sends, 0u);  // some were sent with a backlog
  expect_in_order(rig.at_b, 18);
}

TEST(RdmaTrunkLifetime, TrunkDestroyedWithItsPollPendingLeavesNothingToRun) {
  // The receive completion schedules the receiver's poll; the trunk is
  // dropped before it runs. Neither that poll nor the CQ notify (the CQ
  // lives on in the device registry) may reach the freed trunk.
  RdmaTrunkRig rig(4);
  rig.connect();
  rig.b->start();
  rig.a->start();
  rig.send(1);
  const rdma::CqPtr recv_cq = rig.b->qp()->recv_cq();
  ASSERT_TRUE(rig.run_until([&]() { return recv_cq->depth() > 0; }));
  rig.b.reset();
  rig.cluster.loop().run();
  EXPECT_TRUE(rig.at_b.empty());
  EXPECT_EQ(recv_cq->depth(), 1u);  // nobody polled it
  EXPECT_EQ(rig.a->queued(), 0u);
}

TEST(TcpTrunkFraming, OneCopyFramesParseAsWholeRecords) {
  // The trunk frames length, header and fragment in one copy; what the
  // peer pops off the byte stream must be exactly make_record's bytes,
  // including records larger than one GSO chunk and an empty fragment.
  fabric::Cluster cluster;
  tcp::HostModeBuilder host_paths(cluster.cost_model());
  tcp::TcpNetwork net(cluster.loop(), cluster.cost_model(), host_paths);
  cluster.add_hosts(2);
  tcp::WireHop::install_rx(cluster.host(0));
  tcp::WireHop::install_rx(cluster.host(1));
  const tcp::Ipv4Addr ip_a{192, 168, 0, 1}, ip_b{192, 168, 0, 2};
  ASSERT_TRUE(host_paths.addresses().add(ip_a, cluster.host(0), nullptr).is_ok());
  ASSERT_TRUE(host_paths.addresses().add(ip_b, cluster.host(1), nullptr).is_ok());
  tcp::TcpConnection::Ptr client, server;
  ASSERT_TRUE(net.listen({ip_b, 7777}, [&](tcp::TcpConnection::Ptr c) { server = c; }).is_ok());
  net.connect({ip_a, 0}, {ip_b, 7777}, [&](Result<tcp::TcpConnection::Ptr> c) {
    ASSERT_TRUE(c.is_ok()) << c.status();
    client = *c;
  });
  ASSERT_TRUE(freeflow::testing::run_until(
      cluster.loop(), [&]() { return client != nullptr && server != nullptr; }));

  TcpTrunk tx, rx;
  std::vector<Buffer> received;
  rx.set_on_record([&](Buffer&& record) { received.push_back(std::move(record)); });
  tx.attach(client);
  rx.attach(server);
  const std::size_t chunk = cluster.cost_model().tcp_chunk_bytes;
  const std::size_t sizes[] = {0, 1, 1000, chunk - 4 - RelayHeader::k_size,
                               chunk - 4 - RelayHeader::k_size + 1, 3 * chunk + 17};
  std::vector<Buffer> expected;
  std::uint64_t seq = 0;
  for (const std::size_t len : sizes) {
    const RelayHeader h = numbered_header(++seq, len);
    const Buffer fragment = numbered_fragment(seq, len);
    expected.push_back(make_record(h, fragment.view()));
    std::byte encoded[RelayHeader::k_size];
    h.encode(encoded);
    // Byte for byte what framing the built record would have produced.
    EXPECT_EQ(frame_record(encoded, fragment.view()), frame_record(expected.back().view()));
    tx.send(h, {}, fragment.view());
  }
  ASSERT_TRUE(freeflow::testing::run_until(
      cluster.loop(), [&]() { return received.size() == expected.size(); }));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(received[i], expected[i]) << "record " << i;
    auto parsed = parse_record(received[i].view());
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed->header.msg_seq, i + 1);
    EXPECT_EQ(parsed->fragment.size(), sizes[i]);
  }
  client->release_callbacks();
  server->release_callbacks();
}

// ----------------------------------------------------- channel integration

struct AgentFixture : ::testing::Test {
  /// Opens a duplex channel between two deployed containers and returns
  /// both endpoints.
  static std::pair<ChannelPtr, ChannelPtr> open_channel(
      Env& env, AgentFabric& agents, orch::ContainerPtr a, orch::ContainerPtr b,
      orch::Transport transport) {
    ChannelPtr ep_a, ep_b;
    agents.agent_on(b->host()).register_container(
        b->id(), [&](orch::ContainerId, ChannelPtr ch) { ep_b = std::move(ch); });
    agents.agent_on(a->host()).register_container(a->id(),
                                                  [](orch::ContainerId, ChannelPtr) {});
    agents.agent_on(a->host()).establish(a->id(), b->id(), transport,
                                         [&](Result<ChannelPtr> ch) {
      ASSERT_TRUE(ch.is_ok()) << ch.status();
      ep_a = std::move(ch.value());
    });
    EXPECT_TRUE(env.wait([&]() { return ep_a != nullptr && ep_b != nullptr; }));
    return {ep_a, ep_b};
  }
};

TEST_F(AgentFixture, ShmChannelDelivers) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::shm);
  ASSERT_NE(ep_a, nullptr);

  Buffer got;
  ep_b->set_on_message([&](Message&& m) { got = std::move(m.body()); });
  Buffer msg(4096);
  fill_pattern(msg.mutable_view(), 17);
  ASSERT_TRUE(ep_a->send(std::move(msg)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return got.size() == 4096; }));
  EXPECT_TRUE(check_pattern(got.view(), 17));
  EXPECT_EQ(ep_a->transport(), orch::Transport::shm);
}

TEST_F(AgentFixture, ShmChannelIsDuplex) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::shm);
  Buffer at_a, at_b;
  ep_a->set_on_message([&](Message&& m) { at_a = std::move(m.body()); });
  ep_b->set_on_message([&](Message&& m) { at_b = std::move(m.body()); });
  ASSERT_TRUE(ep_a->send(Buffer::from_string("ping")).is_ok());
  ASSERT_TRUE(ep_b->send(Buffer::from_string("pong")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_a.empty() && !at_b.empty(); }));
  EXPECT_EQ(at_b.to_string(), "ping");
  EXPECT_EQ(at_a.to_string(), "pong");
}

TEST_F(AgentFixture, TrustEnforcedAtAgent) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 2, 0);  // different tenant, no trust
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(0).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::permission_denied);
}

TEST_F(AgentFixture, ShmRequiresColocation) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(1).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::failed_precondition);
}

class TrunkTransportTest : public AgentFixture,
                           public ::testing::WithParamInterface<orch::Transport> {};

TEST_P(TrunkTransportTest, RemoteChannelDeliversWithIntegrity) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, GetParam());
  ASSERT_NE(ep_a, nullptr);
  EXPECT_EQ(ep_a->transport(), GetParam());

  // Multiple messages, one larger than the fragment size, both directions.
  std::vector<Buffer> at_b;
  Buffer at_a;
  ep_b->set_on_message([&](Message&& m) { at_b.push_back(std::move(m.body())); });
  ep_a->set_on_message([&](Message&& m) { at_a = std::move(m.body()); });

  Buffer small(1000), big(1500 * 1000);
  fill_pattern(small.mutable_view(), 1);
  fill_pattern(big.mutable_view(), 2);
  ASSERT_TRUE(ep_a->send(std::move(small)).is_ok());
  ASSERT_TRUE(ep_a->send(std::move(big)).is_ok());
  Buffer reply(5000);
  fill_pattern(reply.mutable_view(), 3);
  ASSERT_TRUE(ep_b->send(std::move(reply)).is_ok());

  EXPECT_TRUE(env.wait([&]() { return at_b.size() == 2 && at_a.size() == 5000; },
                       30 * k_second));
  ASSERT_EQ(at_b.size(), 2u);
  EXPECT_EQ(at_b[0].size(), 1000u);
  EXPECT_TRUE(check_pattern(at_b[0].view(), 1));
  EXPECT_EQ(at_b[1].size(), 1500u * 1000);
  EXPECT_TRUE(check_pattern(at_b[1].view(), 2));
  EXPECT_TRUE(check_pattern(at_a.view(), 3));
}

INSTANTIATE_TEST_SUITE_P(AllTrunks, TrunkTransportTest,
                         ::testing::Values(orch::Transport::rdma,
                                           orch::Transport::dpdk,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& pinfo) {
                           return std::string(orch::transport_name(pinfo.param)) == "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(pinfo.param));
                         });

/// Which NIC of the pair lacks the bypass transport: the establishing
/// side's (refused before any trunk is built) or the peer's (refused by the
/// peer agent after the pending half went into the map).
enum class LacksNic { local, peer };

class TrunkRefusalTest
    : public AgentFixture,
      public ::testing::WithParamInterface<std::tuple<orch::Transport, LacksNic>> {};

TEST_P(TrunkRefusalTest, RefusedWithoutCapableNic) {
  const auto [transport, lacks] = GetParam();
  Env env(0);
  for (fabric::HostId h = 0; h < 2; ++h) {
    fabric::NicCapabilities caps;
    if ((h == 0) == (lacks == LacksNic::local)) {
      (transport == orch::Transport::rdma ? caps.rdma : caps.dpdk) = false;
    }
    env.cluster.add_host("host" + std::to_string(h), caps);
    env.overlay_net.attach_host(h);
  }
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(1).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), transport, [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::failed_precondition);
  // The peer's refusal retires the pending half: it sits in the graveyard,
  // and no trunk remains under the key (declaring its lane failed finds
  // nothing to fail). A local refusal never built a half.
  const std::uint64_t retired =
      env.cluster.telemetry().metrics().counter("agent/0/trunk/retired").value();
  EXPECT_EQ(retired, lacks == LacksNic::peer ? 1u : 0u);
  agents.agent_on(0).declare_lane_failed(1, transport);
  EXPECT_EQ(agents.agent_on(0).lanes_failed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BypassTrunks, TrunkRefusalTest,
    ::testing::Combine(::testing::Values(orch::Transport::rdma, orch::Transport::dpdk),
                       ::testing::Values(LacksNic::local, LacksNic::peer)),
    [](const ::testing::TestParamInfo<TrunkRefusalTest::ParamType>& pinfo) {
      return std::string(orch::transport_name(std::get<0>(pinfo.param))) +
             (std::get<1>(pinfo.param) == LacksNic::local ? "_local" : "_peer");
    });

TEST_F(AgentFixture, ManyChannelsShareOneTrunk) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a1 = env.deploy("a1", 1, 0);
  auto a2 = env.deploy("a2", 1, 0);
  auto b1 = env.deploy("b1", 1, 1);
  auto b2 = env.deploy("b2", 1, 1);

  auto [c1a, c1b] = open_channel(env, agents, a1, b1, orch::Transport::rdma);
  auto [c2a, c2b] = open_channel(env, agents, a2, b2, orch::Transport::rdma);
  ASSERT_NE(c1a, nullptr);
  ASSERT_NE(c2a, nullptr);

  Buffer got1, got2;
  c1b->set_on_message([&](Message&& m) { got1 = std::move(m.body()); });
  c2b->set_on_message([&](Message&& m) { got2 = std::move(m.body()); });
  Buffer m1(2222), m2(3333);
  fill_pattern(m1.mutable_view(), 5);
  fill_pattern(m2.mutable_view(), 6);
  ASSERT_TRUE(c1a->send(std::move(m1)).is_ok());
  ASSERT_TRUE(c2a->send(std::move(m2)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return got1.size() == 2222 && got2.size() == 3333; }));
  EXPECT_TRUE(check_pattern(got1.view(), 5));
  EXPECT_TRUE(check_pattern(got2.view(), 6));
  EXPECT_GE(agents.agent_on(0).records_relayed(), 2u);
}

class FragmentBoundary : public AgentFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(FragmentBoundary, MessageSizesAroundFragmentEdgeSurvive) {
  // Exactly at, one below and one above the relay fragment size, plus
  // multi-fragment sizes — all must reassemble byte-exact.
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::rdma);
  ASSERT_NE(ep_a, nullptr);

  const std::size_t size = GetParam();
  Buffer got;
  ep_b->set_on_message([&](Message&& m) { got = std::move(m.body()); });
  Buffer msg(size);
  fill_pattern(msg.mutable_view(), size);
  ASSERT_TRUE(ep_a->send(std::move(msg)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return got.size() == size; }, 30 * k_second));
  EXPECT_TRUE(check_pattern(got.view(), size));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentBoundary,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{256} * 1024 - 1,
                                           std::size_t{256} * 1024,
                                           std::size_t{256} * 1024 + 1,
                                           std::size_t{3} * 256 * 1024 + 7));

class TrunkCongestion : public AgentFixture,
                        public ::testing::WithParamInterface<orch::Transport> {};

TEST_P(TrunkCongestion, CongestionGatesWritableThenRecovers) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, GetParam());
  ASSERT_NE(ep_a, nullptr);
  ep_b->set_on_message([](Message&&) {});

  EXPECT_TRUE(ep_a->writable());
  // Flood without letting the loop run: the trunk queue must eventually
  // report congestion through writable().
  int sent = 0;
  while (ep_a->writable() && sent < 8192) {
    ASSERT_TRUE(ep_a->send(Buffer(256 * 1024)).is_ok());
    ++sent;
  }
  EXPECT_LT(sent, 8192) << "writable() never went false under flood";

  // Draining restores writability (the on_drained notification path).
  EXPECT_TRUE(env.wait([&]() { return ep_a->writable(); }, 120 * k_second));
}

INSTANTIATE_TEST_SUITE_P(AllTrunkKinds, TrunkCongestion,
                         ::testing::Values(orch::Transport::rdma,
                                           orch::Transport::dpdk,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& pinfo) {
                           return std::string(orch::transport_name(pinfo.param)) ==
                                          "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(pinfo.param));
                         });

TEST_F(AgentFixture, ConcurrentBidirectionalChannelsBetweenSameHosts) {
  // a->b and b->a channels opened from both sides share one trunk pair.
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ab_a, ab_b] = open_channel(env, agents, a, b, orch::Transport::rdma);

  ChannelPtr ba_b, ba_a;
  agents.agent_on(0).register_container(
      a->id(), [&](orch::ContainerId, ChannelPtr ch) { ba_a = std::move(ch); });
  agents.agent_on(1).establish(b->id(), a->id(), orch::Transport::rdma,
                               [&](Result<ChannelPtr> ch) {
    ASSERT_TRUE(ch.is_ok()) << ch.status();
    ba_b = std::move(ch.value());
  });
  EXPECT_TRUE(env.wait([&]() { return ba_b != nullptr && ba_a != nullptr; }));

  Buffer at_b, at_a;
  ab_b->set_on_message([&](Message&& m) { at_b = std::move(m.body()); });
  ba_a->set_on_message([&](Message&& m) { at_a = std::move(m.body()); });
  ASSERT_TRUE(ab_a->send(Buffer::from_string("forward")).is_ok());
  ASSERT_TRUE(ba_b->send(Buffer::from_string("backward")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_b.empty() && !at_a.empty(); }));
  EXPECT_EQ(at_b.to_string(), "forward");
  EXPECT_EQ(at_a.to_string(), "backward");
}

TEST_F(AgentFixture, EstablishToUnregisteredContainerFails) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  // b never registered with the agent.
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::unavailable);
}

TEST_F(AgentFixture, UnknownContainerRejected) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), 9999, orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::not_found);
}

TEST_F(AgentFixture, ClosedEndpointDropsTraffic) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::shm);
  int delivered = 0;
  ep_b->set_on_message([&](Message&&) { ++delivered; });
  ep_b->close();
  ASSERT_TRUE(ep_a->send(Buffer(100)).is_ok());
  env.loop().run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ep_a->send(Buffer(1)).is_ok(), true);  // sender side still open
  ep_a->close();
  EXPECT_EQ(ep_a->send(Buffer(1)).code(), Errc::failed_precondition);
}

}  // namespace
}  // namespace freeflow::agent
