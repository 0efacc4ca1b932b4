// Zero copy cannot alias. A socket's payload block travels from the
// sender's send() to the peer's on_data as it is: shm lanes, channel queues,
// the agent's relay and the conduit's retained window all hold handles on
// it. Every holder must still see the bytes as they were sent: a write
// through any handle copies that handle's bytes out of the shared block
// first (Buffer's copy on write). Each case runs on the three placements
// whose paths differ: shm (one host), rdma and tcp_host (two hosts).
#include <gtest/gtest.h>

#include "core/freeflow.h"
#include "faults/fault_injector.h"
#include "sim_env.h"

namespace freeflow::core {
namespace {

using freeflow::testing::Env;

/// A connected client/server socket pair placed on `transport`, over NICs
/// with `caps`; the server appends everything it receives to `received`.
struct Link {
  explicit Link(orch::Transport transport) : Link(transport, caps_for(transport)) {}
  Link(orch::Transport transport, fabric::NicCapabilities caps)
      : env(2, sim::CostModel{}, caps) {
    auto a = env.deploy("a", 1, 0);
    auto b = env.deploy("b", 1, transport == orch::Transport::shm ? 0 : 1);
    auto net_a = env.freeflow().attach(a->id());
    auto net_b = env.freeflow().attach(b->id());
    EXPECT_TRUE(net_a.is_ok() && net_b.is_ok());
    client_net = *net_a;
    EXPECT_TRUE((*net_b)->sock_listen(5000, [this](FlowSocketPtr s) {
      server = s;
      server->set_on_data([this](Buffer&& data) { received.append(data.view()); });
    }).is_ok());
    (*net_a)->sock_connect(b->ip(), 5000, [this](Result<FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok()) << s.status();
      client = *s;
    });
    EXPECT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
    if (client != nullptr) {
      EXPECT_EQ(client->transport(), transport);
    }
  }

  static fabric::NicCapabilities caps_for(orch::Transport transport) {
    fabric::NicCapabilities caps;
    if (transport == orch::Transport::tcp_host) caps.rdma = caps.dpdk = false;
    return caps;
  }

  bool wait_for(std::size_t bytes) {
    return env.wait([&]() { return received.size() >= bytes; });
  }

  Env env;
  ContainerNetPtr client_net;
  FlowSocketPtr client, server;
  Buffer received;
};

class ZeroCopy : public ::testing::TestWithParam<orch::Transport> {};

TEST_P(ZeroCopy, SenderWritesAfterSendReachOnlyTheSender) {
  // One socket chunk travels as the block itself on every placement; two
  // chunks travel as two slices of it over shm (a retaining conduit copies
  // them out, FlowSocket::send).
  Link link(GetParam());
  ASSERT_NE(link.client, nullptr);
  std::size_t total = 0;
  for (const std::size_t bytes : {FlowSocket::k_chunk, FlowSocket::k_chunk + 1000}) {
    Buffer sent(bytes);
    fill_pattern(sent.mutable_view(), bytes);
    Buffer kept = sent.share();
    ASSERT_TRUE(link.client->send(std::move(sent)).is_ok());
    // Overwrite through the kept share while the message is still in flight.
    fill_pattern(kept.mutable_view(), 2);
    total += bytes;
    ASSERT_TRUE(link.wait_for(total));
    EXPECT_EQ(link.received.size(), total);
    EXPECT_TRUE(check_pattern(link.received.view().last(bytes), bytes));
    EXPECT_TRUE(check_pattern(kept.view(), 2));
  }
}

TEST_P(ZeroCopy, TwoSlicesOfOneBlockArriveIntact) {
  constexpr std::size_t k_half = 3000;
  Link link(GetParam());
  ASSERT_NE(link.client, nullptr);
  Buffer block(2 * k_half);
  fill_pattern(block.mutable_view(), 3);
  const Buffer expected = block;  // deep copy
  ASSERT_TRUE(link.client->send(block.slice(0, k_half)).is_ok());
  ASSERT_TRUE(link.client->send(block.slice(k_half, k_half)).is_ok());
  // The block's owner writes too: neither slice in flight may see it.
  fill_pattern(block.mutable_view(), 4);
  ASSERT_TRUE(link.wait_for(2 * k_half));
  EXPECT_EQ(link.received, expected);
  EXPECT_TRUE(check_pattern(block.view(), 4));
}

INSTANTIATE_TEST_SUITE_P(Placements, ZeroCopy,
                         ::testing::Values(orch::Transport::shm, orch::Transport::rdma,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& pinfo) {
                           return std::string(orch::transport_name(pinfo.param)) == "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(pinfo.param));
                         });

TEST(ZeroCopyFailover, RetainedMessagesReplayAsSentAfterRdmaToTcpFailover) {
  // The retained window shares each message's payload block with the
  // sender's own handle. The sender overwrites every block right after
  // sending it, and then the RDMA engine dies under the unacked window: the
  // replay over tcp_host must carry the bytes as they were sent.
  constexpr std::size_t k_messages = 64;
  constexpr std::size_t k_bytes = 4096;
  fabric::NicCapabilities caps;
  caps.dpdk = false;  // make tcp_host the fallback edge
  Link link(orch::Transport::rdma, caps);
  ASSERT_NE(link.client, nullptr);
  std::vector<Buffer> kept;
  for (std::size_t i = 0; i < k_messages; ++i) {
    Buffer message(k_bytes);
    fill_pattern(message.mutable_view(), 100 + i);
    kept.push_back(message.share());
    ASSERT_TRUE(link.client->send(std::move(message)).is_ok());
  }
  for (Buffer& b : kept) fill_pattern(b.mutable_view(), 7);
  ASSERT_GT(link.client_net->connections()[0].retained, 0u);
  faults::FaultInjector injector(*link.env.net_orch, link.env.freeflow().agents());
  injector.apply({link.env.loop().now(), faults::FaultKind::rdma_down, 0});
  ASSERT_TRUE(link.env.wait([&]() { return link.received.size() >= k_messages * k_bytes; },
                            30 * k_second));
  EXPECT_EQ(link.client->transport(), orch::Transport::tcp_host);
  EXPECT_GT(link.client_net->connections()[0].retransmits, 0u);
  ASSERT_EQ(link.received.size(), k_messages * k_bytes);
  for (std::size_t i = 0; i < k_messages; ++i) {
    EXPECT_TRUE(check_pattern(link.received.view().subspan(i * k_bytes, k_bytes), 100 + i))
        << "message " << i;
  }
}

}  // namespace
}  // namespace freeflow::core
