// Copy budget: the heap bytes one 64 KiB socket message costs between the
// sender's send() and the peer's on_data. Payload bytes live in Buffers,
// whose storage (a block of Buffer::k_block_header count bytes, then the
// bytes) is the only thing the data path allocates with operator new[], so
// counting new[] bytes counts every buffer the path builds. Each such
// buffer is a host copy of the payload; handles that share a block cost
// nothing. The budget pins how many copies the path makes (DESIGN.md §5,
// "Host copies on the data path").
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "agent/relay.h"
#include "core/freeflow.h"
#include "core/wire.h"
#include "sim_env.h"

namespace {
bool g_counting = false;  // the simulation runs on one thread
std::size_t g_array_bytes = 0;
}  // namespace

void* operator new[](std::size_t n) {
  if (g_counting) g_array_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace freeflow::core {
namespace {

using freeflow::testing::Env;

constexpr std::size_t k_message = 64 * 1024;

/// Bytes allocated with new[] while one k_message-byte socket message
/// travels from a client container to a server container over `transport`
/// (shm: same host; rdma: two hosts; tcp_host: two hosts whose NICs have
/// neither RDMA nor DPDK), after a first message has paid for lazily built
/// state (trunk, lanes, slot MRs).
std::size_t array_bytes_for_one_message(orch::Transport transport) {
  fabric::NicCapabilities caps;
  if (transport == orch::Transport::tcp_host) caps.rdma = caps.dpdk = false;
  Env env(2, sim::CostModel{}, caps);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, transport == orch::Transport::shm ? 0 : 1);
  auto net_a = env.freeflow().attach(a->id());
  auto net_b = env.freeflow().attach(b->id());
  EXPECT_TRUE(net_a.is_ok() && net_b.is_ok());
  FlowSocketPtr client, server;
  EXPECT_TRUE((*net_b)->sock_listen(5000, [&](FlowSocketPtr s) { server = s; }).is_ok());
  (*net_a)->sock_connect(b->ip(), 5000, [&](Result<FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok()) << s.status();
    client = *s;
  });
  EXPECT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
  if (client == nullptr || server == nullptr) return 0;
  EXPECT_EQ(client->transport(), transport);

  Buffer received;
  server->set_on_data([&](Buffer&& data) { received = std::move(data); });
  for (int round = 0; round < 2; ++round) {
    Buffer message(k_message);
    fill_pattern(message.mutable_view(), static_cast<std::uint64_t>(round));
    received = Buffer();
    g_array_bytes = 0;
    g_counting = round == 1;
    EXPECT_TRUE(client->send(std::move(message)).is_ok());
    EXPECT_TRUE(env.wait([&]() { return received.size() == k_message; }));
    g_counting = false;
    EXPECT_TRUE(check_pattern(received.view(), static_cast<std::uint64_t>(round)));
  }
  return g_array_bytes;
}

TEST(CopyBudget, ShmMessageAllocatesNoPayloadBlock) {
  // The conduit encodes the wire header on its stack and puts it, with the
  // payload block the socket was handed, on the lane as a two-part message;
  // the receiver's on_data gets that very block. Nothing on the path builds
  // a buffer: at most a few block headers' worth, no payload.
  const std::size_t bytes = array_bytes_for_one_message(orch::Transport::shm);
  EXPECT_LE(bytes, 4 * Buffer::k_block_header);
}

TEST(CopyBudget, RdmaMessageStaysWithinItsBudget) {
  // Two buffers, each the payload plus its wire and relay headers: the
  // trunk's receive copy and the QP's MTU chunk snapshots. The sender's
  // lane message is the payload block itself behind a header held by value
  // (its conduit retains a share of it for replay), the agent gathers relay
  // header, wire header and payload straight into the trunk's send slot,
  // and the reassembled message is moved into the receiver's lane, so
  // those cost none. Blocks: the receive copy and one per MTU chunk.
  constexpr std::size_t k_mtu = 4096;
  constexpr std::size_t k_record = k_message + WireHeader::k_size + agent::RelayHeader::k_size;
  constexpr std::size_t k_chunks = (k_record + k_mtu - 1) / k_mtu;
  constexpr std::size_t k_budget = 2 * k_record + (1 + k_chunks) * Buffer::k_block_header;
  const std::size_t bytes = array_bytes_for_one_message(orch::Transport::rdma);
  EXPECT_GE(bytes, 2 * k_message);
  EXPECT_LE(bytes, k_budget);
}

TEST(CopyBudget, TcpHostMessageStaysWithinItsBudget) {
  // Two buffers: the TCP trunk's framed record (length, relay header, wire
  // header and payload gathered in one copy) and the receiver's record
  // accumulator, which adopts the first GSO chunk and copies it out of the
  // shared block when the second arrives. The sender's lane message is the
  // payload block itself, and the GSO split, the segments on the wire and
  // the record popped off the accumulator share blocks, so they cost none.
  // The receiver's ack, a bare wire header, costs a framed record of its
  // own.
  constexpr std::size_t k_framing = 4 + agent::RelayHeader::k_size;
  constexpr std::size_t k_wire = k_message + WireHeader::k_size;
  constexpr std::size_t k_ack = k_framing + WireHeader::k_size;
  constexpr std::size_t k_budget =
      2 * (k_framing + k_wire) + k_ack + 3 * Buffer::k_block_header;
  const std::size_t bytes = array_bytes_for_one_message(orch::Transport::tcp_host);
  EXPECT_GE(bytes, 2 * k_message);
  EXPECT_LE(bytes, k_budget);
}

}  // namespace
}  // namespace freeflow::core
