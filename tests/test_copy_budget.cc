// Copy budget: the heap bytes one 64 KiB socket message costs between the
// sender's send() and the peer's on_data. Payload bytes live in Buffers,
// whose storage is the only thing the data path allocates with operator
// new[], so counting new[] bytes counts every buffer the path builds. Each
// such buffer is a host copy of the payload; the budget pins how many the
// path makes (DESIGN.md §5, "Host copies on the data path").
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
/// travels from a client container to a server container, after a first
/// message has paid for lazily built state (trunk, lanes, slot MRs).
std::size_t array_bytes_for_one_message(bool same_host) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, same_host ? 0 : 1);
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
  EXPECT_EQ(client->transport(), same_host ? orch::Transport::shm : orch::Transport::rdma);

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

TEST(CopyBudget, ShmMessageAllocatesOnlyItsReceiveBuffer) {
  // The sender gathers the wire header onto the payload straight into the
  // lane ring; the one buffer is the receiver's copy out of the ring.
  const std::size_t bytes = array_bytes_for_one_message(/*same_host=*/true);
  EXPECT_GE(bytes, k_message);
  EXPECT_LE(static_cast<double>(bytes), 1.1 * k_message);
}

TEST(CopyBudget, RdmaMessageStaysWithinItsBudget) {
  // Five buffers, each the payload plus its wire header: the sender's
  // retained message, the agent's lane pop, the trunk's receive copy and
  // the QP's MTU chunk snapshots (those two also carry the relay header),
  // and the receiver's lane pop. The relay record is written straight into
  // the trunk's send slot, so it costs none.
  constexpr std::size_t k_budget =
      5 * (k_message + WireHeader::k_size) + 2 * agent::RelayHeader::k_size;
  const std::size_t bytes = array_bytes_for_one_message(/*same_host=*/false);
  EXPECT_GE(bytes, 5 * k_message);
  EXPECT_LE(bytes, k_budget);
}

}  // namespace
}  // namespace freeflow::core
