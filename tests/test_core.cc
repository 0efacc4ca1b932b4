#include <gtest/gtest.h>

#include <algorithm>

#include "core/freeflow.h"
#include "core/mpi.h"
#include "sim_env.h"

namespace freeflow::core {
namespace {

using freeflow::testing::Env;

struct CoreFixture : ::testing::Test {
  /// Standard two-container setup; co-located when same_host.
  struct Pair {
    orch::ContainerPtr a, b;
    ContainerNetPtr net_a, net_b;
  };

  static Pair make_pair(Env& env, bool same_host, orch::TenantId tenant_b = 1) {
    Pair p;
    p.a = env.deploy("a", 1, 0);
    p.b = env.deploy("b", tenant_b, same_host ? 0 : 1);
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
};

// ----------------------------------------------------------- wire/conduit

TEST(WireProtocol, HeaderRoundTrip) {
  WireHeader h;
  h.type = VMsg::verbs_write;
  h.port = 4242;
  h.mr = 7;
  h.id = 0xDEADBEEFCAFEULL;
  h.offset = 123456789;
  h.token = 42;
  const Buffer payload = Buffer::from_string("payload");
  const EncodedHeader head = encode_header(h, payload.size());
  // As a sender hands it on (header by value, payload block shared) and as
  // a transport that received it contiguously hands it on (headless).
  for (Message msg : {Message(head, payload.share()),
                      Message(Buffer::gather({head, payload.view()}))}) {
    auto parsed = parse_message(std::move(msg));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed->header.type, VMsg::verbs_write);
    EXPECT_EQ(parsed->header.port, 4242);
    EXPECT_EQ(parsed->header.mr, 7u);
    EXPECT_EQ(parsed->header.id, 0xDEADBEEFCAFEULL);
    EXPECT_EQ(parsed->header.offset, 123456789u);
    EXPECT_EQ(parsed->header.token, 42u);
    EXPECT_EQ(parsed->header.len, 7u);
    EXPECT_EQ(parsed->payload.to_string(), "payload");
  }
}

TEST(WireProtocol, ParseRejectsTruncatedAndMismatched) {
  EXPECT_FALSE(parse_message(Message(Buffer(10))).is_ok());
  WireHeader h;
  const EncodedHeader head = encode_header(h, 5);
  // Headless, missing the last payload byte.
  EXPECT_FALSE(parse_message(Message(Buffer::gather({head, Buffer(4).view()}))).is_ok());
  // Two-part, missing the last payload byte.
  EXPECT_FALSE(parse_message(Message(head, Buffer(4))).is_ok());
  // A head that is not a whole wire header.
  EXPECT_FALSE(parse_message(Message(ByteSpan(head).first(40), Buffer(5))).is_ok());
}

TEST(ConduitUnit, QueuesUntilChannelAttached) {
  sim::EventLoop loop;
  telemetry::Telemetry hub;
  Conduit conduit(1, 10, 20, tcp::Ipv4Addr(10, 0, 0, 1), 80, true, hub, loop);
  EXPECT_FALSE(conduit.live());
  WireHeader h;
  conduit.send(h, Buffer::from_string("queued").view());
  EXPECT_EQ(conduit.messages_sent(), 0u);  // nothing on the wire yet
  EXPECT_FALSE(conduit.writable());
}

TEST(ConduitUnit, CloseFiresOnceAndDropsTraffic) {
  sim::EventLoop loop;
  telemetry::Telemetry hub;
  Conduit conduit(1, 10, 20, tcp::Ipv4Addr(10, 0, 0, 1), 80, true, hub, loop);
  int closed = 0;
  conduit.set_on_closed([&](CloseReason) { ++closed; });
  conduit.close();
  conduit.close();  // idempotent
  EXPECT_EQ(closed, 1);
  EXPECT_TRUE(conduit.closed());
  WireHeader h;
  conduit.send(h);  // silently dropped, no crash
  EXPECT_EQ(conduit.messages_sent(), 0u);
}

// ------------------------------------------------- delayed-ack regression

/// Minimal loopback channel pair for conduit-level ARQ tests: delivery one
/// microsecond later on the sim clock, with a kill switch per direction so
/// tests can model a lane that swallows traffic (e.g. in-flight acks dying
/// with a failing transport).
class TestPipe final : public agent::Channel {
 public:
  explicit TestPipe(sim::EventLoop& loop) : loop_(loop) {}

  static std::pair<std::shared_ptr<TestPipe>, std::shared_ptr<TestPipe>> connect(
      sim::EventLoop& loop) {
    auto a = std::make_shared<TestPipe>(loop);
    auto b = std::make_shared<TestPipe>(loop);
    a->peer_pipe_ = b;
    b->peer_pipe_ = a;
    return {a, b};
  }

  Status send(Message&& message) override {
    if (closed_) return failed_precondition("pipe closed");
    if (!deliver) return ok_status();  // swallowed by the dying lane
    auto peer = peer_pipe_.lock();
    if (peer == nullptr) return ok_status();
    auto msg = std::make_shared<Message>(std::move(message));  // boxed: too big to capture
    loop_.schedule(1000, [peer, msg]() {
      if (!peer->closed_ && peer->on_message_) peer->on_message_(std::move(*msg));
    });
    return ok_status();
  }
  [[nodiscard]] bool writable() const noexcept override { return !closed_; }
  void set_on_message(DeliverFn cb) override { on_message_ = std::move(cb); }
  void set_on_space(std::function<void()> /*cb*/) override {}
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::rdma;  // lossy class: the conduit retains/acks
  }
  void close() noexcept override { closed_ = true; }

  bool deliver = true;

 private:
  sim::EventLoop& loop_;
  std::weak_ptr<TestPipe> peer_pipe_;
  DeliverFn on_message_;
  bool closed_ = false;
};

/// A short burst leaves the receiver mid-ack-cadence (since_ack_ < 16).
/// Without the delayed-ack timer the tail is never acked and the sender's
/// retained window never drains — this is the idle half of the ack-stall
/// bugfix, and it fails on the pre-fix code.
TEST(ConduitUnit, DelayedAckDrainsIdleTail) {
  sim::EventLoop loop;
  telemetry::Telemetry hub(&loop);
  auto a = std::make_shared<Conduit>(1, 10, 20, tcp::Ipv4Addr(10, 0, 0, 1), 80, true, hub, loop);
  auto b = std::make_shared<Conduit>(1, 20, 10, tcp::Ipv4Addr(10, 0, 0, 2), 80, false, hub, loop);
  auto [pa, pb] = TestPipe::connect(loop);
  a->attach_channel(pa);
  b->attach_channel(pb);

  for (int i = 0; i < 5; ++i) {
    WireHeader h;
    h.type = VMsg::sock_data;
    a->send(h, Buffer::from_string("x").view());
  }
  loop.run_for(10'000);  // delivery only; before the delayed-ack bound
  EXPECT_EQ(b->messages_received(), 5u);
  EXPECT_EQ(a->retained_count(), 5u);  // mid-cadence: no piggyback ack yet

  loop.run();  // idle apart from the pending delayed-ack timer
  EXPECT_EQ(a->retained_count(), 0u);
  EXPECT_LE(loop.now(), 10'000 + Conduit::k_delayed_ack_ns + 2'000);
}

/// The blocking half: the receiver's acks die with a failing lane while the
/// sender fills its whole retained window. After failover the retransmitted
/// window is all duplicates — rx_next_ never advances, so the piggyback
/// cadence can never fire again. Pre-fix the sender stays blocked forever;
/// the duplicate-triggered ack resync (delayed-ack timer) unblocks it.
TEST(ConduitUnit, AckStallAfterFailoverLostAcks) {
  sim::EventLoop loop;
  telemetry::Telemetry hub(&loop);
  auto a = std::make_shared<Conduit>(1, 10, 20, tcp::Ipv4Addr(10, 0, 0, 1), 80, true, hub, loop);
  auto b = std::make_shared<Conduit>(1, 20, 10, tcp::Ipv4Addr(10, 0, 0, 2), 80, false, hub, loop);
  auto [pa, pb] = TestPipe::connect(loop);
  a->attach_channel(pa);
  b->attach_channel(pb);
  pb->deliver = false;  // b -> a direction swallows traffic: acks are lost

  const std::uint64_t target = Conduit::k_max_retained + 32;
  std::uint64_t app_sent = 0;
  auto pump = [&]() {
    while (app_sent < target && a->writable()) {
      WireHeader h;
      h.type = VMsg::sock_data;
      a->send(h, Buffer::from_string("y").view());
      ++app_sent;
    }
  };
  a->set_on_space(pump);
  pump();
  loop.run();

  // Sender is wedged: window full, and the receiver — which got everything —
  // believes it already acked.
  EXPECT_EQ(app_sent, Conduit::k_max_retained);
  EXPECT_EQ(a->retained_count(), Conduit::k_max_retained);
  EXPECT_FALSE(a->writable());
  EXPECT_EQ(b->messages_received(), Conduit::k_max_retained);

  // Failover: both sides splice onto a healthy channel; the sender replays
  // its retained window, which the receiver sees purely as duplicates.
  a->mark_stale();
  b->mark_stale();
  auto [pa2, pb2] = TestPipe::connect(loop);
  a->attach_channel(pa2);
  b->attach_channel(pb2);
  loop.run();

  EXPECT_EQ(app_sent, target);
  EXPECT_EQ(a->retained_count(), 0u);
  EXPECT_TRUE(a->writable());
  EXPECT_EQ(a->retransmits(), Conduit::k_max_retained);
  EXPECT_EQ(b->messages_received(), target);
}

/// A conduit pair over TestPipes with a sender-side helper.
struct PipePair {
  sim::EventLoop loop;
  telemetry::Telemetry hub{&loop};
  std::shared_ptr<Conduit> a =
      std::make_shared<Conduit>(1, 10, 20, tcp::Ipv4Addr(10, 0, 0, 1), 80, true, hub, loop);
  std::shared_ptr<Conduit> b =
      std::make_shared<Conduit>(1, 20, 10, tcp::Ipv4Addr(10, 0, 0, 2), 80, false, hub, loop);

  PipePair() {
    auto [pa, pb] = TestPipe::connect(loop);
    a->attach_channel(pa);
    b->attach_channel(pb);
  }
  void send(const std::string& text) {
    WireHeader h;
    h.type = VMsg::sock_data;
    a->send(h, Buffer::from_string(text).view());
  }
};

TEST(ConduitUnit, HandlerInstalledDuringDispatchGetsTheNextMessage) {
  // The accept path's shape: the setup handler installs the data handler
  // from inside its own call, then still uses its captures.
  PipePair p;
  std::vector<std::string> got;
  auto tag = std::make_shared<std::string>("setup");
  Conduit& b = *p.b;
  b.set_on_message([&b, &got, tag](const WireHeader&, Buffer&& payload) {
    b.set_on_message([&got](const WireHeader&, Buffer&& data) {
      got.push_back("data:" + data.to_string());
    });
    got.push_back(*tag + ":" + payload.to_string());  // captures still alive
  });
  tag.reset();
  for (const char* m : {"1", "2", "3"}) p.send(m);
  p.loop.run();
  EXPECT_EQ(got, (std::vector<std::string>{"setup:1", "data:2", "data:3"}));
  EXPECT_EQ(b.messages_received(), 3u);
}

TEST(ConduitUnit, HandlerClosingOrClearingItselfDuringDispatch) {
  // Close from inside the handler: the close unhooks the handler while it
  // runs; nothing after it reaches the application, and the handler's
  // captures are released once it returns.
  {
    PipePair p;
    auto seen = std::make_shared<int>(0);
    Conduit& b = *p.b;
    b.set_on_message([&b, seen](const WireHeader&, Buffer&&) {
      b.close();
      ++*seen;
    });
    for (int i = 0; i < 3; ++i) p.send("x");
    p.loop.run();
    EXPECT_EQ(*seen, 1);
    EXPECT_TRUE(b.closed());
    EXPECT_EQ(seen.use_count(), 1);
  }
  // Clearing without closing: later messages are still received (and
  // acked) by the conduit, just not handed to anyone.
  {
    PipePair p;
    auto seen = std::make_shared<int>(0);
    Conduit& b = *p.b;
    b.set_on_message([&b, seen](const WireHeader&, Buffer&&) {
      b.set_on_message(nullptr);
      ++*seen;
    });
    for (int i = 0; i < 3; ++i) p.send("x");
    p.loop.run();
    EXPECT_EQ(*seen, 1);
    EXPECT_EQ(b.messages_received(), 3u);
    EXPECT_EQ(p.a->retained_count(), 0u);
    EXPECT_EQ(seen.use_count(), 1);
  }
}

TEST_F(CoreFixture, AttachRequiresRunningContainer) {
  Env env(1);
  EXPECT_FALSE(env.freeflow().attach(99).is_ok());
  auto c = env.deploy("a", 1, 0);
  auto net = env.freeflow().attach(c->id());
  ASSERT_TRUE(net.is_ok());
  EXPECT_EQ((*net)->id(), c->id());
  // Attaching twice returns the same instance.
  EXPECT_EQ(env.freeflow().attach(c->id()).value(), *net);
}

TEST_F(CoreFixture, IntraHostSocketsUseShm) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/true);
  auto [client, server] = socket_pair(env, p, 5000);
  EXPECT_EQ(client->transport(), orch::Transport::shm);
  EXPECT_EQ(server->transport(), orch::Transport::shm);
}

TEST_F(CoreFixture, InterHostSocketsUseRdma) {
  Env env(2);
  auto p = make_pair(env, /*same_host=*/false);
  auto [client, server] = socket_pair(env, p, 5000);
  EXPECT_EQ(client->transport(), orch::Transport::rdma);
  EXPECT_EQ(server->transport(), orch::Transport::rdma);
}

TEST_F(CoreFixture, InterHostFallsBackToDpdkThenTcp) {
  {
    fabric::NicCapabilities caps;
    caps.rdma = false;
    caps.dpdk = true;
    Env env(2, sim::CostModel{}, caps);
    auto p = make_pair(env, false);
    auto [client, server] = socket_pair(env, p, 5000);
    EXPECT_EQ(client->transport(), orch::Transport::dpdk);
  }
  {
    fabric::NicCapabilities caps;
    caps.rdma = false;
    caps.dpdk = false;
    Env env(2, sim::CostModel{}, caps);
    auto p = make_pair(env, false);
    auto [client, server] = socket_pair(env, p, 5000);
    EXPECT_EQ(client->transport(), orch::Transport::tcp_host);
  }
}

TEST_F(CoreFixture, UntrustedPairIsRefused) {
  Env env(1);
  auto p = make_pair(env, true, /*tenant_b=*/2);
  Status result;
  bool done = false;
  ASSERT_TRUE(p.net_b->sock_listen(5000, [](FlowSocketPtr) {}).is_ok());
  p.net_a->sock_connect(p.b->ip(), 5000, [&](Result<FlowSocketPtr> s) {
    result = s.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::permission_denied);
}

TEST_F(CoreFixture, ConnectToMissingPortRefused) {
  Env env(1);
  auto p = make_pair(env, true);
  Status result;
  bool done = false;
  p.net_a->sock_connect(p.b->ip(), 1234, [&](Result<FlowSocketPtr> s) {
    result = s.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::connection_refused);
}

TEST_F(CoreFixture, SocketStreamIntegrityBothDirections) {
  Env env(2);
  auto p = make_pair(env, false);
  auto [client, server] = socket_pair(env, p, 5000);
  Buffer at_server, at_client;
  server->set_on_data([&](Buffer&& b) { at_server.append(b.view()); });
  client->set_on_data([&](Buffer&& b) { at_client.append(b.view()); });

  Buffer up(500000), down(250000);
  fill_pattern(up.mutable_view(), 1);
  fill_pattern(down.mutable_view(), 2);
  ASSERT_TRUE(client->send(std::move(up)).is_ok());
  ASSERT_TRUE(server->send(std::move(down)).is_ok());
  EXPECT_TRUE(env.wait(
      [&]() { return at_server.size() == 500000 && at_client.size() == 250000; },
      30 * k_second));
  EXPECT_TRUE(check_pattern(at_server.view(), 1));
  EXPECT_TRUE(check_pattern(at_client.view(), 2));
}

class SocketEcho : public CoreFixture, public ::testing::WithParamInterface<bool> {};

/// Sizes around the 64 KiB stream chunk: every payload is handed from the
/// conduit to on_data without a copy, so each byte must still arrive intact.
TEST_P(SocketEcho, EchoesEveryByteAcrossChunkBoundaries) {
  const bool same_host = GetParam();
  Env env(2);
  auto p = make_pair(env, same_host);
  auto [client, server] = socket_pair(env, p, 5000);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->transport(),
            same_host ? orch::Transport::shm : orch::Transport::rdma);
  server->set_on_data([srv = server.get()](Buffer&& b) {
    ASSERT_TRUE(srv->send(std::move(b)).is_ok());
  });
  Buffer echoed;
  client->set_on_data([&](Buffer&& b) { echoed.append(b.view()); });

  for (const std::size_t size : {std::size_t{1}, std::size_t{65535}, std::size_t{65536},
                                 std::size_t{65537}, std::size_t{3 * 65536 + 7}}) {
    echoed.clear();
    Buffer request(size);
    fill_pattern(request.mutable_view(), size);
    ASSERT_TRUE(client->send(request).is_ok());
    ASSERT_TRUE(env.wait([&]() { return echoed.size() >= size; }, 30 * k_second))
        << "size " << size;
    EXPECT_EQ(echoed.size(), size);
    EXPECT_TRUE(check_pattern(echoed.view(), size)) << "size " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, SocketEcho, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "shm" : "rdma";
                         });

TEST_F(CoreFixture, SocketCloseNotifiesPeer) {
  Env env(1);
  auto p = make_pair(env, true);
  auto [client, server] = socket_pair(env, p, 5000);
  bool closed = false;
  CloseReason reason{};
  server->set_on_close([&](CloseReason r) {
    reason = r;
    closed = true;
  });
  client->close();
  EXPECT_TRUE(env.wait([&]() { return closed; }));
  EXPECT_EQ(reason, CloseReason::peer_bye);
  EXPECT_FALSE(server->is_open());
  EXPECT_EQ(client->send(Buffer(1)).code(), Errc::failed_precondition);
}

// ------------------------------------------------------------- verbs vNIC

struct VerbsFixture : CoreFixture {
  static std::pair<VirtualQpPtr, VirtualQpPtr> qp_pair(Env& env, Pair& p,
                                                       std::uint16_t port) {
    VirtualQpPtr client, server;
    EXPECT_TRUE(p.net_b->listen_qp(port, [&](VirtualQpPtr q) { server = q; }).is_ok());
    p.net_a->connect_qp(p.b->ip(), port, p.net_a->create_cq(), p.net_a->create_cq(),
                        [&](Result<VirtualQpPtr> q) {
                          ASSERT_TRUE(q.is_ok()) << q.status();
                          client = *q;
                        });
    EXPECT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
    return {client, server};
  }

  static bool poll_one(const rdma::CqPtr& cq, rdma::WorkCompletion& wc) {
    return cq->poll({&wc, 1}) == 1;
  }
};

class VerbsPlacement : public VerbsFixture,
                       public ::testing::WithParamInterface<bool> {};

TEST_P(VerbsPlacement, SendRecvWorksOnAnyPlacement) {
  const bool same_host = GetParam();
  Env env(2);
  auto p = make_pair(env, same_host);
  auto [qa, qb] = qp_pair(env, p, 18515);
  ASSERT_NE(qa, nullptr);
  EXPECT_EQ(qa->transport(),
            same_host ? orch::Transport::shm : orch::Transport::rdma);

  auto src = p.net_a->reg_mr(128 * 1024);
  auto dst = p.net_b->reg_mr(128 * 1024);
  fill_pattern(src->data().mutable_view(), 42);

  rdma::RecvWr rwr;
  rwr.wr_id = 1;
  rwr.local = {dst, 0, dst->length()};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());

  rdma::SendWr swr;
  swr.wr_id = 2;
  swr.opcode = rdma::Opcode::send;
  swr.local = {src, 0, src->length()};
  ASSERT_TRUE(qa->post_send(swr).is_ok());

  rdma::WorkCompletion wc;
  EXPECT_TRUE(env.wait([&]() { return poll_one(qb->recv_cq(), wc); }, 30 * k_second));
  EXPECT_EQ(wc.wr_id, 1u);
  EXPECT_EQ(wc.byte_len, 128u * 1024);
  EXPECT_TRUE(check_pattern(dst->data().view(), 42));
}

TEST_P(VerbsPlacement, OversizeWrIsRefusedAtPost) {
  // A WR whose conduit message can never fit the shm lane ring used to be
  // completed with success and then parked forever. It must be refused.
  const bool same_host = GetParam();
  Env env(2);
  auto p = make_pair(env, same_host);
  auto [qa, qb] = qp_pair(env, p, 18515);
  ASSERT_NE(qa, nullptr);
  const std::size_t limit = p.net_a->max_verbs_payload();
  ASSERT_LT(limit, std::size_t{8} << 20);

  auto src = p.net_a->reg_mr(8 << 20);
  auto dst = p.net_b->reg_mr(8 << 20);
  rdma::RecvWr rwr;
  rwr.wr_id = 1;
  rwr.local = {dst, 0, dst->length()};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());

  rdma::SendWr swr;
  swr.wr_id = 2;
  swr.opcode = rdma::Opcode::send;
  swr.local = {src, 0, src->length()};
  EXPECT_EQ(qa->post_send(swr).code(), Errc::invalid_argument);
  swr.opcode = rdma::Opcode::write;
  swr.remote = {dst->rkey(), 0};
  EXPECT_EQ(qa->post_send(swr).code(), Errc::invalid_argument);
  env.loop().run();
  rdma::WorkCompletion wc;
  EXPECT_FALSE(poll_one(qa->send_cq(), wc));
  EXPECT_FALSE(poll_one(qb->recv_cq(), wc));

  // A READ that large is answered with an error completion.
  swr.wr_id = 3;
  swr.opcode = rdma::Opcode::read;
  swr.remote = {dst->rkey(), 0};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  ASSERT_TRUE(env.wait([&]() { return poll_one(qa->send_cq(), wc); }, 30 * k_second));
  EXPECT_EQ(wc.wr_id, 3u);
  EXPECT_EQ(wc.status, rdma::WcStatus::remote_access_error);

  // Exactly at the limit the SEND is still delivered byte-exact. The
  // destination is zeroed first: storage this large may come back from an
  // earlier MR holding this very pattern.
  fill_pattern(src->data().mutable_view().first(limit), 9);
  std::ranges::fill(dst->data().mutable_view(), std::byte{0});
  swr.wr_id = 4;
  swr.opcode = rdma::Opcode::send;
  swr.local = {src, 0, limit};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  ASSERT_TRUE(env.wait([&]() { return poll_one(qb->recv_cq(), wc); }, 30 * k_second));
  EXPECT_EQ(wc.wr_id, 1u);
  EXPECT_EQ(wc.status, rdma::WcStatus::success);
  EXPECT_EQ(wc.byte_len, limit);
  EXPECT_TRUE(check_pattern(dst->data().view().first(limit), 9));
}

INSTANTIATE_TEST_SUITE_P(Placements, VerbsPlacement, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "intra_host" : "inter_host";
                         });

TEST_F(VerbsFixture, WriteAndReadAgainstRemoteMr) {
  Env env(2);
  auto p = make_pair(env, false);
  auto [qa, qb] = qp_pair(env, p, 18515);

  auto local = p.net_a->reg_mr(64 * 1024);
  auto remote = p.net_b->reg_mr(64 * 1024);
  fill_pattern(local->data().mutable_view(), 9);

  // WRITE into the server's memory.
  rdma::SendWr wr;
  wr.wr_id = 1;
  wr.opcode = rdma::Opcode::write;
  wr.local = {local, 0, local->length()};
  wr.remote = {remote->rkey(), 0};
  ASSERT_TRUE(qa->post_send(wr).is_ok());
  rdma::WorkCompletion wc;
  EXPECT_TRUE(env.wait([&]() { return poll_one(qa->send_cq(), wc); }, 30 * k_second));
  EXPECT_TRUE(env.wait([&]() { return check_pattern(remote->data().view(), 9); },
                       30 * k_second));

  // Mutate at the server, READ it back.
  fill_pattern(remote->data().mutable_view(), 10);
  rdma::SendWr rd;
  rd.wr_id = 2;
  rd.opcode = rdma::Opcode::read;
  rd.local = {local, 0, local->length()};
  rd.remote = {remote->rkey(), 0};
  ASSERT_TRUE(qa->post_send(rd).is_ok());
  rdma::WorkCompletion wc2;
  EXPECT_TRUE(env.wait([&]() {
    return poll_one(qa->send_cq(), wc2) && wc2.opcode == rdma::Opcode::read;
  }, 30 * k_second));
  EXPECT_EQ(wc2.status, rdma::WcStatus::success);
  EXPECT_TRUE(check_pattern(local->data().view(), 10));
}

TEST_F(VerbsFixture, ReadBadMrReturnsError) {
  Env env(1);
  auto p = make_pair(env, true);
  auto [qa, qb] = qp_pair(env, p, 18515);
  auto local = p.net_a->reg_mr(1024);
  rdma::SendWr rd;
  rd.opcode = rdma::Opcode::read;
  rd.local = {local, 0, 1024};
  rd.remote = {0xBAD, 0};
  ASSERT_TRUE(qa->post_send(rd).is_ok());
  rdma::WorkCompletion wc;
  EXPECT_TRUE(env.wait([&]() {
    return poll_one(qa->send_cq(), wc) && wc.opcode == rdma::Opcode::read;
  }));
  EXPECT_EQ(wc.status, rdma::WcStatus::remote_access_error);
}

// -------------------------------------------------------------- selector

TEST_F(CoreFixture, SelectorCachesDecisions) {
  Env env(2);
  auto p = make_pair(env, false);
  auto& selector = env.freeflow().selector();
  bool done1 = false, done2 = false;
  selector.decide(p.a->id(), p.b->id(), [&](Result<orch::TransportDecision> d) {
    EXPECT_TRUE(d.is_ok());
    done1 = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done1; }));
  EXPECT_EQ(selector.cache_misses(), 1u);
  selector.decide(p.a->id(), p.b->id(), [&](Result<orch::TransportDecision> d) {
    EXPECT_TRUE(d.is_ok());
    done2 = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done2; }));
  EXPECT_EQ(selector.cache_hits(), 1u);
}

TEST_F(CoreFixture, SelectorInvalidatesOnMigration) {
  Env env(2);
  auto p = make_pair(env, false);
  auto& selector = env.freeflow().selector();
  orch::Transport first{}, second{};
  bool d1 = false, d2 = false;
  selector.decide(p.a->id(), p.b->id(), [&](Result<orch::TransportDecision> d) {
    first = d->transport;
    d1 = true;
  });
  EXPECT_TRUE(env.wait([&]() { return d1; }));
  EXPECT_EQ(first, orch::Transport::rdma);

  ASSERT_TRUE(env.cluster_orch->migrate(p.b->id(), 0).is_ok());
  env.loop().run();
  selector.decide(p.a->id(), p.b->id(), [&](Result<orch::TransportDecision> d) {
    second = d->transport;
    d2 = true;
  });
  EXPECT_TRUE(env.wait([&]() { return d2; }));
  EXPECT_EQ(second, orch::Transport::shm);  // stale rdma answer was evicted
}

// -------------------------------------------------------------- migration

TEST_F(CoreFixture, SocketSurvivesPeerMigration) {
  Env env(2);
  auto p = make_pair(env, false);  // a on host0, b on host1: rdma
  auto [client, server] = socket_pair(env, p, 5000);
  EXPECT_EQ(client->transport(), orch::Transport::rdma);

  Buffer at_server;
  server->set_on_data([&](Buffer&& b) { at_server.append(b.view()); });

  Buffer first(100000);
  fill_pattern(first.mutable_view(), 1);
  ASSERT_TRUE(client->send(std::move(first)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return at_server.size() == 100000; }, 30 * k_second));

  // Quiesce, migrate b onto a's host, then keep talking: the conduit must
  // re-bind onto a *shared-memory* channel transparently.
  ASSERT_TRUE(env.cluster_orch->migrate(p.b->id(), 0).is_ok());
  env.loop().run();

  Buffer second(50000);
  fill_pattern(second.mutable_view(), 2);
  ASSERT_TRUE(client->send(std::move(second)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return at_server.size() == 150000; }, 30 * k_second));
  EXPECT_TRUE(check_pattern(ByteSpan{at_server.data() + 100000, 50000}, 2));
  EXPECT_EQ(client->transport(), orch::Transport::shm);
  EXPECT_GE(client->conduit()->rebinds(), 1u);
}

TEST_F(CoreFixture, SocketSurvivesSelfMigration) {
  Env env(2);
  auto p = make_pair(env, true);  // both on host0: shm
  auto [client, server] = socket_pair(env, p, 5000);
  EXPECT_EQ(client->transport(), orch::Transport::shm);

  Buffer at_server;
  server->set_on_data([&](Buffer&& b) { at_server.append(b.view()); });

  // Move the *initiator* (a) to the other host.
  ASSERT_TRUE(env.cluster_orch->migrate(p.a->id(), 1).is_ok());
  env.loop().run();

  Buffer data(80000);
  fill_pattern(data.mutable_view(), 4);
  ASSERT_TRUE(client->send(std::move(data)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return at_server.size() == 80000; }, 30 * k_second));
  EXPECT_TRUE(check_pattern(at_server.view(), 4));
  EXPECT_EQ(client->transport(), orch::Transport::rdma);
}

// ----------------------------------------------------------- more verbs

TEST_F(VerbsFixture, UnsignaledSendsProduceNoCompletion) {
  Env env(1);
  auto p = make_pair(env, true);
  auto [qa, qb] = qp_pair(env, p, 18515);
  auto src = p.net_a->reg_mr(1024);
  auto dst = p.net_b->reg_mr(1024);
  rdma::RecvWr rwr;
  rwr.local = {dst, 0, 1024};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  rdma::SendWr swr;
  swr.opcode = rdma::Opcode::send;
  swr.signaled = false;
  swr.local = {src, 0, 1024};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  rdma::WorkCompletion wc;
  EXPECT_TRUE(env.wait([&]() { return poll_one(qb->recv_cq(), wc); }));
  EXPECT_FALSE(poll_one(qa->send_cq(), wc));  // no send CQE when unsignaled
}

TEST_F(VerbsFixture, SendBeforeRecvBacklogsUntilPosted) {
  Env env(1);
  auto p = make_pair(env, true);
  auto [qa, qb] = qp_pair(env, p, 18515);
  auto src = p.net_a->reg_mr(4096);
  auto dst = p.net_b->reg_mr(4096);
  fill_pattern(src->data().mutable_view(), 12);

  rdma::SendWr swr;
  swr.local = {src, 0, 4096};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  env.loop().run();  // message arrives; no recv posted

  rdma::WorkCompletion wc;
  EXPECT_FALSE(poll_one(qb->recv_cq(), wc));
  rdma::RecvWr rwr;
  rwr.wr_id = 5;
  rwr.local = {dst, 0, 4096};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  EXPECT_TRUE(env.wait([&]() { return poll_one(qb->recv_cq(), wc); }));
  EXPECT_EQ(wc.wr_id, 5u);
  EXPECT_TRUE(check_pattern(dst->data().view(), 12));
}

TEST_F(VerbsFixture, MultipleQpsBetweenSamePairAreIndependent) {
  Env env(2);
  auto p = make_pair(env, false);
  auto [q1a, q1b] = qp_pair(env, p, 18515);
  auto [q2a, q2b] = qp_pair(env, p, 18516);

  auto src = p.net_a->reg_mr(2048);
  auto dst = p.net_b->reg_mr(4096);
  fill_pattern(src->data().mutable_view(), 1);

  rdma::RecvWr r1;
  r1.wr_id = 1;
  r1.local = {dst, 0, 2048};
  ASSERT_TRUE(q1b->post_recv(r1).is_ok());
  rdma::RecvWr r2;
  r2.wr_id = 2;
  r2.local = {dst, 2048, 2048};
  ASSERT_TRUE(q2b->post_recv(r2).is_ok());

  rdma::SendWr s1;
  s1.local = {src, 0, 2048};
  ASSERT_TRUE(q1a->post_send(s1).is_ok());
  ASSERT_TRUE(q2a->post_send(s1).is_ok());

  rdma::WorkCompletion wc1, wc2;
  EXPECT_TRUE(env.wait([&]() { return poll_one(q1b->recv_cq(), wc1); }, 30 * k_second));
  EXPECT_TRUE(env.wait([&]() { return poll_one(q2b->recv_cq(), wc2); }, 30 * k_second));
  EXPECT_EQ(wc1.wr_id, 1u);
  EXPECT_EQ(wc2.wr_id, 2u);
}

TEST_F(VerbsFixture, QpListenerRejectsUnknownPort) {
  Env env(1);
  auto p = make_pair(env, true);
  Status result;
  bool done = false;
  p.net_a->connect_qp(p.b->ip(), 4242, p.net_a->create_cq(), p.net_a->create_cq(),
                      [&](Result<VirtualQpPtr> q) {
                        result = q.status();
                        done = true;
                      });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::connection_refused);
}

TEST_F(VerbsFixture, PostValidatesLocalBounds) {
  Env env(1);
  auto p = make_pair(env, true);
  auto [qa, qb] = qp_pair(env, p, 18515);
  auto mr = p.net_a->reg_mr(100);
  rdma::SendWr wr;
  wr.local = {mr, 50, 100};  // overruns
  EXPECT_EQ(qa->post_send(wr).code(), Errc::invalid_argument);
  rdma::RecvWr rwr;
  rwr.local = {nullptr, 0, 10};
  EXPECT_EQ(qa->post_recv(rwr).code(), Errc::invalid_argument);
}

// ------------------------------------------------------------ more sockets

TEST_F(CoreFixture, DoubleListenOnPortFails) {
  Env env(1);
  auto p = make_pair(env, true);
  ASSERT_TRUE(p.net_b->sock_listen(5000, [](FlowSocketPtr) {}).is_ok());
  EXPECT_EQ(p.net_b->sock_listen(5000, [](FlowSocketPtr) {}).code(),
            Errc::already_exists);
  // But the SAME port on a different container is fine (no host-mode
  // port-space sharing — the paper's portability requirement).
  ASSERT_TRUE(p.net_a->sock_listen(5000, [](FlowSocketPtr) {}).is_ok());
}

TEST_F(CoreFixture, ManySocketsBetweenOnePair) {
  Env env(2);
  auto p = make_pair(env, false);
  std::vector<FlowSocketPtr> servers, clients;
  ASSERT_TRUE(p.net_b->sock_listen(5000, [&](FlowSocketPtr s) {
    servers.push_back(s);
  }).is_ok());
  for (int i = 0; i < 5; ++i) {
    p.net_a->sock_connect(p.b->ip(), 5000, [&](Result<FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok());
      clients.push_back(*s);
    });
  }
  EXPECT_TRUE(env.wait([&]() { return clients.size() == 5 && servers.size() == 5; },
                       30 * k_second));
  // Each socket is its own stream: message on socket i arrives only there.
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5; ++i) {
    servers[static_cast<std::size_t>(i)]->set_on_data(
        [&hits, i](Buffer&&) { ++hits[static_cast<std::size_t>(i)]; });
  }
  ASSERT_TRUE(clients[2]->send(Buffer(64)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return hits[2] == 1; }));
  EXPECT_EQ(hits[0] + hits[1] + hits[3] + hits[4], 0);
}

TEST_F(CoreFixture, VmDeploymentCasesEndToEnd) {
  // Paper Fig. 2 cases (c)/(d): hosts are VMs with a fabric-controller
  // mapping to physical machines. Same-VM containers get shm; VMs on
  // different physical machines get RDMA — end to end, not just decide().
  Env env(2);
  env.cluster.host(0).set_physical_machine(100);
  env.cluster.host(1).set_physical_machine(101);

  // Case (c): both containers in VM host0.
  {
    auto p = make_pair(env, /*same_host=*/true);
    auto [client, server] = socket_pair(env, p, 5001);
    EXPECT_EQ(client->transport(), orch::Transport::shm);
    Buffer got;
    server->set_on_data([&](Buffer&& b) { got = std::move(b); });
    ASSERT_TRUE(client->send(Buffer::from_string("case-c")).is_ok());
    EXPECT_TRUE(env.wait([&]() { return !got.empty(); }));
    EXPECT_EQ(got.to_string(), "case-c");
  }
  // Case (d): VMs on different physical machines.
  {
    auto c = env.deploy("c", 1, 0);
    auto d = env.deploy("d", 1, 1);
    auto nc = env.freeflow().attach(c->id()).value();
    auto nd = env.freeflow().attach(d->id()).value();
    FlowSocketPtr client, server;
    ASSERT_TRUE(nd->sock_listen(5002, [&](FlowSocketPtr s) { server = s; }).is_ok());
    nc->sock_connect(d->ip(), 5002, [&](Result<FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok());
      client = *s;
    });
    EXPECT_TRUE(env.wait([&]() { return client && server; }));
    EXPECT_EQ(client->transport(), orch::Transport::rdma);
  }
}

// ------------------------------------------------------------- lifecycle

TEST_F(CoreFixture, PeerStopClosesSockets) {
  Env env(2);
  auto p = make_pair(env, false);
  auto [client, server] = socket_pair(env, p, 5000);
  bool closed = false;
  CloseReason reason{};
  client->set_on_close([&](CloseReason r) {
    reason = r;
    closed = true;
  });

  ASSERT_TRUE(env.cluster_orch->stop(p.b->id()).is_ok());
  EXPECT_TRUE(env.wait([&]() { return closed; }));
  EXPECT_EQ(reason, CloseReason::peer_bye);
  EXPECT_FALSE(client->is_open());
  EXPECT_EQ(client->send(Buffer(10)).code(), Errc::failed_precondition);
  EXPECT_EQ(p.net_a->conduit_count(), 0u);
}

TEST_F(CoreFixture, SelfStopDetachesNet) {
  Env env(2);
  auto p = make_pair(env, false);
  auto [client, server] = socket_pair(env, p, 5000);
  ASSERT_TRUE(env.cluster_orch->stop(p.a->id()).is_ok());
  EXPECT_EQ(env.freeflow().net(p.a->id()), nullptr);
  // Re-attaching a stopped container fails.
  EXPECT_EQ(env.freeflow().attach(p.a->id()).status().code(), Errc::failed_precondition);
}

TEST_F(CoreFixture, PeerStopErrsPendingVerbs) {
  Env env(2);
  auto p = make_pair(env, false);
  VirtualQpPtr qa, qb;
  ASSERT_TRUE(p.net_b->listen_qp(18515, [&](VirtualQpPtr q) { qb = q; }).is_ok());
  p.net_a->connect_qp(p.b->ip(), 18515, p.net_a->create_cq(), p.net_a->create_cq(),
                      [&](Result<VirtualQpPtr> q) {
                        ASSERT_TRUE(q.is_ok());
                        qa = *q;
                      });
  ASSERT_TRUE(env.wait([&]() { return qa && qb; }));

  // Post a recv that will never be matched, then stop the peer.
  auto mr = p.net_a->reg_mr(1024);
  rdma::RecvWr rwr;
  rwr.wr_id = 77;
  rwr.local = {mr, 0, 1024};
  ASSERT_TRUE(qa->post_recv(rwr).is_ok());
  ASSERT_TRUE(env.cluster_orch->stop(p.b->id()).is_ok());

  rdma::WorkCompletion wc;
  EXPECT_TRUE(env.wait([&]() { return qa->recv_cq()->poll({&wc, 1}) == 1; }));
  EXPECT_EQ(wc.wr_id, 77u);
  EXPECT_EQ(wc.status, rdma::WcStatus::qp_error);
}

TEST_F(CoreFixture, ConnectionIntrospection) {
  Env env(2);
  auto p = make_pair(env, false);
  auto [client, server] = socket_pair(env, p, 5000);
  ASSERT_TRUE(client->send(Buffer(1000)).is_ok());
  env.loop().run_for(10 * k_millisecond);

  auto conns = p.net_a->connections();
  ASSERT_EQ(conns.size(), 1u);
  EXPECT_EQ(conns[0].peer, p.b->id());
  EXPECT_EQ(conns[0].peer_ip, p.b->ip());
  EXPECT_EQ(conns[0].transport, orch::Transport::rdma);
  EXPECT_TRUE(conns[0].initiator);
  EXPECT_GE(conns[0].messages_sent, 1u);

  auto peer_conns = p.net_b->connections();
  ASSERT_EQ(peer_conns.size(), 1u);
  EXPECT_FALSE(peer_conns[0].initiator);
  EXPECT_GE(peer_conns[0].messages_received, 1u);
}

TEST_F(CoreFixture, ShmChannelsBackedByPermissionedRegions) {
  Env env(1);
  auto p = make_pair(env, true);
  auto& registry = env.freeflow().agents().agent_on(0).shm_registry();
  const std::size_t lane_ring_bytes = env.freeflow().agents().config().lane_ring_bytes;
  const std::size_t before = registry.region_count();
  const std::size_t bytes_before = registry.bytes_in_use();
  {
    auto [client, server] = socket_pair(env, p, 5000);
    EXPECT_EQ(registry.region_count(), before + 1);
    EXPECT_EQ(registry.bytes_in_use(), bytes_before + 2 * lane_ring_bytes);

    client->close();
    server->close();
    EXPECT_TRUE(env.wait([&]() {
      return p.net_a->conduit_count() == 0 && p.net_b->conduit_count() == 0;
    }));
  }
  EXPECT_EQ(registry.region_count(), before);
  EXPECT_EQ(registry.bytes_in_use(), bytes_before);
}

TEST_F(CoreFixture, ShmConnectChurnReleasesRegions) {
  // Regression: nothing unlinked a channel's region at close, so each
  // co-located connection kept its registry entry and budget charge for the
  // agent's whole life, and establish_shm eventually failed with
  // resource_exhausted. With the budget capped at three regions' worth, ten
  // sequential connect/echo/close cycles must all succeed.
  Env env(1);
  auto p = make_pair(env, true);
  auto& registry = env.freeflow().agents().agent_on(0).shm_registry();
  const std::size_t region_bytes = 2 * env.freeflow().agents().config().lane_ring_bytes;
  const std::size_t before = registry.region_count();
  const std::size_t bytes_before = registry.bytes_in_use();
  registry.set_capacity(bytes_before + 3 * region_bytes);

  FlowSocketPtr server;
  ASSERT_TRUE(p.net_b->sock_listen(5000, [&](FlowSocketPtr s) {
    s->set_on_data(
        [raw = s.get()](Buffer&& msg) { FF_CHECK(raw->send(std::move(msg)).is_ok()); });
    server = std::move(s);
  }).is_ok());

  for (int cycle = 0; cycle < 10; ++cycle) {
    SCOPED_TRACE(cycle);
    FlowSocketPtr client;
    Status connect_error = ok_status();
    p.net_a->sock_connect(p.b->ip(), 5000, [&](Result<FlowSocketPtr> s) {
      if (s.is_ok()) {
        client = *s;
      } else {
        connect_error = s.status();
      }
    });
    ASSERT_TRUE(env.wait([&]() {
      return (client != nullptr && server != nullptr) || !connect_error.is_ok();
    }));
    ASSERT_TRUE(connect_error.is_ok()) << connect_error;
    EXPECT_EQ(client->transport(), orch::Transport::shm);

    const std::string request = "ping " + std::to_string(cycle);
    std::string echoed;
    client->set_on_data([&](Buffer&& msg) { echoed += msg.to_string(); });
    ASSERT_TRUE(client->send(Buffer::from_string(request)).is_ok());
    ASSERT_TRUE(env.wait([&]() { return echoed.size() >= request.size(); }));
    EXPECT_EQ(echoed, request);

    client->close();
    ASSERT_TRUE(env.wait([&]() {
      return p.net_a->conduit_count() == 0 && p.net_b->conduit_count() == 0;
    }));
    client.reset();
    server.reset();
    EXPECT_EQ(registry.region_count(), before);
    EXPECT_EQ(registry.bytes_in_use(), bytes_before);
  }
}

// ----------------------------------------------------- three-tier app

TEST_F(CoreFixture, ThreeTierApplicationEndToEnd) {
  // A realistic composition across 3 hosts: client -> load balancer ->
  // web worker -> cache, every hop over whatever transport the
  // orchestrator picks, with the request id threaded end to end.
  Env env(3);
  auto lb_c = env.deploy("lb", 1, 0);
  auto web_c = env.deploy("web", 1, 1);
  auto cache_c = env.deploy("cache", 1, 1);  // co-located with web -> shm
  auto client_c = env.deploy("client", 1, 2);

  auto lb = env.freeflow().attach(lb_c->id()).value();
  auto web = env.freeflow().attach(web_c->id()).value();
  auto cache = env.freeflow().attach(cache_c->id()).value();
  auto client = env.freeflow().attach(client_c->id()).value();

  // Cache tier: echoes "value:<key>".
  std::vector<FlowSocketPtr> held;
  ASSERT_TRUE(cache->sock_listen(11211, [&](FlowSocketPtr s) {
    held.push_back(s);
    s->set_on_data([s](Buffer&& key) {
      FF_CHECK(s->send(Buffer::from_string("value:" + key.to_string())).is_ok());
    });
  }).is_ok());

  // Web tier: forwards each request to the cache, returns its answer.
  FlowSocketPtr web_to_cache;
  web->sock_connect(cache_c->ip(), 11211, [&](Result<FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok());
    web_to_cache = *s;
  });
  ASSERT_TRUE(env.wait([&]() { return web_to_cache != nullptr; }));
  ASSERT_TRUE(web->sock_listen(8080, [&](FlowSocketPtr from_lb) {
    held.push_back(from_lb);
    from_lb->set_on_data([&, from_lb](Buffer&& req) {
      web_to_cache->set_on_data([from_lb](Buffer&& resp) {
        FF_CHECK(from_lb->send(std::move(resp)).is_ok());
      });
      FF_CHECK(web_to_cache->send(std::move(req)).is_ok());
    });
  }).is_ok());

  // LB tier: forwards to the (single) web worker.
  FlowSocketPtr lb_to_web;
  lb->sock_connect(web_c->ip(), 8080, [&](Result<FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok());
    lb_to_web = *s;
  });
  ASSERT_TRUE(env.wait([&]() { return lb_to_web != nullptr; }));
  ASSERT_TRUE(lb->sock_listen(80, [&](FlowSocketPtr from_client) {
    held.push_back(from_client);
    from_client->set_on_data([&, from_client](Buffer&& req) {
      lb_to_web->set_on_data([from_client](Buffer&& resp) {
        FF_CHECK(from_client->send(std::move(resp)).is_ok());
      });
      FF_CHECK(lb_to_web->send(std::move(req)).is_ok());
    });
  }).is_ok());

  // Client issues requests through the whole chain.
  FlowSocketPtr sock;
  client->sock_connect(lb_c->ip(), 80, [&](Result<FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok());
    sock = *s;
  });
  ASSERT_TRUE(env.wait([&]() { return sock != nullptr; }));

  std::vector<std::string> answers;
  sock->set_on_data([&](Buffer&& resp) { answers.push_back(resp.to_string()); });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sock->send(Buffer::from_string("k" + std::to_string(i))).is_ok());
    ASSERT_TRUE(env.wait([&]() { return answers.size() == static_cast<std::size_t>(i + 1); },
                         30 * k_second));
  }
  EXPECT_EQ(answers, (std::vector<std::string>{"value:k0", "value:k1", "value:k2"}));

  // The tiers picked per-pair transports: web<->cache co-located -> shm,
  // the cross-host hops -> rdma.
  EXPECT_EQ(web_to_cache->transport(), orch::Transport::shm);
  EXPECT_EQ(lb_to_web->transport(), orch::Transport::rdma);
  EXPECT_EQ(sock->transport(), orch::Transport::rdma);
}

// -------------------------------------------------------------------- MPI

TEST_F(CoreFixture, MpiSendRecvAndCollectives) {
  Env env(2);
  std::vector<orch::ContainerPtr> cs;
  std::vector<ContainerNetPtr> nets;
  std::vector<tcp::Ipv4Addr> ips;
  for (int r = 0; r < 4; ++r) {
    cs.push_back(env.deploy("rank" + std::to_string(r), 1,
                            static_cast<fabric::HostId>(r % 2)));
    nets.push_back(env.freeflow().attach(cs.back()->id()).value());
    ips.push_back(cs.back()->ip());
  }
  std::vector<MpiEndpointPtr> eps;
  for (int r = 0; r < 4; ++r) {
    eps.push_back(std::make_shared<MpiEndpoint>(nets[static_cast<std::size_t>(r)], r, ips));
    ASSERT_TRUE(eps.back()->start().is_ok());
  }

  // Point-to-point with tag matching, including recv-before-send.
  Buffer got;
  eps[3]->recv(1, 7, [&](Buffer&& b) { got = std::move(b); });
  eps[1]->send(3, 7, Buffer::from_string("tagged"));
  EXPECT_TRUE(env.wait([&]() { return !got.empty(); }, 30 * k_second));
  EXPECT_EQ(got.to_string(), "tagged");

  // Barrier: all ranks pass together.
  int through = 0;
  for (auto& ep : eps) ep->barrier([&]() { ++through; });
  EXPECT_TRUE(env.wait([&]() { return through == 4; }, 30 * k_second));

  // Broadcast from rank 2.
  std::vector<Buffer> bcast(4);
  for (int r = 0; r < 4; ++r) {
    eps[static_cast<std::size_t>(r)]->broadcast(
        2, r == 2 ? Buffer::from_string("payload") : Buffer{},
        [&bcast, r](Buffer&& b) { bcast[static_cast<std::size_t>(r)] = std::move(b); });
  }
  EXPECT_TRUE(env.wait([&]() {
    return std::all_of(bcast.begin(), bcast.end(),
                       [](const Buffer& b) { return !b.empty(); });
  }, 30 * k_second));
  for (const auto& b : bcast) EXPECT_EQ(b.to_string(), "payload");

  // Allreduce: sum of per-rank vectors.
  std::vector<std::vector<double>> results(4);
  for (int r = 0; r < 4; ++r) {
    eps[static_cast<std::size_t>(r)]->allreduce_sum(
        {static_cast<double>(r), 1.0},
        [&results, r](std::vector<double> v) { results[static_cast<std::size_t>(r)] = std::move(v); });
  }
  EXPECT_TRUE(env.wait([&]() {
    return std::all_of(results.begin(), results.end(),
                       [](const auto& v) { return !v.empty(); });
  }, 30 * k_second));
  for (const auto& v : results) {
    ASSERT_EQ(v.size(), 2u);
    EXPECT_DOUBLE_EQ(v[0], 0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(v[1], 4.0);
  }

  // Gather to rank 1.
  std::vector<Buffer> gathered;
  bool gather_root_done = false;
  for (int r = 0; r < 4; ++r) {
    eps[static_cast<std::size_t>(r)]->gather(
        1, Buffer::from_string("rank" + std::to_string(r)),
        [&, r](std::vector<Buffer> parts) {
          if (r == 1) {
            gathered = std::move(parts);
            gather_root_done = true;
          }
        });
  }
  EXPECT_TRUE(env.wait([&]() { return gather_root_done; }, 30 * k_second));
  ASSERT_EQ(gathered.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(r)].to_string(),
              "rank" + std::to_string(r));
  }

  // Scatter from rank 0.
  std::vector<Buffer> scattered(4);
  int scatter_done = 0;
  for (int r = 0; r < 4; ++r) {
    std::vector<Buffer> parts;
    if (r == 0) {
      for (int i = 0; i < 4; ++i) parts.push_back(Buffer::from_string("part" + std::to_string(i)));
    }
    eps[static_cast<std::size_t>(r)]->scatter(
        0, std::move(parts), [&, r](Buffer&& mine) {
          scattered[static_cast<std::size_t>(r)] = std::move(mine);
          ++scatter_done;
        });
  }
  EXPECT_TRUE(env.wait([&]() { return scatter_done == 4; }, 30 * k_second));
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(scattered[static_cast<std::size_t>(r)].to_string(),
              "part" + std::to_string(r));
  }
}

}  // namespace
}  // namespace freeflow::core
