// per_stream_qp sockets (sockets over per-stream RDMA RC QPs, TSoR): a
// FlowSocket connected on the per_stream_qp path must deliver a byte-exact,
// in-order stream while its conduit splices between the overlay-TCP
// fallback and a per-stream RC QP — across the initial upgrade, forced
// mid-transfer failover, and re-upgrade. Also covers the control lane on
// an RC channel, the upgrade handshake's QP echo, close, and the
// first-message router's per-stream paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/freeflow.h"
#include "faults/fault_injector.h"
#include "sim_env.h"
#include "stream/rc_channel.h"
#include "stream/tcp_channel.h"

namespace freeflow::stream {
namespace {

using core::FlowSocketPtr;
using core::SockPath;
using core::VMsg;
using core::WireHeader;
using freeflow::testing::Env;

/// Deterministic byte pattern keyed by absolute stream offset (the
/// test_faults idiom): one check catches loss, duplication and reordering.
constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131 + 17) & 0xFF);
}

std::uint64_t upgrades(Env& env) {
  return env.cluster.telemetry().metrics().counter_value("stream/upgrades");
}

std::uint64_t fallbacks(Env& env) {
  return env.cluster.telemetry().metrics().counter_value("stream/fallbacks");
}

struct Pair {
  orch::ContainerPtr a, b;
  core::ContainerNetPtr net_a, net_b;
};

Pair attach_pair(Env& env, fabric::HostId ha, fabric::HostId hb,
                 orch::TenantId tenant_b = 1) {
  Pair p;
  p.a = env.deploy("a", 1, ha);
  p.b = env.deploy("b", tenant_b, hb);
  auto& ff = env.freeflow();
  auto na = ff.attach(p.a->id());
  auto nb = ff.attach(p.b->id());
  EXPECT_TRUE(na.is_ok());
  EXPECT_TRUE(nb.is_ok());
  p.net_a = *na;
  p.net_b = *nb;
  return p;
}

/// A pattern-checked one-way transfer over a per_stream_qp socket, paced on
/// writability alone (on_space fires after every splice). The receiver
/// splits its bytes by the transport each chunk arrived on.
struct Xfer {
  FlowSocketPtr client, server;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t verified = 0;
  std::uint64_t server_rdma = 0;
  std::uint64_t server_tcp = 0;
  bool corrupt = false;
  std::shared_ptr<std::function<void()>> pump;

  [[nodiscard]] bool done() const { return !corrupt && verified >= target; }
};

std::shared_ptr<Xfer> start_xfer(Env& env, Pair& p, std::uint16_t port,
                                 std::uint64_t target) {
  auto st = std::make_shared<Xfer>();
  st->target = target;

  EXPECT_TRUE(p.net_b->sock_listen(port, [st](FlowSocketPtr s) {
    st->server = s;
    s->set_on_data([st, raw = s.get()](Buffer&& b) {
      const auto* bytes = b.data();
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(st->verified + i)) {
          st->corrupt = true;
          return;
        }
      }
      st->verified += b.size();
      // The channel attached now is the one that just delivered the chunk.
      (raw->transport() == orch::Transport::rdma ? st->server_rdma : st->server_tcp) +=
          b.size();
    });
  }).is_ok());
  p.net_a->sock_connect(
      p.b->ip(), port,
      [st](Result<FlowSocketPtr> s) {
        ASSERT_TRUE(s.is_ok()) << s.status();
        st->client = *s;
      },
      SockPath::per_stream_qp);
  EXPECT_TRUE(env.wait([&]() { return st->client != nullptr && st->server != nullptr; }));

  st->pump = std::make_shared<std::function<void()>>();
  std::weak_ptr<Xfer> w = st;
  *st->pump = [w]() {
    auto xfer = w.lock();
    if (xfer == nullptr) return;
    while (xfer->sent < xfer->target && xfer->client->writable()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(64 * 1024, xfer->target - xfer->sent));
      Buffer msg(n);
      auto* out = msg.data();
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::byte>(pattern_byte(xfer->sent + i));
      }
      ASSERT_TRUE(xfer->client->send(std::move(msg)).is_ok());
      xfer->sent += n;
    }
  };
  st->client->set_on_space([pump = st->pump]() { (*pump)(); });
  (*st->pump)();
  return st;
}

Buffer pattern_chunk(std::uint64_t offset, std::size_t n) {
  Buffer msg(n);
  for (std::size_t i = 0; i < n; ++i) {
    msg.data()[i] = static_cast<std::byte>(pattern_byte(offset + i));
  }
  return msg;
}

// ------------------------------------------------------------- acceptance

// The stream starts on the fallback, upgrades to a per-stream RC QP, and an
// echo round-trip is byte-exact; nearly all payload bytes ride RDMA.
TEST(StreamAdapter, UpgradesToRdmaAndEchoesByteExact) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);

  FlowSocketPtr server;
  std::uint64_t echoed = 0;
  ASSERT_TRUE(p.net_b->sock_listen(9000, [&](FlowSocketPtr s) {
    server = s;
    s->set_on_data([&, raw = s.get()](Buffer&& b) {
      echoed += b.size();
      ASSERT_TRUE(raw->send(std::move(b)).is_ok());
    });
  }).is_ok());

  FlowSocketPtr client;
  std::uint64_t back = 0;
  std::uint64_t back_rdma = 0;
  bool corrupt = false;
  p.net_a->sock_connect(
      p.b->ip(), 9000,
      [&](Result<FlowSocketPtr> s) {
        ASSERT_TRUE(s.is_ok()) << s.status();
        client = *s;
        client->set_on_data([&](Buffer&& b) {
          const auto* bytes = b.data();
          for (std::size_t i = 0; i < b.size(); ++i) {
            if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(back + i)) corrupt = true;
          }
          back += b.size();
          if (client->transport() == orch::Transport::rdma) back_rdma += b.size();
        });
      },
      SockPath::per_stream_qp);
  ASSERT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));

  // The upgrade is transparent; it must land without any traffic flowing.
  ASSERT_TRUE(env.wait([&]() { return client->transport() == orch::Transport::rdma &&
                                       server->transport() == orch::Transport::rdma; }));
  EXPECT_EQ(upgrades(env), 1u);

  const std::uint64_t total = 4ull * 1024 * 1024;
  std::uint64_t sent = 0;
  while (sent < total) {
    const auto n = std::min<std::uint64_t>(64 * 1024, total - sent);
    ASSERT_TRUE(client->send(pattern_chunk(sent, n)).is_ok());
    sent += n;
    env.wait([&]() { return client->writable(); });
  }
  ASSERT_TRUE(env.wait([&]() { return back >= total; }))
      << "echoed " << echoed << " back " << back;
  EXPECT_FALSE(corrupt);
  // The byte split proves the stream actually rode RDMA, not just claimed to.
  EXPECT_GT(back_rdma, back - back_rdma);
}

// Kill the NIC's RDMA engine mid-transfer: the stream must fail over to a
// fresh fallback connection with zero loss and in-order delivery.
TEST(StreamAdapter, KillRdmaMidTransferFailsOverByteExact) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9001, 32ull * 1024 * 1024);
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());

  ASSERT_TRUE(env.wait([&]() { return st->verified > 2 * 1024 * 1024 &&
                                       st->client->transport() == orch::Transport::rdma; }));

  injector.apply({env.loop().now(), faults::FaultKind::rdma_down, 1});
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  EXPECT_NE(st->client->transport(), orch::Transport::rdma);
  EXPECT_GE(fallbacks(env), 1u);
}

// Heal the engine after the failover: the stream re-upgrades mid-stream and
// the re-upgraded QP actually carries bytes.
TEST(StreamAdapter, ReupgradesMidStreamAfterRecovery) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9002, 16ull * 1024 * 1024);
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());

  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024 &&
                                       st->client->transport() == orch::Transport::rdma; }));

  injector.apply({env.loop().now(), faults::FaultKind::rdma_down, 1});
  ASSERT_TRUE(env.wait([&]() { return st->client->transport() != orch::Transport::rdma; },
                       60 * k_second));

  injector.apply({env.loop().now(), faults::FaultKind::rdma_up, 1});
  ASSERT_TRUE(env.wait([&]() { return st->client->transport() == orch::Transport::rdma; },
                       60 * k_second));
  EXPECT_GE(upgrades(env), 2u);  // initial + re-upgrade

  const std::uint64_t rdma_before = st->server_rdma;
  st->target += 4ull * 1024 * 1024;
  (*st->pump)();
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target;
  EXPECT_FALSE(st->corrupt);
  EXPECT_GT(st->server_rdma, rdma_before);
}

// Several streams between the same pair, pumping both directions at once:
// per-stream QPs must not cross bytes, and every stream stays byte-exact.
TEST(StreamAdapter, ConcurrentBidirectionalStreams) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);

  constexpr int k_streams = 3;
  constexpr std::uint64_t k_bytes = 4ull * 1024 * 1024;
  std::vector<std::shared_ptr<Xfer>> forward;
  forward.reserve(k_streams);
  for (int i = 0; i < k_streams; ++i) {
    forward.push_back(start_xfer(env, p, static_cast<std::uint16_t>(9100 + i), k_bytes));
  }
  // Reverse direction: b connects back to a over the same trunk pair.
  Pair reversed{p.b, p.a, p.net_b, p.net_a};
  auto backward = start_xfer(env, reversed, 9200, k_bytes);

  ASSERT_TRUE(env.wait(
      [&]() {
        if (!backward->done()) return false;
        for (auto& st : forward) {
          if (!st->done()) return false;
        }
        return true;
      },
      120 * k_second));
  for (auto& st : forward) {
    EXPECT_FALSE(st->corrupt);
    EXPECT_EQ(st->verified, k_bytes);
    EXPECT_EQ(st->client->transport(), orch::Transport::rdma);
  }
  EXPECT_FALSE(backward->corrupt);
  EXPECT_EQ(p.net_a->conduit_count(), static_cast<std::size_t>(k_streams + 1));
}

// Untrusted (cross-tenant) pair: the selector answers tcp_overlay, so the
// stream simply never upgrades — it still works, end to end.
TEST(StreamAdapter, UntrustedPairStaysOnFallback) {
  Env env(2);
  auto p = attach_pair(env, 0, 1, /*tenant_b=*/2);
  auto st = start_xfer(env, p, 9300, 4ull * 1024 * 1024);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second));
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->client->transport(), orch::Transport::tcp_overlay);
  EXPECT_EQ(upgrades(env), 0u);
  EXPECT_EQ(st->server_rdma, 0u);
}

// close() on a per_stream_qp socket with data still queued behind the RC
// credits: the bye overtakes that data on the control lane, yet the peer
// reads every byte and the sock_fin before its side closes, and the closer
// sees the handshake complete.
TEST(StreamAdapter, CloseDeliversQueuedDataAndFinBeforeTeardown) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9350, 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->done() &&
                                       st->client->transport() == orch::Transport::rdma; }));

  std::optional<core::CloseReason> server_closed, client_closed;
  std::uint64_t verified_at_close = 0;
  st->server->set_on_close([&](core::CloseReason r) {
    server_closed = r;
    verified_at_close = st->verified;
  });
  st->client->set_on_close([&](core::CloseReason r) { client_closed = r; });
  // More chunks than the QP has credits, sent at once: most of them queue.
  constexpr int k_burst = 3 * static_cast<int>(RcStreamChannel::k_slots);
  for (int i = 0; i < k_burst; ++i) {
    ASSERT_TRUE(st->client->send(pattern_chunk(st->sent, 64 * 1024)).is_ok());
    st->sent += 64 * 1024;
  }
  st->target = st->sent;
  st->client->close();

  ASSERT_TRUE(env.wait([&]() { return server_closed && client_closed; }));
  EXPECT_EQ(*server_closed, core::CloseReason::peer_bye);
  EXPECT_EQ(*client_closed, core::CloseReason::app_close);
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(verified_at_close, st->target);
  EXPECT_FALSE(st->server->is_open());
  EXPECT_EQ(p.net_a->conduit_count(), 0u);
  EXPECT_EQ(p.net_b->conduit_count(), 0u);
}

// ----------------------------------------------------------- control lane

// An unsequenced message (here the conduit's ack) sent on an RC stream
// channel with zero data credits and data queued behind them skips the
// credits and arrives ahead of that data, which itself stays in order.
TEST(RcStreamChannel, UnsequencedAckOvertakesDataQueuedAtZeroCredits) {
  Env env(2);
  rdma::RdmaDevice dev_a(env.cluster.host(0));
  rdma::RdmaDevice dev_b(env.cluster.host(1));
  auto tx = RcStreamChannel::make(dev_a, nullptr);
  auto rx = RcStreamChannel::make(dev_b, nullptr);
  ASSERT_TRUE(tx->connect(1, rx->qp_num()).is_ok());
  ASSERT_TRUE(rx->connect(0, tx->qp_num()).is_ok());
  std::vector<WireHeader> got;
  rx->set_on_message([&](Buffer&& m) { got.push_back(WireHeader::decode(m.data())); });

  const Buffer chunk(1024);
  WireHeader data;
  data.type = VMsg::sock_data;
  const std::uint64_t k_data = RcStreamChannel::k_slots + 4;
  for (std::uint64_t seq = 1; seq <= k_data; ++seq) {
    data.seq = seq;
    ASSERT_TRUE(tx->send(core::encode_header(data, chunk.size()), chunk.view()).is_ok());
  }
  ASSERT_EQ(tx->credits(), 0u);
  ASSERT_FALSE(tx->writable());
  WireHeader ack;
  ack.type = VMsg::ack;
  ack.id = 7;
  ASSERT_TRUE(tx->send(core::encode_header(ack)).is_ok());

  ASSERT_TRUE(env.wait([&]() { return got.size() == k_data + 1; }));
  const auto ack_at = std::find_if(got.begin(), got.end(),
                                   [](const WireHeader& h) { return h.type == VMsg::ack; });
  ASSERT_NE(ack_at, got.end());
  const auto first_queued = std::find_if(got.begin(), got.end(), [](const WireHeader& h) {
    return h.seq == RcStreamChannel::k_slots + 1;
  });
  EXPECT_LT(ack_at - got.begin(), first_queued - got.begin());
  std::uint64_t expect = 1;
  for (const auto& h : got) {
    if (h.seq != 0) {
      EXPECT_EQ(h.seq, expect++);
    }
  }
  EXPECT_EQ(expect, k_data + 1);
  tx->close();
  rx->close();
}

// The test plays the passive side of a per_stream_qp connection by hand:
// after a fallback reconnect the initiator has offered a second QP, and an
// rc_answer echoing the first (superseded) offer must not splice anything.
// The answer to the current offer then upgrades, rebind first.
TEST(StreamAdapter, AnswerEchoingSupersededOfferIsIgnored) {
  Env env(2);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);  // no library: the test speaks for b
  auto& ff = env.freeflow();
  auto net_a = ff.attach(a->id()).value();

  std::vector<WireHeader> got;      // everything the initiator sent us
  std::vector<WireHeader> on_qp;    // what arrived on our answered QP
  std::vector<TcpFallbackChannelPtr> conns;
  ASSERT_TRUE(ff.fallback_net().listen({b->ip(), 9500}, [&](tcp::TcpConnection::Ptr c) {
    auto ch = TcpFallbackChannel::make(std::move(c));
    ch->set_on_message([&](Buffer&& m) { got.push_back(WireHeader::decode(m.data())); });
    conns.push_back(ch);
  }).is_ok());
  auto find = [&](VMsg type, std::size_t nth) -> const WireHeader* {
    for (const auto& h : got) {
      if (h.type == type && nth-- == 0) return &h;
    }
    return nullptr;
  };

  FlowSocketPtr client;
  net_a->sock_connect(
      b->ip(), 9500,
      [&](Result<FlowSocketPtr> s) {
        ASSERT_TRUE(s.is_ok()) << s.status();
        client = *s;
      },
      SockPath::per_stream_qp);
  ASSERT_TRUE(env.wait([&]() { return find(VMsg::sock_connect, 0) != nullptr; }));
  const std::uint64_t token = find(VMsg::sock_connect, 0)->token;
  WireHeader accept;
  accept.type = VMsg::sock_accept;
  accept.token = token;
  accept.seq = 1;
  ASSERT_TRUE(conns[0]->send(core::encode_header(accept)).is_ok());

  ASSERT_TRUE(env.wait([&]() { return find(VMsg::rc_offer, 0) != nullptr; }));
  const WireHeader offer1 = *find(VMsg::rc_offer, 0);
  // Break the fallback: the initiator re-dials, rebinds and offers afresh.
  conns[0]->close();
  ASSERT_TRUE(env.wait([&]() { return find(VMsg::rc_offer, 1) != nullptr; }));
  ASSERT_EQ(conns.size(), 2u);
  EXPECT_NE(find(VMsg::rebind, 0), nullptr);
  const WireHeader offer2 = *find(VMsg::rc_offer, 1);
  ASSERT_NE(offer1.id, offer2.id);

  auto& dev_b = ff.agents().agent_on(1).rdma_device();
  auto answer_with = [&](std::uint64_t offer_qp) {
    auto qp = RcStreamChannel::make(dev_b, nullptr);
    EXPECT_TRUE(qp->connect(0, static_cast<rdma::QpNum>(offer_qp)).is_ok());
    qp->set_on_message([&](Buffer&& m) { on_qp.push_back(WireHeader::decode(m.data())); });
    WireHeader answer;
    answer.type = VMsg::rc_answer;
    answer.token = token;
    answer.id = qp->qp_num();
    answer.offset = 1;
    answer.mr = static_cast<std::uint32_t>(offer_qp);
    EXPECT_TRUE(conns[1]->send(core::encode_header(answer)).is_ok());
    return qp;
  };

  auto stale = answer_with(offer1.id);
  env.loop().run_until(env.loop().now() + 2 * k_millisecond);
  EXPECT_EQ(client->transport(), orch::Transport::tcp_overlay);
  EXPECT_EQ(upgrades(env), 0u);
  EXPECT_TRUE(on_qp.empty());

  auto fresh = answer_with(offer2.id);
  ASSERT_TRUE(env.wait([&]() { return client->transport() == orch::Transport::rdma &&
                                       !on_qp.empty(); }));
  EXPECT_EQ(on_qp[0].type, VMsg::rebind);
  EXPECT_EQ(on_qp[0].token, token);
  EXPECT_EQ(upgrades(env), 1u);
  stale->close();
  fresh->close();
}

// ------------------------------------------------------ first-message router

// A channel whose first message is a bye (the peer tore its conduit down
// before it was routed) is acknowledged and dropped, over either carrier.
TEST(StreamRouter, ByeAsFirstMessageOverAgentIsAcked) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  agent::ChannelPtr ch;
  env.freeflow().agents().agent_on(0).establish(
      p.a->id(), p.b->id(), orch::Transport::rdma, [&](Result<agent::ChannelPtr> r) {
        ASSERT_TRUE(r.is_ok()) << r.status();
        ch = *r;
      });
  ASSERT_TRUE(env.wait([&]() { return ch != nullptr; }));
  std::vector<WireHeader> got;
  ch->set_on_message([&](Buffer&& m) { got.push_back(WireHeader::decode(m.data())); });
  WireHeader bye;
  bye.type = VMsg::bye;
  bye.token = 4242;
  ASSERT_TRUE(ch->send(core::encode_header(bye)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return !got.empty(); }));
  EXPECT_EQ(got[0].type, VMsg::bye_ack);
  EXPECT_EQ(got[0].token, 4242u);
  EXPECT_EQ(p.net_b->conduit_count(), 0u);
  ch->close();
}

/// Dials the fallback listener of `p.b` on `port` from `p.a`'s IP, retrying
/// while the overlay routes of the fresh containers converge.
TcpFallbackChannelPtr dial_fallback(Env& env, Pair& p, std::uint16_t port) {
  TcpFallbackChannelPtr ch;
  for (int attempt = 0; ch == nullptr && attempt < 20; ++attempt) {
    bool answered = false;
    env.freeflow().fallback_net().connect(
        {p.a->ip(), 0}, {p.b->ip(), port}, [&](Result<tcp::TcpConnection::Ptr> r) {
          answered = true;
          if (r.is_ok()) ch = TcpFallbackChannel::make(std::move(r.value()));
        });
    EXPECT_TRUE(env.wait([&]() { return answered; }));
    if (ch == nullptr) env.loop().run_until(env.loop().now() + k_millisecond);
  }
  return ch;
}

TEST(StreamRouter, ByeAsFirstMessageOverFallbackTcpIsAcked) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  ASSERT_TRUE(p.net_b->sock_listen(9600, [](FlowSocketPtr) { FAIL(); }).is_ok());
  auto ch = dial_fallback(env, p, 9600);
  ASSERT_NE(ch, nullptr);
  std::vector<WireHeader> got;
  ch->set_on_message([&](Buffer&& m) { got.push_back(WireHeader::decode(m.data())); });
  WireHeader bye;
  bye.type = VMsg::bye;
  bye.token = 4343;
  ASSERT_TRUE(ch->send(core::encode_header(bye)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return !got.empty(); }));
  EXPECT_EQ(got[0].type, VMsg::bye_ack);
  EXPECT_EQ(got[0].token, 4343u);
  EXPECT_EQ(p.net_b->conduit_count(), 0u);
  ch->close();
}

// A rebind naming no conduit the receiver knows is refused: the channel is
// closed under the sender, and nothing is set up.
TEST(StreamRouter, RebindForUnknownTokenIsRefused) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  ASSERT_TRUE(p.net_b->sock_listen(9601, [](FlowSocketPtr) { FAIL(); }).is_ok());
  auto ch = dial_fallback(env, p, 9601);
  ASSERT_NE(ch, nullptr);
  bool refused = false;
  ch->set_on_failed([&]() { refused = true; });
  WireHeader rebind;
  rebind.type = VMsg::rebind;
  rebind.token = 999;
  ASSERT_TRUE(ch->send(core::encode_header(rebind)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return refused; }));
  EXPECT_EQ(p.net_b->conduit_count(), 0u);
  ch->close();
}

// --------------------------------------------------------- determinism

struct StreamRun {
  std::string transitions;
  std::uint64_t verified = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t fallbacks = 0;
  bool corrupt = false;
};

StreamRun run_scripted(std::uint64_t seed) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9400, 16ull * 1024 * 1024);
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());
  faults::FaultPlan plan = faults::FaultPlan::random(seed, 2, 20 * k_millisecond, 2);
  plan.rdma_outage(1, 2 * k_millisecond, 10 * k_millisecond);
  injector.arm(plan);

  StreamRun run;
  orch::Transport last = st->client->transport();
  run.transitions += std::string(orch::transport_name(last)) + "\n";
  env.wait(
      [&]() {
        const orch::Transport t = st->client->transport();
        if (t != last) {
          last = t;
          run.transitions += "t=" + std::to_string(env.loop().now()) + " " +
                             std::string(orch::transport_name(t)) + "\n";
        }
        return st->done() && injector.faults_applied() >= plan.size();
      },
      200 * k_millisecond);
  run.verified = st->verified;
  run.upgrades = upgrades(env);
  run.fallbacks = fallbacks(env);
  run.corrupt = st->corrupt;
  return run;
}

// Same seed => identical splice timeline, identical bytes. Stream failures
// under chaos stay replayable, like the conduit-level chaos matrix.
TEST(StreamDeterminism, SameSeedIsByteIdentical) {
  const StreamRun first = run_scripted(1337);
  const StreamRun second = run_scripted(1337);
  EXPECT_EQ(first.transitions, second.transitions);
  EXPECT_EQ(first.verified, second.verified);
  EXPECT_EQ(first.upgrades, second.upgrades);
  EXPECT_EQ(first.fallbacks, second.fallbacks);
  EXPECT_FALSE(first.corrupt);
  EXPECT_FALSE(second.corrupt);
}

}  // namespace
}  // namespace freeflow::stream
