// Connection-preserving live migration acceptance: the MigrationCoordinator
// must move a container with live connections — quiesce, capture, transfer,
// resume — with zero lost or reordered bytes, byte-exact payloads, and a
// bounded blackout; including while racing reactive failover, after a
// quiesce-deadline expiry, deterministically under a fixed seed, and when
// proactive triggers (degraded NIC, severed path) initiate the move.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/freeflow.h"
#include "faults/fault_injector.h"
#include "migration/migration.h"
#include "sim_env.h"

namespace freeflow::migration {
namespace {

using freeflow::testing::Env;

/// Deterministic byte pattern keyed by absolute stream offset (the
/// test_faults idiom): one check catches loss, duplication and reordering.
constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131 + 17) & 0xFF);
}

orch::Transport transport_of(const core::ContainerNetPtr& net) {
  auto conns = net->connections();
  return conns.empty() ? orch::Transport::tcp_overlay : conns[0].transport;
}

struct Pair {
  orch::ContainerPtr a, b;
  core::ContainerNetPtr net_a, net_b;
};

Pair attach_pair(Env& env, fabric::HostId ha, fabric::HostId hb) {
  Pair p;
  p.a = env.deploy("a", 1, ha);
  p.b = env.deploy("b", 1, hb);
  auto& ff = env.freeflow();
  auto na = ff.attach(p.a->id());
  auto nb = ff.attach(p.b->id());
  EXPECT_TRUE(na.is_ok());
  EXPECT_TRUE(nb.is_ok());
  p.net_a = *na;
  p.net_b = *nb;
  return p;
}

/// Pattern-checked one-way FlowSocket transfer, paced on writability alone
/// (on_space fires on the resume after a move too). Also keeps an
/// order-sensitive FNV-1a hash of the received bytes for the determinism
/// test.
struct Stream {
  core::FlowSocketPtr client, server;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t verified = 0;
  std::uint64_t rx_hash = 1469598103934665603ull;
  bool corrupt = false;
  std::shared_ptr<std::function<void()>> pump;

  [[nodiscard]] bool done() const { return !corrupt && verified >= target; }
};

std::uint64_t upgrades(Env& env) {
  return env.cluster.telemetry().metrics().counter_value("stream/upgrades");
}

std::shared_ptr<Stream> start_stream(Env& env, Pair& p, std::uint16_t port,
                                     std::uint64_t target,
                                     core::SockPath path = core::SockPath::relayed) {
  auto st = std::make_shared<Stream>();
  st->target = target;

  EXPECT_TRUE(p.net_b->sock_listen(port, [st](core::FlowSocketPtr s) {
    st->server = s;
    s->set_on_data([st](Buffer&& b) {
      const auto* bytes = b.data();
      for (std::size_t i = 0; i < b.size(); ++i) {
        const auto got = static_cast<std::uint8_t>(bytes[i]);
        if (got != pattern_byte(st->verified + i)) {
          st->corrupt = true;
          return;
        }
        st->rx_hash = (st->rx_hash ^ got) * 1099511628211ull;
      }
      st->verified += b.size();
    });
  }).is_ok());
  p.net_a->sock_connect(
      p.b->ip(), port,
      [st](Result<core::FlowSocketPtr> s) {
        ASSERT_TRUE(s.is_ok()) << s.status();
        st->client = *s;
      },
      path);
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

// A planned migration under a live 32 MB transfer: zero loss, byte-exact,
// drained within the quiesce deadline, blackout far under the reactive
// stop-and-copy default, and the move surfaced through ConnectionInfo on
// both endpoints.
TEST(Migration, PlannedMigrationZeroLossByteExact) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7000, 32ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 4 * 1024 * 1024; }));

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }));
  EXPECT_EQ(report->src_host, 1u);
  EXPECT_EQ(report->dst_host, 2u);
  EXPECT_EQ(report->conduits_moved, 1u);
  EXPECT_TRUE(report->drained);
  EXPECT_GT(report->image_bytes, 0u);
  EXPECT_LT(report->blackout_ns, 10 * k_millisecond);
  EXPECT_EQ(p.b->host(), 2u);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);

  for (const auto* net : {&p.net_a, &p.net_b}) {
    auto conns = (*net)->connections();
    ASSERT_EQ(conns.size(), 1u);
    EXPECT_EQ(conns[0].migrations_completed, 1u);
    EXPECT_EQ(conns[0].last_migration_reason, core::MigrationReason::planned);
    EXPECT_EQ(conns[0].last_blackout_ns, static_cast<SimDuration>(report->blackout_ns));
  }
}

// The per_stream_qp (sockets-over-RDMA) path: the server container moves
// mid-transfer while the stream rides a per-stream RC QP; the splice back
// onto a fresh fallback, the replay, and the re-upgrade at the new
// placement must all be transparent.
TEST(Migration, StreamAdapterSurvivesPlannedMigration) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7100, 16ull * 1024 * 1024, core::SockPath::per_stream_qp);

  // Let the stream upgrade onto RDMA before moving it.
  ASSERT_TRUE(env.wait([&]() { return upgrades(env) >= 1 && st->verified > 1024 * 1024; }));

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }));
  EXPECT_EQ(report->conduits_moved, 1u);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  // The stream re-upgrades onto a per-stream RC QP at the new placement.
  ASSERT_TRUE(env.wait([&]() { return upgrades(env) >= 2; }, 20 * k_second));
}

// Twenty planned moves back and forth under two live sockets at once, one
// on each connection path: every byte of both streams verifies, and every
// move drains its retained windows before the quiesce deadline (no
// handshake state may outlive the channel it rode and wedge the drain).
TEST(Migration, TwentyMovePingPongDrainsBothPaths) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  constexpr std::uint64_t k_unbounded = ~0ull;
  auto relayed = start_stream(env, p, 7200, k_unbounded);
  auto qp = start_stream(env, p, 7201, k_unbounded, core::SockPath::per_stream_qp);
  ASSERT_TRUE(env.wait([&]() { return upgrades(env) >= 1 && qp->verified > 0; }));

  for (int move = 1; move <= 20; ++move) {
    const fabric::HostId dst = p.b->host() == 1 ? 2 : 1;
    std::optional<MigrationReport> report;
    coord.migrate(p.b->id(), dst, [&](Result<MigrationReport> r) {
      ASSERT_TRUE(r.is_ok()) << r.status();
      report = *r;
    });
    ASSERT_TRUE(env.wait([&]() { return report.has_value(); })) << "move " << move;
    EXPECT_TRUE(report->drained) << "move " << move << " hit the quiesce deadline";
    EXPECT_EQ(report->conduits_moved, 2u);
    // Both streams deliver fresh bytes at the new placement.
    const std::uint64_t relayed_at = relayed->verified;
    const std::uint64_t qp_at = qp->verified;
    ASSERT_TRUE(env.wait([&]() {
      return relayed->verified > relayed_at && qp->verified > qp_at;
    })) << "move " << move << " did not resume both streams";
  }
  EXPECT_EQ(coord.quiesce_timeouts(), 0u);

  // Stop both pumps and account for every byte sent.
  relayed->target = relayed->sent;
  qp->target = qp->sent;
  ASSERT_TRUE(env.wait([&]() { return relayed->done() && qp->done(); }, 30 * k_second))
      << "relayed " << relayed->verified << "/" << relayed->target << ", per_stream_qp "
      << qp->verified << "/" << qp->target;
  EXPECT_FALSE(relayed->corrupt);
  EXPECT_FALSE(qp->corrupt);
}

// Planned migration racing a concurrent NIC-death failover on the PEER's
// host: the coordinator owns the moving side while the reactive machinery
// wants to rebind the same conduits — the move completes and not a byte is
// lost or reordered.
TEST(Migration, MigrationRacingNicDeathFailover) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());
  auto st = start_stream(env, p, 7001, 32ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 4 * 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::rdma);

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  // The RDMA engine under the peer's half of the connection dies while the
  // quiesce drain is in flight.
  injector.apply({env.loop().now(), faults::FaultKind::rdma_down, 0});

  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  EXPECT_EQ(p.b->host(), 2u);
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 120 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  // The resumed conduit rides a non-RDMA transport: host 0's engine is dead.
  EXPECT_NE(transport_of(p.net_a), orch::Transport::rdma);
}

// A quiesce deadline too short to drain the retained window (set through
// the cost model): the undrained tail moves with its conduit, replays at the
// destination and the peer dedups — lossless, exactly like reactive
// failover, just flagged.
TEST(Migration, QuiesceDeadlineExpiryFallsBack) {
  sim::CostModel model;
  model.migration_quiesce_deadline_ns = 1;  // expires before any ack can land
  Env env(3, model);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7002, 32ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 4 * 1024 * 1024; }));

  // Migrate the SENDER: its retained window is busy mid-transfer, so the
  // 1 ns deadline cannot drain it.
  std::optional<MigrationReport> report;
  coord.migrate(p.a->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  EXPECT_FALSE(report->drained);
  EXPECT_GE(coord.quiesce_timeouts(), 1u);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
}

// Sends made while the sender's container is in flight — after capture took
// its conduit off the wire, before resume — queue behind the state that
// moves with it, visibly (ConnectionInfo::queued), already sequenced, and
// arrive once, in order and byte-exact after the resume.
TEST(Migration, SendsDuringMoveDeliverInOrder) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7007, 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->done(); }));

  std::optional<MigrationReport> report;
  coord.migrate(p.a->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  // Capture is the point where the sender's conduit goes off the wire.
  ASSERT_TRUE(env.wait([&]() { return !p.net_a->connections()[0].live; }));
  ASSERT_FALSE(report.has_value());

  // The app ignores writable(): three 64 KiB sends mid-move.
  constexpr std::size_t k_send = 64 * 1024;
  for (int i = 0; i < 3; ++i) {
    Buffer msg(k_send);
    auto* out = msg.data();
    for (std::size_t j = 0; j < k_send; ++j) {
      out[j] = static_cast<std::byte>(pattern_byte(st->sent + j));
    }
    ASSERT_TRUE(st->client->send(std::move(msg)).is_ok());
    st->sent += k_send;
  }
  st->target = st->sent;
  const auto mid_move = p.net_a->connections()[0];
  EXPECT_FALSE(mid_move.live);
  EXPECT_GT(mid_move.queued, 0u);

  ASSERT_TRUE(env.wait([&]() { return report.has_value() && st->done(); }))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_EQ(p.a->host(), 2u);
  // Once: nothing more arrives after the stream completes.
  env.wait([]() { return false; }, 10 * k_millisecond);
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  EXPECT_EQ(st->server->bytes_received(), st->target);
}

// Two identical seeded runs of a migration under load produce byte-identical
// outcomes: same receive-order hash, same blackout, same image size.
TEST(Migration, SeededDeterminismByteIdentical) {
  struct Outcome {
    std::uint64_t rx_hash;
    std::uint64_t verified;
    SimDuration blackout;
    std::size_t image_bytes;
  };
  auto run = []() -> Outcome {
    Env env(3);
    auto p = attach_pair(env, 0, 1);
    MigrationCoordinator coord(env.freeflow());
    auto st = start_stream(env, p, 7003, 8ull * 1024 * 1024);
    EXPECT_TRUE(env.wait([&]() { return st->verified > 2 * 1024 * 1024; }));
    std::optional<MigrationReport> report;
    coord.migrate(p.b->id(), 2, [&](Result<MigrationReport> r) {
      EXPECT_TRUE(r.is_ok()) << r.status();
      report = *r;
    });
    EXPECT_TRUE(env.wait([&]() { return report.has_value() && st->done(); },
                         60 * k_second));
    return {st->rx_hash, st->verified, report->blackout_ns, report->image_bytes};
  };
  const Outcome first = run();
  const Outcome second = run();
  EXPECT_EQ(first.rx_hash, second.rx_hash);
  EXPECT_EQ(first.verified, second.verified);
  EXPECT_EQ(first.blackout, second.blackout);
  EXPECT_EQ(first.image_bytes, second.image_bytes);
}

// Migrating the server back onto the client's host re-decides the resumed
// conduit onto shared memory — the paper's intra-host fast path — and the
// stream keeps flowing over it.
TEST(Migration, MigrateBackToColocatedPicksShm) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7004, 16ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 2 * 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::rdma);

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 0, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }));
  EXPECT_EQ(p.b->host(), 0u);
  ASSERT_TRUE(env.wait([&]() { return transport_of(p.net_a) == orch::Transport::shm; }));

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
}

// A planned move of either end of a co-located pair under load: when the
// quiesce starts, the shm lane toward the receiver holds megabytes that no
// retained window covers. The quiesce takes them back into the sender's
// conduit, ahead of its queue, so they count in the image when the sender
// moves and replay over the new channel: the stream completes byte-exact
// and the report's `drained` is true.
TEST(Migration, PlannedMoveOffLoadedShmIsLossless) {
  for (const bool receiver_moves : {true, false}) {
    SCOPED_TRACE(receiver_moves ? "receiver moves" : "sender moves");
    Env env(2);
    auto p = attach_pair(env, 0, 0);
    MigrationCoordinator coord(env.freeflow());
    auto st = start_stream(env, p, 7008, 64ull * 1024 * 1024);
    ASSERT_TRUE(env.wait([&]() { return st->verified > 8 * 1024 * 1024; }));
    ASSERT_EQ(transport_of(p.net_a), orch::Transport::shm);

    const orch::ContainerPtr& moving = receiver_moves ? p.b : p.a;
    std::optional<MigrationReport> report;
    coord.migrate(moving->id(), 1, [&](Result<MigrationReport> r) {
      ASSERT_TRUE(r.is_ok()) << r.status();
      report = *r;
    });
    ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
    EXPECT_TRUE(report->drained);
    EXPECT_EQ(report->detached, 0u);
    EXPECT_EQ(moving->host(), 1u);
    // The sender's image carries the lane it took back.
    if (!receiver_moves) {
      EXPECT_GE(report->image_bytes, 4u * 1024 * 1024);
    }

    ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
        << "verified " << st->verified << "/" << st->target
        << (st->corrupt ? " CORRUPT" : "");
    EXPECT_FALSE(st->corrupt);
    EXPECT_EQ(st->verified, st->target);
  }
}

// The same loaded co-located pair, moved reactively (the orchestrator's
// stop-and-copy, no coordinator): the capture detaches both ends, and the
// sender's conduit takes back what its lane still holds, so the stream
// completes byte-exact over the new channel.
TEST(Migration, ReactiveMoveOffLoadedShmIsLossless) {
  for (const bool receiver_moves : {true, false}) {
    SCOPED_TRACE(receiver_moves ? "receiver moves" : "sender moves");
    Env env(2);
    auto p = attach_pair(env, 0, 0);
    auto st = start_stream(env, p, 7014, 64ull * 1024 * 1024);
    ASSERT_TRUE(env.wait([&]() { return st->verified > 8 * 1024 * 1024; }));
    ASSERT_EQ(transport_of(p.net_a), orch::Transport::shm);

    const orch::ContainerPtr& moving = receiver_moves ? p.b : p.a;
    ASSERT_TRUE(env.cluster_orch->migrate(moving->id(), 1).is_ok());
    ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
        << "verified " << st->verified << "/" << st->target
        << (st->corrupt ? " CORRUPT" : "");
    EXPECT_EQ(moving->host(), 1u);
    EXPECT_FALSE(st->corrupt);
    EXPECT_EQ(st->verified, st->target);
  }
}

// A reactive move of the peer on the very tick a planned move of a loaded
// shm pair starts its quiesce: the reactive capture closes the channel the
// quiesce paused on. The planned move still reports, drained, and the
// stream completes byte-exact.
TEST(Migration, ReactivePeerMoveDuringPlannedQuiesceFinishes) {
  Env env(2);
  auto p = attach_pair(env, 0, 0);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7015, 64ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 8 * 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::shm);

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 1, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.cluster_orch->migrate(p.a->id(), 1).is_ok());
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  EXPECT_TRUE(report->drained);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
}

// A resume that cannot re-attach — the destination's link is dark through
// the move — ends at the coordinator's 100 ms bound and reports the
// conduits it left detached. Once the link heals, the ordinary health path
// re-attaches them and the stream completes.
TEST(Migration, ResumeBoundReportsDetachedConduits) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());
  auto st = start_stream(env, p, 7009, 8ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024; }));

  injector.apply({env.loop().now(), faults::FaultKind::nic_link_down, 2});
  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  EXPECT_EQ(p.b->host(), 2u);
  EXPECT_EQ(report->detached, 2u);
  EXPECT_GE(report->blackout_ns, 100 * k_millisecond);
  ASSERT_EQ(p.net_b->connections().size(), 1u);
  EXPECT_FALSE(p.net_b->connections()[0].live);

  injector.apply({env.loop().now(), faults::FaultKind::nic_link_up, 2});
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
}

// The peer container stops while its connection quiesces for a move: the
// stop closes both ends mid-quiesce, which completes their quiesces
// (nothing of a closed conduit is left to move), so the move finishes.
TEST(Migration, PeerStopDuringQuiesceStillFinishesMove) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7011, 32ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 4 * 1024 * 1024; }));

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 2, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  ASSERT_TRUE(env.cluster_orch->stop(p.a->id()).is_ok());
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  EXPECT_EQ(p.b->host(), 2u);
  EXPECT_EQ(report->conduits_moved, 1u);
  EXPECT_EQ(report->detached, 0u);
}

// A connection opened while a move quiesces is not one the coordinator
// quiesced, but it touches the moving container all the same: the capture
// every move takes detaches it, and the resume rebinds it at the new
// placement — here onto shm, next to its peer.
TEST(Migration, ConnectionOpenedDuringQuiesceFollowsTheMove) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  auto st = start_stream(env, p, 7012, 64ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 4 * 1024 * 1024; }));
  ASSERT_EQ(transport_of(p.net_a), orch::Transport::rdma);

  core::FlowSocketPtr late_client, late_server;
  Buffer late_rx;
  ASSERT_TRUE(p.net_b->sock_listen(7013, [&](core::FlowSocketPtr s) {
    late_server = s;
    s->set_on_data([&](Buffer&& b) { late_rx.append(b.view()); });
  }).is_ok());

  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 0, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  // The second socket connects while the first one's quiesce drains.
  const auto& trace = env.cluster.telemetry().tracer();
  std::size_t connected_at = 0;
  p.net_a->sock_connect(p.b->ip(), 7013, [&](Result<core::FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok()) << s.status();
    late_client = *s;
    connected_at = trace.size();
  });
  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  ASSERT_NE(late_client, nullptr);
  ASSERT_NE(late_server, nullptr);
  EXPECT_EQ(report->conduits_moved, 1u);
  EXPECT_EQ(p.b->host(), 0u);
  const auto& events = trace.events();
  const auto capture = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.cat == "migration" && e.name == "capture";
  });
  ASSERT_NE(capture, events.end());
  // Events recorded by the time the connect completed: capture is not
  // among them.
  EXPECT_LE(connected_at, static_cast<std::size_t>(capture - events.begin()))
      << "the second connect must complete before capture";

  // It followed the move: detached at capture, rebound onto shm.
  ASSERT_TRUE(env.wait([&]() { return late_client->transport() == orch::Transport::shm; }));
  EXPECT_GE(late_client->conduit()->rebinds(), 1u);
  constexpr std::size_t k_late = 64 * 1024;
  Buffer msg(k_late);
  for (std::size_t i = 0; i < k_late; ++i) {
    msg.data()[i] = static_cast<std::byte>(pattern_byte(i));
  }
  ASSERT_TRUE(late_client->send(msg).is_ok());
  ASSERT_TRUE(env.wait([&]() { return late_rx.size() >= k_late; }));
  EXPECT_EQ(late_rx, msg);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
}

// ------------------------------------------------------ proactive triggers

// A NIC degrading below the coordinator's threshold (link up, rate
// collapsed) proactively evacuates the host's containers to the healthiest
// least-loaded host — a planned move end to end, no operator involved.
TEST(Migration, ProactiveDegradeTrigger) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());
  auto st = start_stream(env, p, 7005, 16ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024; }));

  injector.apply({env.loop().now(), faults::FaultKind::nic_degrade, 1, 0.25});
  // Host 2 is empty and healthy: the coordinator moves b there on its own.
  ASSERT_TRUE(env.wait([&]() { return p.b->host() == 2; }, 30 * k_second));
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);

  ASSERT_TRUE(env.wait([&]() {
    auto conns = p.net_b->connections();
    return !conns.empty() && conns[0].migrations_completed >= 1;
  }));
  EXPECT_EQ(p.net_b->connections()[0].last_migration_reason,
            core::MigrationReason::degraded_nic);
  EXPECT_GE(coord.migrations_completed(), 1u);
}

// A fabric path partition (both NICs healthy, inter-host path dead): no
// transport shift can heal the pair, so the coordinator co-locates it — the
// higher-numbered side moves to the lower — and the resumed conduit rides
// shm, which no fabric fault can touch.
TEST(Migration, PathPartitionTriggerColocates) {
  Env env(3);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());
  auto st = start_stream(env, p, 7006, 16ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024; }));

  injector.apply({env.loop().now(), faults::FaultKind::path_partition, 0, 1.0, 1});
  ASSERT_TRUE(env.wait([&]() { return p.b->host() == 0; }, 30 * k_second));
  ASSERT_TRUE(env.wait([&]() { return transport_of(p.net_a) == orch::Transport::shm; },
                       30 * k_second));
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 120 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  ASSERT_FALSE(p.net_b->connections().empty());
  EXPECT_EQ(p.net_b->connections()[0].last_migration_reason,
            core::MigrationReason::path_partition);
}

// ---------------------------------------------------------------- guards

// Validation surface: unknown or stopped containers, bad destinations, a
// second move of a container in flight and a move of its quiescing peer are
// rejected up front; a move onto the current host completes trivially.
TEST(Migration, ValidatesRequestsUpFront) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  MigrationCoordinator coord(env.freeflow());

  Status status = ok_status();
  coord.migrate(9999, 1, [&](Result<MigrationReport> r) { status = r.status(); });
  EXPECT_EQ(status.code(), Errc::not_found);

  coord.migrate(p.b->id(), 99, [&](Result<MigrationReport> r) { status = r.status(); });
  EXPECT_EQ(status.code(), Errc::invalid_argument);

  std::optional<MigrationReport> trivial;
  coord.migrate(p.b->id(), 1, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok());
    trivial = *r;
  });
  ASSERT_TRUE(trivial.has_value());  // same-host: no move, fires synchronously
  EXPECT_EQ(trivial->conduits_moved, 0u);
  EXPECT_EQ(trivial->blackout_ns, 0);

  // A stopped container does not move.
  auto stopped = env.deploy("stopped", 1, 0);
  ASSERT_TRUE(env.cluster_orch->stop(stopped->id()).is_ok());
  status = ok_status();
  coord.migrate(stopped->id(), 1, [&](Result<MigrationReport> r) { status = r.status(); });
  EXPECT_EQ(status.code(), Errc::failed_precondition);
  EXPECT_EQ(stopped->host(), 0u);

  // While b's move quiesces, neither a second move of b nor a move of its
  // peer may start.
  auto st = start_stream(env, p, 7010, 16ull * 1024 * 1024);
  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024; }));
  std::optional<MigrationReport> report;
  coord.migrate(p.b->id(), 0, [&](Result<MigrationReport> r) {
    ASSERT_TRUE(r.is_ok()) << r.status();
    report = *r;
  });
  status = ok_status();
  coord.migrate(p.b->id(), 0, [&](Result<MigrationReport> r) { status = r.status(); });
  EXPECT_EQ(status.code(), Errc::failed_precondition);
  status = ok_status();
  coord.migrate(p.a->id(), 1, [&](Result<MigrationReport> r) { status = r.status(); });
  EXPECT_EQ(status.code(), Errc::failed_precondition);

  ASSERT_TRUE(env.wait([&]() { return report.has_value(); }, 30 * k_second));
  EXPECT_EQ(coord.migrations_completed(), 1u);
  EXPECT_EQ(p.b->host(), 0u);
  EXPECT_EQ(p.a->host(), 0u);
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second));
  EXPECT_FALSE(st->corrupt);
}

}  // namespace
}  // namespace freeflow::migration
