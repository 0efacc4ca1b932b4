#include "migration/migration.h"

#include <algorithm>

#include "common/logging.h"

namespace freeflow::migration {

namespace {

/// Grace between "every quiesce completed" and capture: lets in-flight
/// deliveries on lossless channels (shm rings have no retained window to
/// vouch for them) land before the channels close.
constexpr SimDuration k_capture_settle_ns = 10 * k_microsecond;
/// Resume-completion poll cadence and cap (cap = 100 ms of sim time; a
/// conduit that cannot re-attach by then finishes with its sends queued and
/// the ordinary health/refit machinery keeps retrying).
constexpr SimDuration k_resume_poll_ns = 20 * k_microsecond;
constexpr int k_max_resume_polls = 5000;
/// A rebind dial can exhaust its own retry budget while overlay routes are
/// still converging on the new host — and "retry on next health event" never
/// fires after a clean planned move. The poll re-drives the rebind for any
/// still-detached conduit at this cadence.
constexpr int k_resume_rekick_polls = 250;

/// Proactive trigger: migrate containers off hosts whose NIC rate_fraction
/// falls below this (link still up — a dead link is failover's business).
/// Also the floor a destination host's NIC must clear.
constexpr double k_degrade_threshold = 0.5;
/// Size accounting for the moved connection state, in the layout a
/// checkpoint would frame it: a header (magic, version, record count,
/// container, source and destination hosts), then a length ahead of each
/// conduit's record.
constexpr std::size_t k_image_header_bytes = 24;
constexpr std::size_t k_record_length_bytes = 4;

}  // namespace

// ---------------------------------------------------- MigrationCoordinator

MigrationCoordinator::MigrationCoordinator(core::FreeFlow& ff) : ff_(ff) {
  auto& metrics = telemetry().metrics();
  ctr_planned_ = &metrics.counter("migration/planned");
  ctr_degrade_ = &metrics.counter("migration/proactive_degrade");
  ctr_partition_ = &metrics.counter("migration/proactive_partition");
  ctr_image_bytes_ = &metrics.counter("migration/image_bytes");
  ctr_quiesce_timeouts_ = &metrics.counter("migration/quiesce_timeouts");
  hist_blackout_ = &metrics.histogram("migration/blackout_ns");

  std::weak_ptr<bool> alive = alive_;
  // Resume hook. FreeFlow subscribed to the same feed first and its handler
  // skips planned containers, so by the time this fires the move is ours to
  // finish — registration order IS the ordering guarantee.
  ff_.orchestrator().subscribe_moves([this, alive](const orch::Container& moved) {
    if (alive.expired()) return;
    if (moves_.contains(moved.id())) resume(moved.id());
  });
  // Proactive trigger: degraded NIC (link up, serialization rate collapsed).
  ff_.orchestrator().subscribe_health([this, alive](fabric::HostId host) {
    if (alive.expired()) return;
    handle_health(host);
  });
  // Proactive trigger: severed inter-host path (both NICs healthy).
  ff_.orchestrator().subscribe_path_partitions(
      [this, alive](fabric::HostId a, fabric::HostId b, bool up) {
        if (alive.expired()) return;
        handle_path(a, b, up);
      });
}

MigrationCoordinator::~MigrationCoordinator() {
  *alive_ = false;
  for (auto& [id, mv] : moves_) mv.resume_timer.cancel();
}

telemetry::Telemetry& MigrationCoordinator::telemetry() {
  return ff_.orchestrator().cluster_orch().cluster().telemetry();
}

const sim::CostModel& MigrationCoordinator::model() {
  return ff_.orchestrator().cluster_orch().cluster().cost_model();
}

void MigrationCoordinator::migrate(orch::ContainerId id, fabric::HostId dst,
                                   DoneFn done, core::MigrationReason reason) {
  auto& corch = ff_.orchestrator().cluster_orch();
  auto fail = [&done](Status why) {
    if (done) done(std::move(why));
  };
  auto container = corch.container(id);
  if (container == nullptr) {
    return fail(not_found("migrate: no container " + std::to_string(id)));
  }
  if (container->state() != orch::ContainerState::running) {
    return fail(failed_precondition("migrate: container not running"));
  }
  if (dst >= corch.cluster().host_count()) {
    return fail(invalid_argument("migrate: destination host out of range"));
  }
  if (moves_.contains(id)) {
    return fail(failed_precondition("migrate: move already in flight"));
  }
  if (dst == container->host()) {
    MigrationReport report;
    report.container = id;
    report.src_host = container->host();
    report.dst_host = dst;
    report.reason = reason;
    if (done) done(report);
    return;
  }

  Move mv;
  mv.src = container->host();
  mv.dst = dst;
  mv.reason = reason;
  mv.net = ff_.net(id);
  mv.done = std::move(done);

  // Collect every affected connection up front; refuse overlap with a move
  // already quiescing these conduits (a paused endpoint belongs to another
  // coordinator pass — or to a peer's move — either way, not ours).
  if (mv.net != nullptr) {
    for (const auto& info : mv.net->connections()) {
      auto local = mv.net->find_conduit(info.token);
      if (local == nullptr || local->closed() || local->closing()) continue;
      auto peer_net = ff_.net(info.peer);
      core::ConduitPtr peer =
          peer_net != nullptr ? peer_net->find_conduit(info.token) : nullptr;
      if (local->paused() || (peer != nullptr && peer->paused())) {
        if (mv.done) {
          mv.done(failed_precondition(
              "migrate: connection already owned by another migration"));
        }
        return;
      }
      mv.endpoints.push_back({local, peer, peer_net});
    }
  }

  // Decision epochs bump (and sharded caches flush, full mask) BEFORE the
  // first conduit pauses: no selector may serve a pre-move answer into the
  // resume path.
  ff_.control_plane().note_migration_started(id);
  ff_.note_planned_migration(id, true);

  auto& tracer = telemetry().tracer();
  const auto tid = static_cast<std::uint32_t>(id);
  tracer.begin("migration", "migration", 0, tid,
               telemetry::Tracer::arg("dst", std::to_string(dst)));
  tracer.instant("migration", "quiesce", 0, tid);

  mv.paused_at = loop().now();
  auto [it, inserted] = moves_.emplace(id, std::move(mv));
  FF_CHECK(inserted);
  Move& move = it->second;

  // Both ends of every connection quiesce: each pauses at a message
  // boundary, and each waits until the other has acknowledged its retained
  // window — so nothing is in flight toward, or from, the capture. Receive
  // and ack paths stay live, which is what lets both windows drain. The
  // remote ends go first: nothing new flows toward the capture.
  std::vector<core::Conduit*> ends;
  for (auto& ep : move.endpoints) {
    if (ep.peer != nullptr) ends.push_back(ep.peer.get());
  }
  for (auto& ep : move.endpoints) ends.push_back(ep.local.get());

  const SimDuration deadline = model().migration_quiesce_deadline_ns;
  // Countdown latch over every quiesce; starts at n+1 so synchronous
  // completions (already-drained conduits) cannot fire capture before the
  // loop finishes arming.
  auto pending = std::make_shared<std::size_t>(ends.size() + 1);
  std::weak_ptr<bool> alive = alive_;
  auto arm_capture = [this, alive, id, pending]() {
    if (--*pending != 0) return;
    loop().schedule(k_capture_settle_ns, [this, alive, id]() {
      if (alive.expired()) return;
      start_capture(id);
    });
  };
  for (core::Conduit* end : ends) {
    end->quiesce(deadline, [this, alive, id, arm_capture](bool drained) {
      if (alive.expired()) return;
      auto mit = moves_.find(id);
      if (mit == moves_.end()) return;
      if (!drained) {
        mit->second.drained = false;
        ctr_quiesce_timeouts_->inc();
        FF_LOG(warn, "migration")
            << "quiesce deadline expired for container " << id
            << " (undrained tail moves with its conduit and replays)";
      }
      arm_capture();
    });
  }
  arm_capture();
}

void MigrationCoordinator::start_capture(orch::ContainerId id) {
  auto it = moves_.find(id);
  if (it == moves_.end()) return;
  Move& mv = it->second;
  const auto tid = static_cast<std::uint32_t>(id);
  telemetry().tracer().instant("migration", "capture", 0, tid);

  mv.image_bytes = k_image_header_bytes;
  for (auto& ep : mv.endpoints) {
    // The local endpoint detaches (blackout span opens); its connection
    // state stays in the conduit and moves with the container.
    mv.image_bytes += k_record_length_bytes + ep.local->detach_for_migration();
    // The peer endpoint detaches too: its half of the channel is dead-ended
    // now, and the stale state opens its own blackout span. Both detaches
    // bump the conduit generations, which voids any half-built per-stream
    // QP upgrade: its handshake rode the control lane of the channel just
    // closed, so nothing of it survives the move.
    if (ep.peer != nullptr && !ep.peer->closed() && !ep.peer->closing()) {
      ep.peer->mark_stale();
    }
  }
  ctr_image_bytes_->inc(mv.image_bytes);

  // The container leaves this host: deregister from the source agent (the
  // resume path registers with the destination's agent). All its conduits
  // are detached, so nothing can route to it meanwhile.
  if (mv.net != nullptr) {
    ff_.agents().agent_on(mv.src).unregister_container(id);
  }

  const auto transfer_ns =
      model().migration_resume_fixed_ns +
      static_cast<SimDuration>(static_cast<double>(mv.image_bytes) *
                               model().migration_image_byte_ns);
  telemetry().tracer().instant(
      "migration", "transfer", 0, tid,
      telemetry::Tracer::arg("bytes", std::to_string(mv.image_bytes)));
  const Status moved =
      ff_.orchestrator().cluster_orch().migrate(id, mv.dst, transfer_ns);
  FF_CHECK(moved.is_ok());  // preconditions validated in migrate()
}

void MigrationCoordinator::resume(orch::ContainerId id) {
  auto it = moves_.find(id);
  if (it == moves_.end()) return;
  Move& mv = it->second;
  telemetry().tracer().instant("migration", "resume", 0,
                               static_cast<std::uint32_t>(id));
  if (mv.net != nullptr) mv.net->register_with_agent();
  // Unpause both ends before rebinding: the attach below replays the
  // retained window and then drains whatever queued during the move.
  for (auto& ep : mv.endpoints) {
    ep.local->unpause();
    if (ep.peer != nullptr) ep.peer->unpause();
  }
  for (auto& ep : mv.endpoints) {
    if (ep.local->closed() || ep.local->closing()) continue;
    rebind(mv, ep);
  }
  poll_resumed(id);
}

void MigrationCoordinator::rebind(Move& mv, Endpoint& ep) {
  // The ordinary generation-guarded path, driven from the initiator side
  // (rebind-first framing expects the dialing end).
  if (!ep.local->initiator() && ep.peer != nullptr && ep.peer_net != nullptr) {
    ep.peer_net->resume_migrated_conduit(ep.peer);
  } else {
    mv.net->resume_migrated_conduit(ep.local);
  }
}

void MigrationCoordinator::poll_resumed(orch::ContainerId id) {
  auto it = moves_.find(id);
  if (it == moves_.end()) return;
  Move& mv = it->second;
  bool all_live = true;
  for (auto& ep : mv.endpoints) {
    const bool local_ok =
        ep.local->live() || ep.local->closed() || ep.local->closing();
    const bool peer_ok = ep.peer == nullptr || ep.peer->live() ||
                         ep.peer->closed() || ep.peer->closing();
    if (!local_ok || !peer_ok) {
      all_live = false;
      break;
    }
  }
  if (all_live) {
    finish(id);
    return;
  }
  if (++mv.resume_polls > k_max_resume_polls) {
    FF_LOG(warn, "migration")
        << "container " << id << " resumed with conduits still detached; "
        << "the health/refit machinery keeps retrying";
    finish(id);
    return;
  }
  if (mv.resume_polls % k_resume_rekick_polls == 0) {
    for (auto& ep : mv.endpoints) {
      if (ep.local->closed() || ep.local->closing()) continue;
      const bool detached = !ep.local->live() ||
                            (ep.peer != nullptr && !ep.peer->live());
      if (detached) rebind(mv, ep);
    }
  }
  std::weak_ptr<bool> alive = alive_;
  mv.resume_timer = loop().schedule_cancellable(k_resume_poll_ns, [this, alive, id]() {
    if (alive.expired()) return;
    poll_resumed(id);
  });
}

void MigrationCoordinator::finish(orch::ContainerId id) {
  auto it = moves_.find(id);
  FF_CHECK(it != moves_.end());
  Move mv = std::move(it->second);
  moves_.erase(it);

  const SimDuration blackout = loop().now() - mv.paused_at;
  hist_blackout_->record(blackout);
  for (auto& ep : mv.endpoints) {
    ep.local->note_migration_complete(blackout, mv.reason);
    if (ep.peer != nullptr) ep.peer->note_migration_complete(blackout, mv.reason);
  }
  switch (mv.reason) {
    case core::MigrationReason::degraded_nic: ctr_degrade_->inc(); break;
    case core::MigrationReason::path_partition: ctr_partition_->inc(); break;
    default: ctr_planned_->inc(); break;
  }
  telemetry().tracer().end("migration", "migration", 0,
                           static_cast<std::uint32_t>(id));
  ff_.note_planned_migration(id, false);

  MigrationReport report;
  report.container = id;
  report.src_host = mv.src;
  report.dst_host = mv.dst;
  report.conduits_moved = mv.endpoints.size();
  report.image_bytes = mv.image_bytes;
  report.drained = mv.drained;
  report.blackout_ns = blackout;
  report.reason = mv.reason;
  FF_LOG(info, "migration") << "container " << id << " moved " << mv.src
                            << " -> " << mv.dst << ": " << report.conduits_moved
                            << " connections, blackout " << blackout << " ns"
                            << (mv.drained ? "" : " (quiesce deadline hit)");
  if (mv.done) mv.done(report);
}

// ------------------------------------------------------- proactive triggers

void MigrationCoordinator::handle_health(fabric::HostId host) {
  const auto& health = ff_.orchestrator().nic_health(host);
  // A downed link is failover's business (transport shift / crash handling);
  // the coordinator's case is the *degraded-but-alive* NIC, where every
  // transport limps and only moving off the host restores full rate.
  if (!health.link_up) return;
  if (health.rate_fraction >= k_degrade_threshold) return;
  auto dst = pick_destination(host);
  if (!dst.has_value()) return;
  auto victims = ff_.orchestrator().cluster_orch().containers_on(host);
  std::sort(victims.begin(), victims.end(),
            [](const orch::ContainerPtr& a, const orch::ContainerPtr& b) {
              return a->id() < b->id();
            });
  for (const auto& c : victims) {
    if (c->state() != orch::ContainerState::running) continue;
    if (moves_.contains(c->id())) continue;
    FF_LOG(info, "migration")
        << "NIC on host " << host << " degraded to rate_fraction "
        << health.rate_fraction << ": migrating container " << c->id()
        << " to host " << *dst;
    migrate(c->id(), *dst, DoneFn{}, core::MigrationReason::degraded_nic);
  }
}

void MigrationCoordinator::handle_path(fabric::HostId a, fabric::HostId b, bool up) {
  if (up) return;
  // Deterministic direction: evacuate the higher-numbered side toward the
  // lower. Co-locating the pair puts it on shm — the one transport a fabric
  // partition cannot touch.
  const fabric::HostId from = std::max(a, b);
  const fabric::HostId to = std::min(a, b);
  auto& corch = ff_.orchestrator().cluster_orch();
  auto victims = corch.containers_on(from);
  std::sort(victims.begin(), victims.end(),
            [](const orch::ContainerPtr& x, const orch::ContainerPtr& y) {
              return x->id() < y->id();
            });
  for (const auto& c : victims) {
    if (c->state() != orch::ContainerState::running) continue;
    if (moves_.contains(c->id())) continue;
    auto net = ff_.net(c->id());
    if (net == nullptr) continue;
    bool affected = false;
    for (const auto& info : net->connections()) {
      auto peer = corch.container(info.peer);
      if (peer != nullptr && peer->host() == to) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    FF_LOG(info, "migration")
        << "path " << a << "<->" << b << " severed: co-locating container "
        << c->id() << " with its peers on host " << to;
    migrate(c->id(), to, DoneFn{}, core::MigrationReason::path_partition);
  }
}

std::optional<fabric::HostId> MigrationCoordinator::pick_destination(
    fabric::HostId avoid) const {
  auto& corch = ff_.orchestrator().cluster_orch();
  std::optional<fabric::HostId> best;
  std::size_t best_load = 0;
  const auto hosts = corch.cluster().host_count();
  for (fabric::HostId h = 0; h < hosts; ++h) {
    if (h == avoid) continue;
    const auto& health = ff_.orchestrator().nic_health(h);
    if (!health.link_up || health.rate_fraction < k_degrade_threshold) continue;
    const std::size_t load = corch.containers_on(h).size();
    if (!best.has_value() || load < best_load) {
      best = h;
      best_load = load;
    }
  }
  return best;
}

}  // namespace freeflow::migration
