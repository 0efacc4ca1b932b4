#include "migration/migration.h"

#include <algorithm>

#include "common/logging.h"

namespace freeflow::migration {

namespace {

/// Bound on the resume: a conduit that cannot re-attach by then finishes
/// the move detached (counted in MigrationReport::detached), its sends
/// queued, and the ordinary health/refit machinery keeps retrying.
constexpr SimDuration k_resume_bound_ns = 100 * k_millisecond;

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
  ff_.orchestrator().cluster_orch().on_moved([this, alive](const orch::Container& moved) {
    if (alive.expired()) return;
    if (moves_.contains(moved.id())) resume(moved.id());
  });
  // Proactive trigger: degraded NIC (link up, serialization rate collapsed).
  ff_.orchestrator().subscribe_health([this, alive](fabric::HostId host,
                                                    const fabric::NicHealth&,
                                                    const fabric::NicHealth& now) {
    if (alive.expired()) return;
    handle_health(host, now);
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
  for (auto& [id, mv] : moves_) mv.resume_bound.cancel();
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
  mv.done = std::move(done);

  // Collect both ends of every affected connection up front; refuse overlap
  // with a move already quiescing these conduits (a paused endpoint belongs
  // to another coordinator pass — or to a peer's move — either way, not
  // ours). The remote ends go first in `ends`: they quiesce first, so
  // nothing new flows toward the capture.
  std::vector<core::ConduitPtr> locals;
  if (auto net = ff_.net(id)) {
    for (const auto& info : net->connections()) {
      auto local = net->find_conduit(info.token);
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
      if (peer != nullptr) mv.ends.push_back(peer);
      locals.push_back(local);
    }
  }
  mv.conduits_moved = locals.size();
  mv.ends.insert(mv.ends.end(), locals.begin(), locals.end());

  // Decision epochs bump (and sharded caches flush, full mask) BEFORE the
  // first conduit pauses: no selector may serve a pre-move answer into the
  // resume path.
  ff_.control_plane().note_migration_started(id);

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
  // boundary, takes back what its shm lane has not delivered, and waits
  // until its retained window is acked — so nothing is in flight toward, or
  // from, the capture. Receive and ack paths stay live, which is what lets
  // both sides drain.
  const SimDuration deadline = model().migration_quiesce_deadline_ns;
  // Countdown latch over every quiesce; starts at n+1 so synchronous
  // completions (already-drained conduits) cannot fire capture before the
  // loop finishes arming. Capture runs at the instant the latch completes,
  // from the loop: the last completion fires inside an ack's delivery, and
  // capture closes that very channel.
  auto pending = std::make_shared<std::size_t>(move.ends.size() + 1);
  std::weak_ptr<bool> alive = alive_;
  auto arm_capture = [this, alive, id, pending]() {
    if (--*pending != 0) return;
    loop().schedule(0, [this, alive, id]() {
      if (alive.expired()) return;
      start_capture(id);
    });
  };
  for (const auto& end : move.ends) {
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

  // The moving side's connection state stays in its conduits and moves with
  // the container; only its size is taken here, to set the downtime.
  mv.image_bytes = k_image_header_bytes;
  for (const auto& end : mv.ends) {
    if (end->self() != id || end->closed()) continue;  // closed mid-quiesce: nothing moves
    mv.image_bytes += k_record_length_bytes + end->state_bytes();
  }
  ctr_image_bytes_->inc(mv.image_bytes);
  const auto transfer_ns =
      model().migration_resume_fixed_ns +
      static_cast<SimDuration>(static_cast<double>(mv.image_bytes) *
                               model().migration_image_byte_ns);
  // The orchestrator's migration-started notification runs the capture
  // every move takes: FreeFlow detaches each conduit touching the container
  // and takes it off its source agent.
  const Status moved =
      ff_.orchestrator().cluster_orch().migrate(id, mv.dst, transfer_ns);
  FF_CHECK(moved.is_ok());  // preconditions validated in migrate()
  telemetry().tracer().instant(
      "migration", "transfer", 0, tid,
      telemetry::Tracer::arg("bytes", std::to_string(mv.image_bytes)));
}

void MigrationCoordinator::resume(orch::ContainerId id) {
  telemetry().tracer().instant("migration", "resume", 0,
                               static_cast<std::uint32_t>(id));
  // FreeFlow's own moved handler unpauses both ends and rebinds them. The
  // move finishes on the attach that leaves no end detached, or at the
  // bound.
  std::weak_ptr<bool> alive = alive_;
  auto on_attached = [this, alive, id]() {
    if (alive.expired()) return;
    auto mit = moves_.find(id);
    if (mit != moves_.end() && detached(mit->second) == 0) finish(id);
  };
  Move& mv = moves_.at(id);
  for (const auto& end : mv.ends) end->set_on_attached(on_attached);
  mv.resume_bound = loop().schedule_cancellable(k_resume_bound_ns, [this, alive, id]() {
    if (alive.expired()) return;
    finish(id);
  });
  on_attached();
}

std::size_t MigrationCoordinator::detached(const Move& mv) {
  return static_cast<std::size_t>(
      std::count_if(mv.ends.begin(), mv.ends.end(), [](const core::ConduitPtr& c) {
        return !c->live() && !c->closed() && !c->closing();
      }));
}

void MigrationCoordinator::finish(orch::ContainerId id) {
  auto it = moves_.find(id);
  FF_CHECK(it != moves_.end());
  Move mv = std::move(it->second);
  moves_.erase(it);
  mv.resume_bound.cancel();

  const SimDuration blackout = loop().now() - mv.paused_at;
  hist_blackout_->record(blackout);
  for (const auto& end : mv.ends) {
    end->set_on_attached(nullptr);
    end->note_migration_complete(blackout, mv.reason);
  }
  switch (mv.reason) {
    case core::MigrationReason::degraded_nic: ctr_degrade_->inc(); break;
    case core::MigrationReason::path_partition: ctr_partition_->inc(); break;
    default: ctr_planned_->inc(); break;
  }
  telemetry().tracer().end("migration", "migration", 0,
                           static_cast<std::uint32_t>(id));

  MigrationReport report;
  report.container = id;
  report.src_host = mv.src;
  report.dst_host = mv.dst;
  report.conduits_moved = mv.conduits_moved;
  report.image_bytes = mv.image_bytes;
  report.drained = mv.drained;
  report.detached = detached(mv);
  report.blackout_ns = blackout;
  report.reason = mv.reason;
  FF_LOG(info, "migration") << "container " << id << " moved " << mv.src
                            << " -> " << mv.dst << ": " << report.conduits_moved
                            << " connections, blackout " << blackout << " ns"
                            << (mv.drained ? "" : " (quiesce deadline hit)");
  if (report.detached != 0) {
    FF_LOG(warn, "migration") << report.detached << " conduits still detached; "
                              << "the health/refit machinery keeps retrying";
  }
  if (mv.done) mv.done(report);
}

// ------------------------------------------------------- proactive triggers

void MigrationCoordinator::handle_health(fabric::HostId host,
                                         const fabric::NicHealth& now) {
  // A downed link is failover's business (transport shift / crash handling);
  // the coordinator's case is the *degraded-but-alive* NIC, where every
  // transport limps and only moving off the host restores full rate.
  if (!now.link_up) return;
  if (now.rate_fraction >= k_degrade_threshold) return;
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
        << now.rate_fraction << ": migrating container " << c->id()
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
