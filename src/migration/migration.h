// Connection-preserving live container migration (paper §6 "container
// migration": the orchestrator knows where containers are going, so the
// network layer can move *with* them instead of reacting after the fact).
//
// The MigrationCoordinator turns a container move into a planned protocol:
//
//   1. quiesce  — every conduit touching the container pauses at a message
//                 boundary on BOTH ends (sends queue, credits stop, receive
//                 and ack paths stay live) and both ends drain their
//                 retained windows under a sim-clock deadline. Deadline
//                 expiry is not fatal: the undrained tail simply moves with
//                 the conduit and replays at the destination (peers dedup),
//                 the same lossless path reactive failover takes.
//   2. capture  — every endpoint detaches (generation-guarded blackout
//                 spans open, voiding any half-built per-stream QP
//                 upgrade). The moving side's connection state (sequence
//                 counters, ack bookkeeping, retained window, queued sends)
//                 stays in its conduits: the library runs inside the
//                 container, so that state is part of the container memory
//                 the orchestrator moves. Capture only sizes it; sends made
//                 during the move queue behind it, already sequenced.
//   3. transfer — the cluster orchestrator moves the container with a
//                 downtime proportional to that state's size (the planned
//                 stop-and-copy is tiny compared to the reactive default).
//   4. resume   — at the destination both ends unpause, and the initiator
//                 side rebinds through the ordinary generation-guarded
//                 path: retained windows replay, receivers dedup — zero
//                 loss, in order, byte-exact, bounded blackout.
//
// The coordinator also *initiates* migrations proactively: off NICs whose
// rate_fraction degrades below a threshold, and off severed fabric paths
// (path_partition faults) — where no transport shift can help, but
// co-locating the endpoints (shm) can.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/freeflow.h"

namespace freeflow::migration {

struct MigrationReport {
  orch::ContainerId container = 0;
  fabric::HostId src_host = 0;
  fabric::HostId dst_host = 0;
  std::size_t conduits_moved = 0;
  /// Connection state the move carried: a 24 B header, then 4 B plus
  /// Conduit::detach_for_migration()'s count per conduit. Sets the transfer
  /// downtime.
  std::size_t image_bytes = 0;
  /// False when any conduit hit the quiesce deadline with retained messages
  /// (still lossless — the tail replayed at the destination).
  bool drained = true;
  /// Pause of the first conduit -> every conduit live again (app-visible).
  SimDuration blackout_ns = 0;
  core::MigrationReason reason = core::MigrationReason::planned;
};

class MigrationCoordinator {
 public:
  using DoneFn = std::function<void(Result<MigrationReport>)>;

  /// Construct AFTER FreeFlow: the coordinator's moved-subscription must run
  /// behind FreeFlow's (which skips containers under planned migration).
  /// Proactive triggers subscribe immediately and stay armed for the
  /// coordinator's lifetime.
  explicit MigrationCoordinator(core::FreeFlow& ff);
  ~MigrationCoordinator();

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /// Starts a planned migration of `id` to `dst`. `done` fires once, after
  /// every affected conduit is live again (or rejected up front: unknown /
  /// not-running container, bad destination, move already in flight, or a
  /// touching conduit already owned by another migration).
  void migrate(orch::ContainerId id, fabric::HostId dst, DoneFn done,
               core::MigrationReason reason = core::MigrationReason::planned);

  /// Completed moves of every reason: the "migration/{planned,
  /// proactive_degrade,proactive_partition}" counters summed.
  [[nodiscard]] std::uint64_t migrations_completed() const noexcept {
    return ctr_planned_->value() + ctr_degrade_->value() + ctr_partition_->value();
  }
  [[nodiscard]] std::uint64_t quiesce_timeouts() const noexcept {
    return ctr_quiesce_timeouts_->value();
  }

 private:
  /// One affected connection: the migrating-side endpoint and (when the
  /// peer is library-attached) the remote endpoint.
  struct Endpoint {
    core::ConduitPtr local;            // endpoint owned by the moving container
    core::ConduitPtr peer;             // remote endpoint (may be null)
    core::ContainerNetPtr peer_net;    // keeps the peer's library alive
  };
  struct Move {
    fabric::HostId src = 0;
    fabric::HostId dst = 0;
    core::MigrationReason reason = core::MigrationReason::planned;
    core::ContainerNetPtr net;         // null: container has no library attached
    std::vector<Endpoint> endpoints;
    std::size_t image_bytes = 0;
    bool drained = true;
    SimTime paused_at = 0;
    DoneFn done;
    int resume_polls = 0;
    sim::EventHandle resume_timer;
  };

  void start_capture(orch::ContainerId id);
  void resume(orch::ContainerId id);
  /// Re-attaches one connection of a resumed move.
  void rebind(Move& mv, Endpoint& ep);
  void poll_resumed(orch::ContainerId id);
  void finish(orch::ContainerId id);

  void handle_health(fabric::HostId host);
  void handle_path(fabric::HostId a, fabric::HostId b, bool up);
  /// Healthiest candidate host (link up, rate above threshold), fewest
  /// running containers, excluding `avoid`; nullopt when none qualifies.
  [[nodiscard]] std::optional<fabric::HostId> pick_destination(fabric::HostId avoid) const;

  [[nodiscard]] sim::EventLoop& loop() { return ff_.loop(); }
  [[nodiscard]] telemetry::Telemetry& telemetry();
  [[nodiscard]] const sim::CostModel& model();

  core::FreeFlow& ff_;
  std::unordered_map<orch::ContainerId, Move> moves_;

  telemetry::Counter* ctr_planned_ = nullptr;
  telemetry::Counter* ctr_degrade_ = nullptr;
  telemetry::Counter* ctr_partition_ = nullptr;
  telemetry::Counter* ctr_image_bytes_ = nullptr;
  telemetry::Counter* ctr_quiesce_timeouts_ = nullptr;
  Histogram* hist_blackout_ = nullptr;

  /// Orchestrator subscriptions can outlive this coordinator.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace freeflow::migration
