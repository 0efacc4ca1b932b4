// Connection-preserving live container migration (paper §6 "container
// migration": the orchestrator knows where containers are going, so the
// network layer can move *with* them instead of reacting after the fact).
//
// The MigrationCoordinator turns a container move into a planned protocol.
// Capture and resume are not its own: they are the ones FreeFlow runs for
// every move, from the cluster orchestrator's migration-started and moved
// notifications. The coordinator adds what only a planned move has — the
// quiesce ahead of the capture, the sizing of the transfer, and the finish:
//
//   1. quiesce  — every conduit touching the container pauses at a message
//                 boundary on BOTH ends (sends queue, credits stop, receive
//                 and ack paths stay live) and both ends wait until nothing
//                 they sent is in flight: retained windows acked under a
//                 sim-clock deadline, shm lanes emptied. Deadline expiry is
//                 not fatal: the unacked tail simply moves with the conduit
//                 and replays at the destination (peers dedup), the same
//                 lossless path reactive failover takes.
//   2. capture  — the coordinator sizes the moving side's connection state
//                 (Conduit::state_bytes: sequence counters, ack bookkeeping,
//                 retained window, queued sends) and hands the container to
//                 the cluster orchestrator. That state stays in its
//                 conduits: the library runs inside the container, so it is
//                 part of the container memory the orchestrator moves.
//                 FreeFlow's capture detaches every conduit touching the
//                 container (generation-guarded blackout spans open,
//                 voiding any half-built per-stream QP upgrade) and the
//                 container leaves its source agent. Sends made during the
//                 move queue behind the state, already sequenced.
//   3. transfer — the cluster orchestrator moves the container with a
//                 downtime proportional to that state's size (the planned
//                 stop-and-copy is tiny compared to the reactive default).
//   4. resume   — FreeFlow's resume: the container joins the destination's
//                 agent, both ends unpause, and the initiator side rebinds
//                 through the ordinary generation-guarded path: retained
//                 windows replay, receivers dedup — zero loss, in order,
//                 byte-exact, bounded blackout. The coordinator finishes
//                 the move on the attach that leaves no quiesced conduit
//                 detached, or at a 100 ms bound that reports the rest.
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
  /// Conduit::state_bytes() per conduit. Sets the transfer downtime.
  std::size_t image_bytes = 0;
  /// False when any conduit hit the quiesce deadline with retained messages
  /// (still lossless — the tail replayed at the destination).
  bool drained = true;
  /// Conduits (either end) the 100 ms resume bound left detached.
  std::size_t detached = 0;
  /// Pause of the first conduit -> every conduit live again (app-visible).
  SimDuration blackout_ns = 0;
  core::MigrationReason reason = core::MigrationReason::planned;
};

class MigrationCoordinator {
 public:
  using DoneFn = std::function<void(Result<MigrationReport>)>;

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
  struct Move {
    fabric::HostId src = 0;
    fabric::HostId dst = 0;
    core::MigrationReason reason = core::MigrationReason::planned;
    /// Every quiescing conduit: the peers' ends first, then the moving
    /// container's own (conduits_moved of them).
    std::vector<core::ConduitPtr> ends;
    std::size_t conduits_moved = 0;
    std::size_t image_bytes = 0;
    bool drained = true;
    SimTime paused_at = 0;
    DoneFn done;
    sim::EventHandle resume_bound;
  };

  void start_capture(orch::ContainerId id);
  /// The container landed: arms the finish on the attaches FreeFlow's
  /// resume brings.
  void resume(orch::ContainerId id);
  /// Ends of the move neither attached nor closing.
  [[nodiscard]] static std::size_t detached(const Move& mv);
  void finish(orch::ContainerId id);

  /// Proactive trigger: `now` is the NIC health just reported for `host`.
  void handle_health(fabric::HostId host, const fabric::NicHealth& now);
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
