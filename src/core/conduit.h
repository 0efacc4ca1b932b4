// Conduit: the library's reliable, transport-agnostic message pipe to one
// peer container. A conduit outlives the agent channel backing it: on
// migration or transport failure the channel is torn down and a new one
// (over the newly optimal transport) is attached, while outbound messages
// queue — this is the mechanism behind FreeFlow's transparent transport
// switching.
//
// Reliability across channel switches is the conduit's job, not the
// channel's: every data message carries a sequence number, the sender
// retains sent-but-unacked messages (on lossy transports), an shm lane
// hands back what it has not delivered when the conduit detaches, and on
// re-attach the retained window is retransmitted ahead of queued messages
// (the handed-back ones first among them). The
// receiver accepts exactly the next expected sequence and drops duplicates,
// so a failover loses nothing and never reorders.
//
// Beside that sequenced stream runs one control lane (ack, bye, bye_ack and
// the per-stream QP handshake, rc_offer / rc_answer): unsequenced, never
// retained, and dropped while detached. It belongs to the channel it was
// sent on, so a channel switch can never replay a stale control message.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "agent/channel.h"
#include "common/handler_slot.h"
#include "common/ring.h"
#include "core/close_reason.h"
#include "core/wire.h"
#include "fabric/packet.h"
#include "sim/event_loop.h"
#include "tcpstack/ip.h"
#include "telemetry/telemetry.h"

namespace freeflow::core {

/// One host-level family of conduit series: every conduit attached over
/// one transport from a container on one host adds to the same counters
/// ("conduit/h<host>/<transport>/<metric>"), so the registry grows with
/// hosts and transports, not with connections. Registered once per key by
/// whoever owns one per cluster (FreeFlow); a conduit holds a copy of the
/// pointers for the channel it is attached to.
struct ConduitSeries {
  /// A lossless (shm) family has only the first five: nothing sent over shm
  /// is retained, so nothing there is acked, fills a window or blocks on
  /// one, and the conduit touches the other five only while it retains().
  static ConduitSeries registered(telemetry::MetricRegistry& metrics, fabric::HostId host,
                                  orch::Transport transport);

  telemetry::Counter* sent = nullptr;
  telemetry::Counter* received = nullptr;
  telemetry::Counter* retransmits = nullptr;
  telemetry::Counter* rebinds = nullptr;
  telemetry::Counter* blackout_ns = nullptr;
  telemetry::Counter* acks = nullptr;
  telemetry::Counter* delayed_acks = nullptr;
  telemetry::Counter* window_full = nullptr;
  telemetry::Counter* blocked_ns = nullptr;
  /// Sum of the attached conduits' retained-window depths.
  telemetry::Gauge* retained = nullptr;
};

/// Why a conduit last changed hosts (surfaced through ConnectionInfo).
enum class MigrationReason : std::uint8_t {
  none = 0,        ///< never migrated
  planned,         ///< operator-requested coordinated move
  degraded_nic,    ///< proactive: source NIC rate_fraction below threshold
  path_partition,  ///< proactive: inter-host path down, co-locate with peer
};

class Conduit : public std::enable_shared_from_this<Conduit> {
 public:
  /// Receives each message's header and its payload, header already
  /// stripped in place: handlers take ownership instead of copying.
  using MessageFn = std::function<void(const WireHeader&, Buffer&&)>;
  using ClosedFn = std::function<void(CloseReason)>;

  /// Names its trace row in `tracer`, which must outlive it. The per-flow
  /// counts the accessors below read are members; each also adds to the
  /// host-level series of the channel attached at the time. `loop` clocks
  /// its timers (delayed ack, close drain, quiesce deadline) and blackout
  /// spans.
  Conduit(std::uint64_t token, orch::ContainerId self, orch::ContainerId peer,
          tcp::Ipv4Addr peer_ip, std::uint16_t service_port, bool initiator,
          telemetry::Tracer& tracer, sim::EventLoop& loop);

  /// Sends one protocol message, taking over `payload`: its block travels
  /// as it is to the peer's handler (retained on lossy channels, queued
  /// while no channel is attached), and only a transport that must lay the
  /// bytes out contiguously copies them.
  void send(const WireHeader& header, Buffer payload = {});
  /// Same, for a payload the caller keeps (a verbs MR): copies it once.
  void send(const WireHeader& header, ByteSpan payload);
  /// The control lane: puts one unsequenced message for this conduit on the
  /// attached channel, or drops it when none is attached (each sender
  /// re-issues on the next attach: acks by timer, bye on re-attach, the
  /// upgrade handshake on the next refit).
  void send_control(WireHeader header);

  /// The handler runs in place; one set while it is dispatching (a
  /// handshake installing its successor, a close from inside it) takes
  /// effect when that dispatch returns.
  void set_on_message(MessageFn cb) { on_message_.set(std::move(cb)); }
  void set_on_space(std::function<void()> cb) { on_space_ = std::move(cb); }
  /// Receives the control lane's upgrade handshake (rc_offer / rc_answer);
  /// ContainerNet wires it on per_stream_qp conduits only.
  void set_on_handshake(std::function<void(const WireHeader&)> cb) {
    on_handshake_ = std::move(cb);
  }

  /// Attaches (or replaces) the backing channel, retransmits the unacked
  /// window and drains the queue. From here on the conduit counts into
  /// `series`, the family of its host and the channel's transport, and its
  /// retained-window depth moves there from the family it counted in before.
  void attach_channel(agent::ChannelPtr channel, const ConduitSeries& series);
  /// Fires last in every attach_channel, once the replay and the drain are
  /// done: the migration coordinator finishes a move on its last attach.
  void set_on_attached(std::function<void()> cb) { on_attached_ = std::move(cb); }

  /// Migration / failover: detach; sends queue, behind what the channel
  /// handed back unsent, until a new channel attaches.
  void mark_stale();

  // --- Planned live migration (driven by migration::MigrationCoordinator) --

  /// Stops putting new sequences on the wire at a message boundary: sends
  /// queue, drain() is inhibited, writable() deasserts. The receive path —
  /// including ack generation — stays live so the peer's retained window
  /// (and ours, via the peer's acks) can still drain.
  void pause() noexcept { paused_ = true; }
  /// Re-enables transmission; drains whatever queued while paused and fires
  /// on_space if the conduit is writable again.
  void unpause();
  [[nodiscard]] bool paused() const noexcept { return paused_; }

  /// Quiesce for capture: pause(), take back what the channel has not yet
  /// handed to the peer (an shm lane's messages, put back ahead of the
  /// queue, so they count in state_bytes() and move with the conduit), then
  /// wait until a lossy channel's retained window is acked. `done(drained)`
  /// fires exactly once. `deadline` bounds the wait for acks; its expiry is
  /// not fatal — the unacked tail moves with the conduit, replays at the
  /// destination and peers dedup, the same lossless path as failover.
  void quiesce(SimDuration deadline, std::function<void(bool)> done);

  /// Byte count of the connection state a move carries: counters plus each
  /// retained and queued message. That state stays in place — it is part of
  /// the container memory the orchestrator moves — so this only sizes the
  /// transfer.
  [[nodiscard]] std::size_t state_bytes() const noexcept;

  /// Coordinator bookkeeping on completion (both endpoints).
  void note_migration_complete(SimDuration blackout, MigrationReason reason) noexcept {
    ++migrations_completed_;
    last_blackout_ns_ = blackout;
    last_migration_reason_ = reason;
  }
  [[nodiscard]] std::uint64_t migrations_completed() const noexcept {
    return migrations_completed_;
  }
  [[nodiscard]] SimDuration last_blackout_ns() const noexcept {
    return last_blackout_ns_;
  }
  [[nodiscard]] MigrationReason last_migration_reason() const noexcept {
    return last_migration_reason_;
  }

  /// Orderly teardown (app close): sends `bye` and waits for the peer's
  /// bye_ack up to the drain timeout before completing. Without a channel
  /// it completes synchronously. Idempotent.
  void close() { close_with(CloseReason::app_close, /*handshake=*/true); }
  /// Teardown with an explicit reason; handshake=false skips the bye-ack
  /// wait (used when the peer is known dead: crash, stop notifications).
  void close_with(CloseReason reason, bool handshake);
  /// Immediate teardown for owner destruction / container stop: completes
  /// even mid-drain (keeping the drain's original reason), best-effort bye.
  void force_close(CloseReason reason);
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  /// True between close() and the bye_ack / drain timeout that completes it.
  [[nodiscard]] bool closing() const noexcept { return closing_; }
  [[nodiscard]] CloseReason close_reason() const noexcept { return close_reason_; }
  void set_on_closed(ClosedFn cb) { on_closed_ = std::move(cb); }
  /// Owner hook (ContainerNet): fires last during close so the owning map
  /// can drop its reference — the conduit never points back at its owner.
  void set_on_teardown(std::function<void()> cb) { on_teardown_ = std::move(cb); }

  /// Failover hook: the attached channel's transport died (lane declared
  /// dead by the agent). The conduit detaches itself first; the observer
  /// (ContainerNet) re-decides and splices on a fallback channel.
  void set_on_transport_failed(std::function<void()> cb) {
    on_transport_failed_ = std::move(cb);
  }

  /// Receiver-side resync for setup messages routed before this conduit
  /// existed (the incoming-channel first-message tap consumes seq 1).
  void sync_rx(std::uint64_t seq) noexcept {
    if (seq >= rx_next_) rx_next_ = seq + 1;
  }

  [[nodiscard]] bool live() const noexcept { return channel_ != nullptr; }
  [[nodiscard]] const agent::ChannelPtr& channel() const noexcept { return channel_; }
  [[nodiscard]] bool writable() const noexcept {
    return channel_ != nullptr && !paused_ && queue_.empty() &&
           channel_->writable() && retained_.size() < k_max_retained;
  }
  [[nodiscard]] orch::Transport transport() const noexcept {
    return channel_ == nullptr ? orch::Transport::tcp_overlay : channel_->transport();
  }

  [[nodiscard]] std::uint64_t token() const noexcept { return token_; }
  [[nodiscard]] orch::ContainerId self() const noexcept { return self_; }
  [[nodiscard]] orch::ContainerId peer() const noexcept { return peer_; }
  [[nodiscard]] tcp::Ipv4Addr peer_ip() const noexcept { return peer_ip_; }
  [[nodiscard]] std::uint16_t service_port() const noexcept { return service_port_; }
  [[nodiscard]] bool initiator() const noexcept { return initiator_; }

  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t rebinds() const noexcept { return rebinds_; }
  /// Messages replayed from the retained window across all re-attaches.
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }
  /// Total virtual time spent detached between mark_stale and re-attach.
  [[nodiscard]] SimDuration blackout_ns() const noexcept { return blackout_ns_; }
  /// Monotonic detach counter: a slow re-bind whose generation no longer
  /// matches must abandon its freshly built channel (a newer re-bind won).
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::size_t retained_count() const noexcept { return retained_.size(); }
  [[nodiscard]] std::size_t queued_count() const noexcept { return queue_.size(); }
  [[nodiscard]] bool channel_writable() const noexcept {
    return channel_ != nullptr && channel_->writable();
  }
  /// True while attached to a lossy channel: each sent message is retained
  /// (its payload block with it) until the peer acks it.
  [[nodiscard]] bool retains() const noexcept {
    return channel_ != nullptr && channel_->transport() != orch::Transport::shm;
  }

  /// Cumulative-ack cadence: one ack per this many received data messages.
  static constexpr std::uint64_t k_ack_every = 16;
  /// Sender-side retention cap; writable() deasserts at the cap.
  static constexpr std::size_t k_max_retained = 256;
  /// Delayed-ack bound: with un-acked receipts (`since_ack_ > 0`) and no
  /// k_ack_every-th message to piggyback on, an ack goes out within this
  /// idle window — so a sender that filled its retained window mid-cadence
  /// always unblocks (see the ack-stall regression test).
  static constexpr SimDuration k_delayed_ack_ns = 100'000;  // 100 us
  /// Close handshake: how long a closing conduit waits for the peer's
  /// bye_ack (or a bye's overtaken data tail) before giving up
  /// (CloseReason::drain_timeout).
  static constexpr SimDuration k_drain_timeout_ns = 5'000'000;  // 5 ms

 private:
  void drain();
  /// Puts one sequenced message on the attached channel (retaining it on a
  /// lossy one).
  void transmit(std::uint64_t seq, Message message);
  void retransmit_retained();
  void handle_message(Message&& message);
  void handle_ack(std::uint64_t acked_upto);
  /// `last_seq`: the peer's final sequence. The control lane may overtake
  /// data still queued behind flow control, so the close completes once
  /// everything up to it is delivered (or a drain timeout passes).
  void handle_bye(std::uint64_t last_seq);
  void handle_bye_ack();
  void handle_channel_failed();
  void maybe_ack();
  void send_ack_now();
  void arm_ack_timer();
  void note_window_filled();
  void send_control(VMsg type, std::uint64_t id = 0);
  void finish_close(CloseReason reason, bool notify_peer);
  void finish_quiesce(bool drained);
  /// Puts the sequenced messages the attached channel hands back unsent in
  /// front of queue_; its control messages die with it.
  void take_back_unsent();
  /// Adds the change in retained_'s depth since the last report to the
  /// family's gauge (a lossless family has none).
  void report_retained();

  std::uint64_t token_;
  orch::ContainerId self_;
  orch::ContainerId peer_;
  tcp::Ipv4Addr peer_ip_;
  std::uint16_t service_port_;
  bool initiator_;

  agent::ChannelPtr channel_;
  std::deque<Message> queue_;
  /// Sent on a lossy channel, not yet cumulatively acked: (seq, message).
  /// Each shares its payload block with the message the channel was
  /// handed, and a retransmit hands the channel another share.
  common::Ring<std::pair<std::uint64_t, Message>> retained_;
  common::HandlerSlot<void(const WireHeader&, Buffer&&)> on_message_;
  std::function<void()> on_space_;
  ClosedFn on_closed_;
  std::function<void()> on_teardown_;
  std::function<void()> on_transport_failed_;
  std::function<void(const WireHeader&)> on_handshake_;
  std::function<void()> on_attached_;

  sim::EventLoop& loop_;
  sim::EventHandle drain_timer_;
  sim::EventHandle ack_timer_;
  /// A failover retransmit delivered only duplicates: the piggyback ack
  /// cadence won't fire (rx_next_ unchanged), but the sender is waiting on
  /// an ack for exactly those sequences — resync via the delayed-ack timer.
  bool resync_ack_ = false;
  /// A bye that overtook data: the peer's last sequence still to deliver.
  std::uint64_t bye_after_ = 0;

  bool closed_ = false;
  bool closing_ = false;
  CloseReason pending_reason_ = CloseReason::app_close;
  CloseReason close_reason_ = CloseReason::app_close;

  std::uint64_t tx_seq_ = 0;   ///< last assigned outbound sequence
  std::uint64_t rx_next_ = 1;  ///< next expected inbound sequence
  std::uint64_t since_ack_ = 0;
  std::uint64_t generation_ = 0;

  // --- per-flow counts, and the host-level series they also add to ---
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t rebinds_ = 0;
  std::uint64_t retransmits_ = 0;
  SimDuration blackout_ns_ = 0;
  /// Set by every attach_channel; nothing counts before the first one.
  ConduitSeries series_;
  /// This conduit's share of series_.retained.
  std::int64_t retained_reported_ = 0;
  telemetry::Tracer& tracer_;
  /// Transport in use before the current/last failover — a re-attach onto a
  /// strictly better transport is the "re-upgrade" trace marker.
  orch::Transport pre_failover_transport_ = orch::Transport::tcp_overlay;
  SimTime blackout_started_ = 0;
  bool in_blackout_ = false;
  /// True while attach_channel replays the retained window and drains the
  /// blackout queue: writable notifications are deferred until the splice
  /// completes so no new sequence can interleave with the replay on the wire.
  bool splicing_ = false;
  SimTime window_full_since_ = 0;

  // --- planned-migration state ---
  /// Transmit-side freeze: sends queue, drain() inhibited, writable() false.
  bool paused_ = false;
  std::function<void(bool)> quiesce_done_;
  sim::EventHandle quiesce_timer_;
  std::uint64_t migrations_completed_ = 0;
  SimDuration last_blackout_ns_ = 0;
  MigrationReason last_migration_reason_ = MigrationReason::none;
};

using ConduitPtr = std::shared_ptr<Conduit>;

}  // namespace freeflow::core
