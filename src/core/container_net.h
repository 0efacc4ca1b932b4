// ContainerNet: the per-container instance of FreeFlow's network library —
// the paper's "customized network library supporting standard network APIs"
// plus the virtual RDMA NIC. It owns the container's MR table, its QP/socket
// listeners, and one conduit per peer connection; it consults the transport
// selector, asks the host agent for channels, and transparently re-binds
// everything when the orchestrator reports a migration.
//
// A socket picks its connection path when it connects (SockPath): relayed
// over the agent's channels, or over a per-stream RDMA QP (TSoR) that starts
// on an overlay-TCP fallback connection. Either way the application holds
// the same FlowSocket, every incoming channel passes the same first-message
// router, and every re-attach starts with the same rebind.
#pragma once

#include <functional>
#include <vector>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/conduit.h"
#include "core/socket.h"
#include "core/vqp.h"
#include "orchestrator/network_orchestrator.h"
#include "rdma/verbs.h"
#include "tcpstack/connection.h"

namespace freeflow::stream {
class RcStreamChannel;
}

namespace freeflow::core {

class FreeFlow;

/// How a socket connection reaches its peer, chosen per connection.
enum class SockPath : std::uint8_t {
  /// Agent channels picked by the selector (shm, rdma relay, dpdk, tcp).
  relayed,
  /// An overlay-TCP fallback connection, spliced onto a per-stream RC QP
  /// whenever the selector grants rdma (and back on RDMA loss).
  per_stream_qp,
};

class ContainerNet : public std::enable_shared_from_this<ContainerNet> {
 public:
  using QpAcceptFn = std::function<void(VirtualQpPtr)>;
  using QpConnectFn = std::function<void(Result<VirtualQpPtr>)>;
  using SockAcceptFn = std::function<void(FlowSocketPtr)>;
  using SockConnectFn = std::function<void(Result<FlowSocketPtr>)>;

  ContainerNet(FreeFlow& ff, orch::ContainerPtr container);
  /// Closes every conduit (and unrouted incoming channel) so no callback
  /// registered on lanes or the event loop outlives the library instance.
  ~ContainerNet();

  ContainerNet(const ContainerNet&) = delete;
  ContainerNet& operator=(const ContainerNet&) = delete;

  // ---- verbs surface ----------------------------------------------------
  /// Registers container memory; the returned MR's rkey names it to peers.
  rdma::MrPtr reg_mr(std::size_t length);
  [[nodiscard]] rdma::MrPtr mr(std::uint32_t id) const;
  rdma::CqPtr create_cq(std::size_t capacity = 4096);
  /// Largest payload one verbs WR may move (SEND/WRITE source, READ
  /// length): its conduit message has to fit whole into an shm lane.
  [[nodiscard]] std::size_t max_verbs_payload() const;

  /// CM-style rendezvous: accept verbs QPs on a service port.
  Status listen_qp(std::uint16_t port, QpAcceptFn on_accept);
  void connect_qp(tcp::Ipv4Addr peer_ip, std::uint16_t port, rdma::CqPtr send_cq,
                  rdma::CqPtr recv_cq, QpConnectFn done);

  // ---- socket surface ---------------------------------------------------
  /// Accepts both paths: relayed connections arrive through the agent,
  /// per_stream_qp ones on the fallback network's listener for the port.
  Status sock_listen(std::uint16_t port, SockAcceptFn on_accept);
  void sock_connect(tcp::Ipv4Addr peer_ip, std::uint16_t port, SockConnectFn done,
                    SockPath path = SockPath::relayed);

  // ---- identity / plumbing ----------------------------------------------
  [[nodiscard]] orch::ContainerId id() const noexcept { return container_->id(); }
  [[nodiscard]] tcp::Ipv4Addr ip() const noexcept { return container_->ip(); }
  [[nodiscard]] const std::string& name() const noexcept { return container_->name(); }
  [[nodiscard]] orch::ContainerPtr container() const noexcept { return container_; }
  [[nodiscard]] FreeFlow& freeflow() noexcept { return ff_; }
  [[nodiscard]] fabric::Host& current_host();
  [[nodiscard]] sim::EventLoop& loop();

  /// Charges one verb-post worth of CPU to this container.
  void charge_post();

  // ---- migration / teardown (driven by FreeFlow) -------------------------
  /// Container `moved` (this one, or a peer) landed on its new host: detach
  /// every conduit it touches and rebind from the initiator side. A self
  /// move first registers with the new host's agent.
  void handle_moved(orch::ContainerId moved);
  /// The container stopped: unregister and permanently close every conduit.
  void handle_self_stopped();
  /// A peer stopped: close conduits to it (sockets fire on_close, QPs err)
  /// with `reason` (peer_bye for a graceful stop, host_crashed for a crash).
  /// No close handshake — the peer is already gone.
  void handle_peer_stopped(orch::ContainerId peer, CloseReason reason);
  /// NIC health changed on `host`: re-decide every conduit touching it and
  /// splice survivors onto the (possibly different) best transport.
  void handle_health_event(fabric::HostId host);
  [[nodiscard]] bool has_conduit_to(orch::ContainerId peer) const;

  [[nodiscard]] std::size_t conduit_count() const noexcept { return conduits_.size(); }

  /// Introspection: one row per open conduit (ops tooling / examples).
  struct ConnectionInfo {
    std::uint64_t token;  ///< keys telemetry: "conduit/<token>/c<self>/..."
    orch::ContainerId peer;
    tcp::Ipv4Addr peer_ip;
    orch::Transport transport;
    bool initiator;
    std::uint64_t messages_sent;
    std::uint64_t messages_received;
    std::uint64_t rebinds;
    std::uint64_t retransmits;
    SimDuration blackout_ns;  ///< total detached (stale) virtual time
    bool live;            ///< a channel is currently attached
    bool writable;        ///< conduit accepts more traffic right now
    std::size_t retained; ///< sent-but-unacked window depth
    std::size_t queued;   ///< messages waiting for a channel
    bool channel_writable;
    // --- migration introspection (src/migration) ---
    std::uint64_t migrations_completed;  ///< coordinated moves survived
    SimDuration last_blackout_ns;        ///< blackout of the most recent move
    MigrationReason last_migration_reason;
  };
  [[nodiscard]] std::vector<ConnectionInfo> connections() const;

  /// FreeFlow-internal: register with the (current) host agent.
  void register_with_agent();

  // ---- planned migration hooks (src/migration) --------------------------
  /// Conduit lookup by token (both endpoints share the token).
  [[nodiscard]] ConduitPtr find_conduit(std::uint64_t token) const;
  /// Drives the post-move rebind of a migrated (or peer-of-migrated)
  /// conduit through the initiator side.
  void resume_migrated_conduit(const ConduitPtr& conduit);
  /// Reactive-move freeze: detach every open conduit touching container
  /// `moving` (all of them when it is this one; mark_stale only — sends
  /// queue, blackout span opens) so no bytes die in a channel while it is
  /// stop-and-copied. handle_moved rebinds later.
  void freeze_conduits(orch::ContainerId moving);

 private:
  friend class VirtualQp;
  friend class FlowSocket;

  /// Per-connection state of a per_stream_qp conduit, keyed by token.
  struct StreamQp {
    /// Initiator: the RC channel offered at `offered_generation`, awaiting
    /// the rc_answer that echoes its QP number.
    std::shared_ptr<stream::RcStreamChannel> offered;
    std::uint64_t offered_generation = 0;
    /// Passive: the RC channel answered at `answered_generation`, awaiting
    /// its first message in pending_incoming_.
    std::weak_ptr<agent::Channel> answered;
    std::uint64_t answered_generation = 0;
    bool dialing = false;  ///< initiator: one fallback dial in flight
  };

  using ConduitConnectFn = std::function<void(Result<ConduitPtr>)>;
  /// The one rendezvous under connect_qp and sock_connect: opens a conduit
  /// to `peer_ip` on `path`, sends `request` (cm_connect or sock_connect)
  /// for `port`, and completes once the peer accepts.
  void connect_conduit(tcp::Ipv4Addr peer_ip, std::uint16_t port, VMsg request,
                       SockPath path, ConduitConnectFn done);

  void on_incoming_channel(orch::ContainerId src, agent::ChannelPtr channel);
  void on_incoming_conn(tcp::TcpConnection::Ptr conn);
  /// The one router: sets up, re-binds or refuses a channel from the agent,
  /// the fallback listener or an answered RC QP by its first message.
  void handle_first_message(orch::ContainerId src, agent::Channel* channel,
                            const WireHeader& header);

  /// Resolves, decides, establishes and attaches a channel to `conduit`;
  /// when `rebinding`, the first message on the new channel is a rebind.
  void open_channel_for(ConduitPtr conduit, bool rebinding,
                        std::function<void(Status)> done);

  /// Takes ownership of `conduit` in conduits_ and installs the teardown
  /// hook that drops that reference when the conduit closes.
  void adopt_conduit(const ConduitPtr& conduit);
  /// Marks an adopted conduit per_stream_qp: its handshake lane and state.
  void adopt_stream_qp(const ConduitPtr& conduit);
  /// Re-decides the transport for one (initiator-side) conduit and re-binds
  /// it when the decision differs from what it currently rides.
  void refit_conduit(const ConduitPtr& conduit);
  /// Re-attaches a detached initiator-side conduit after a move.
  void rebind_conduit(const ConduitPtr& conduit, const char* after);
  /// Closes every conduit via a snapshot (close re-enters conduits_).
  void close_all_conduits();

  // ---- the per_stream_qp path -------------------------------------------
  /// Overlay-TCP connect with retry and backoff: overlay routes converge
  /// asynchronously, so an early dial can fail transiently.
  void dial_fallback(tcp::Endpoint remote, int attempt,
                     std::function<void(Result<tcp::TcpConnection::Ptr>)> cb);
  /// Re-attaches `conduit` on a fresh fallback connection (rebind first),
  /// then offers an RC QP when `upgrade_after`.
  void rebind_on_fallback(const ConduitPtr& conduit, bool upgrade_after);
  /// Builds a fresh RC QP as the conduit's offer for its current attach and
  /// returns the rc_offer to send; nullopt when one is already out.
  [[nodiscard]] std::optional<WireHeader> make_offer(const ConduitPtr& conduit);
  void handle_handshake(const ConduitPtr& conduit, const WireHeader& h);
  [[nodiscard]] std::shared_ptr<stream::RcStreamChannel> make_rc_channel(
      orch::ContainerId peer);
  /// Counts one splice of `token`'s stream (initiator side) and marks it.
  void note_splice(const char* counter, const char* instant, std::uint64_t token);
  [[nodiscard]] StreamQp* find_stream_qp(std::uint64_t token);
  /// Releases a closed conduit's per-stream state.
  void drop_stream_qp(std::uint64_t token);
  [[nodiscard]] telemetry::Telemetry& telemetry();

  FreeFlow& ff_;
  orch::ContainerPtr container_;

  std::unordered_map<std::uint32_t, rdma::MrPtr> mrs_;
  std::uint32_t next_mr_ = 1;

  /// Listeners by (connect request, port). Each builds its surface (a
  /// VirtualQp or a FlowSocket) on the accepted conduit and hands it over.
  using ListenKey = std::pair<VMsg, std::uint16_t>;
  std::map<ListenKey, std::function<void(const ConduitPtr&)>> listeners_;
  std::unordered_map<std::uint64_t, ConduitPtr> conduits_;
  /// The per_stream_qp subset of conduits_ (absent for relayed conduits).
  std::unordered_map<std::uint64_t, StreamQp> stream_qps_;
  /// Incoming channels awaiting their routing (first) message. Owned here —
  /// the channel's own callbacks never keep it alive (no self-cycle).
  std::map<agent::Channel*, agent::ChannelPtr> pending_incoming_;
};

using ContainerNetPtr = std::shared_ptr<ContainerNet>;

}  // namespace freeflow::core
