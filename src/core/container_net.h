// ContainerNet: the per-container instance of FreeFlow's network library —
// the paper's "customized network library supporting standard network APIs"
// plus the virtual RDMA NIC. It owns the container's MR table, its QP/socket
// listeners, and one conduit per peer connection; it consults the transport
// selector, asks the host agent for channels, and transparently re-binds
// everything when the orchestrator reports a migration.
#pragma once

#include <functional>
#include <vector>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/conduit.h"
#include "core/socket.h"
#include "core/vqp.h"
#include "orchestrator/network_orchestrator.h"
#include "rdma/verbs.h"

namespace freeflow::core {

class FreeFlow;

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
  /// length): its conduit message has to fit whole into an shm lane ring.
  [[nodiscard]] std::size_t max_verbs_payload() const;

  /// CM-style rendezvous: accept verbs QPs on a service port.
  Status listen_qp(std::uint16_t port, QpAcceptFn on_accept);
  void connect_qp(tcp::Ipv4Addr peer_ip, std::uint16_t port, rdma::CqPtr send_cq,
                  rdma::CqPtr recv_cq, QpConnectFn done);

  // ---- socket surface ---------------------------------------------------
  Status sock_listen(std::uint16_t port, SockAcceptFn on_accept);
  void sock_connect(tcp::Ipv4Addr peer_ip, std::uint16_t port, SockConnectFn done);

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
  void handle_self_moved();
  void handle_peer_moved(orch::ContainerId peer);
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

  // ---- stream adapter hooks (src/stream) --------------------------------
  /// A stream-adapter conduit is owned here like any other (teardown,
  /// telemetry, health routing), but its transport decisions are delegated:
  /// the adapter embraces tcp_overlay as a fallback where open_channel_for
  /// refuses it, and upgrades to per-stream RC QPs out of band.
  struct StreamHooks {
    /// Replaces refit_conduit: re-decide and splice per adapter policy.
    std::function<void(const ConduitPtr&)> refit;
    /// Runs after the conduit leaves conduits_ (close/teardown).
    std::function<void()> teardown;
    /// Planned migration: cancel in-flight upgrade/dial state for this
    /// stream so no half-built RC channel attaches mid-move. The adapter's
    /// credit/handshake position is already inside the conduit's sequenced
    /// history, so it travels with the MigrationImage for free.
    std::function<void()> quiesce;
  };
  void adopt_stream_conduit(const ConduitPtr& conduit, StreamHooks hooks);

  // ---- planned migration hooks (src/migration) --------------------------
  /// Conduit lookup by token (both endpoints share the token).
  [[nodiscard]] ConduitPtr find_conduit(std::uint64_t token) const;
  /// Tells the stream adapter (if this token is adapter-owned) to cancel
  /// in-flight upgrade state ahead of capture. No-op for plain conduits.
  void quiesce_stream_state(std::uint64_t token);
  /// Drives the post-restore rebind of a migrated (or peer-of-migrated)
  /// conduit through the initiator side: stream-adapter conduits go through
  /// the adapter's refit, plain ones through open_channel_for(rebinding).
  void resume_migrated_conduit(const ConduitPtr& conduit);
  /// Reactive-move freeze: detach every conduit (mark_stale only — sends
  /// queue, blackout span opens) so no bytes die in a channel while the
  /// container is stop-and-copied. The moved_ notification rebinds later.
  void freeze_all_conduits();
  /// Peer-side half of the freeze, scoped to conduits toward `peer`.
  void freeze_conduits_to(orch::ContainerId peer);

 private:
  friend class VirtualQp;
  friend class FlowSocket;

  void on_incoming_channel(orch::ContainerId src, agent::ChannelPtr channel);
  void handle_first_message(orch::ContainerId src, agent::Channel* channel,
                            const WireHeader& header);

  /// Resolves, decides, establishes and attaches a channel to `conduit`;
  /// when `rebinding`, the first message on the new channel is a rebind.
  void open_channel_for(ConduitPtr conduit, bool rebinding,
                        std::function<void(Status)> done);

  /// Takes ownership of `conduit` in conduits_ and installs the teardown
  /// hook that drops that reference when the conduit closes.
  void adopt_conduit(const ConduitPtr& conduit);
  /// Re-decides the transport for one (initiator-side) conduit and re-binds
  /// it when the decision differs from what it currently rides.
  void refit_conduit(const ConduitPtr& conduit);
  /// Closes every conduit via a snapshot (close re-enters conduits_).
  void close_all_conduits();

  FreeFlow& ff_;
  orch::ContainerPtr container_;

  std::unordered_map<std::uint32_t, rdma::MrPtr> mrs_;
  std::uint32_t next_mr_ = 1;

  std::map<std::uint16_t, QpAcceptFn> qp_listeners_;
  std::map<std::uint16_t, SockAcceptFn> sock_listeners_;
  std::unordered_map<std::uint64_t, ConduitPtr> conduits_;
  /// Conduits whose transport policy is delegated to the stream adapter,
  /// keyed by conduit token. Entries mirror conduits_ membership.
  std::unordered_map<std::uint64_t, StreamHooks> stream_hooks_;
  /// Incoming channels awaiting their routing (first) message. Owned here —
  /// the channel's own callbacks never keep it alive (no self-cycle).
  std::map<agent::Channel*, agent::ChannelPtr> pending_incoming_;
};

using ContainerNetPtr = std::shared_ptr<ContainerNet>;

}  // namespace freeflow::core
