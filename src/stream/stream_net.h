// StreamNet: the TSoR-style transparent sockets-over-RDMA adapter. One
// instance per container, layered on the container's ContainerNet. It
// terminates the socket API locally (StreamSocket) and carries the ordered
// byte stream over a conduit whose channel it splices at runtime:
//
//   - Every stream starts on the overlay-TCP fallback (TcpFallbackChannel
//     over FreeFlow::fallback_net()) — this always works, including for
//     untrusted pairs where the selector answers tcp_overlay.
//   - When decide() grants rdma, the initiator runs the in-band upgrade
//     handshake (rc_offer -> rc_answer -> rc_switch) and splices a
//     per-stream RC QP (RcStreamChannel) onto the conduit make-before-
//     break: the retained-window retransmit plus receiver-side dedup make
//     the switch byte-exact and in-order.
//   - On RDMA death the ordinary health/refit path fires, but routed here
//     via ContainerNet::StreamHooks: mark_stale -> dial a fresh fallback
//     connection -> rebind -> retransmit. Recovery re-upgrades the same way.
//
// The application never sees any of this: StreamSocket's surface is plain
// send / on_data, and zero-loss in-order delivery holds across every splice.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/container_net.h"
#include "stream/rc_channel.h"
#include "stream/stream_socket.h"
#include "stream/tcp_channel.h"

namespace freeflow::stream {

class StreamNet : public std::enable_shared_from_this<StreamNet> {
 public:
  using AcceptFn = std::function<void(StreamSocketPtr)>;
  using ConnectFn = std::function<void(Result<StreamSocketPtr>)>;

  static std::shared_ptr<StreamNet> make(core::ContainerNetPtr net);
  ~StreamNet();

  StreamNet(const StreamNet&) = delete;
  StreamNet& operator=(const StreamNet&) = delete;

  /// Binds a stream listener on the container's overlay IP.
  Status listen(std::uint16_t port, AcceptFn on_accept);

  /// Opens a stream toward `peer_ip:port`. The socket is handed over once
  /// the peer accepts (over the fallback transport); the RDMA upgrade runs
  /// transparently afterwards when the selector allows it.
  void connect(tcp::Ipv4Addr peer_ip, std::uint16_t port, ConnectFn done);

  [[nodiscard]] core::ContainerNet& net() noexcept { return *net_; }
  /// Streams spliced tcp -> rdma (initiator side).
  [[nodiscard]] std::uint64_t upgrades() const noexcept { return upgrades_; }
  /// Streams spliced (back) onto a fresh fallback connection.
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }
  [[nodiscard]] std::size_t stream_count() const noexcept { return conduits_.size(); }

 private:
  explicit StreamNet(core::ContainerNetPtr net);

  using DialFn = std::function<void(Result<tcp::TcpConnection::Ptr>)>;
  /// Fallback-net connect with retry/backoff: overlay routes converge
  /// asynchronously, so early dials can transiently fail (same reason the
  /// agent trunks retry their establishment).
  void dial(tcp::Endpoint local, tcp::Endpoint remote, int attempt, DialFn cb);

  void on_incoming_conn(tcp::TcpConnection::Ptr conn);
  void handle_first_message(agent::Channel* raw, const Buffer& message);
  StreamSocketPtr make_socket(const core::ConduitPtr& conduit);
  void adopt(const core::ConduitPtr& conduit);

  /// The StreamHooks refit: re-decide and splice per adapter policy.
  void refit(const core::ConduitPtr& conduit);
  void dial_fallback(const core::ConduitPtr& conduit, bool upgrade_after);
  void start_upgrade(const core::ConduitPtr& conduit);
  void handle_control(const core::ConduitPtr& conduit, const core::WireHeader& h);
  void handle_rc_first_message(std::uint64_t token, const Buffer& message);
  /// StreamHooks.quiesce: cancel in-flight upgrade/dial state ahead of a
  /// planned-migration capture (the post-restore refit starts clean).
  void quiesce_stream(std::uint64_t token);
  void drop_stream_state(std::uint64_t token);

  [[nodiscard]] core::FreeFlow& ff() noexcept { return net_->freeflow(); }
  [[nodiscard]] telemetry::Telemetry& telemetry();

  core::ContainerNetPtr net_;
  std::unordered_map<std::uint16_t, AcceptFn> listeners_;
  /// Incoming fallback channels awaiting their routing (first) frame;
  /// owned here like ContainerNet::pending_incoming_ (no self-cycle).
  std::unordered_map<agent::Channel*, TcpFallbackChannelPtr> pending_incoming_;
  /// Initiator side: RC channel offered, awaiting the peer's rc_answer.
  std::unordered_map<std::uint64_t, RcStreamChannelPtr> pending_upgrade_;
  /// Passive side: RC channel connected, awaiting rc_switch on the wire.
  std::unordered_map<std::uint64_t, RcStreamChannelPtr> pending_rc_;
  /// Stream conduits by token (strong: mirrors ContainerNet::conduits_,
  /// released by the stream teardown hook).
  std::unordered_map<std::uint64_t, core::ConduitPtr> conduits_;
  /// The TCP channel currently attached per stream (weak — the conduit
  /// owns it); needed to mark expect_close() during the upgrade.
  std::unordered_map<std::uint64_t, std::weak_ptr<TcpFallbackChannel>> attached_tcp_;
  /// Tokens with a fallback dial in flight (at most one each).
  std::unordered_set<std::uint64_t> dialing_;

  std::uint64_t upgrades_ = 0;
  std::uint64_t fallbacks_ = 0;
  telemetry::Counter* ctr_upgrades_ = telemetry::Counter::discard();
  telemetry::Counter* ctr_fallbacks_ = telemetry::Counter::discard();
};

using StreamNetPtr = std::shared_ptr<StreamNet>;

}  // namespace freeflow::stream
