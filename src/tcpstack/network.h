// TcpNetwork: socket-level entry point of the mini stack. Owns the listener
// and connection demux tables, performs the three-way handshake, and builds
// per-connection paths through the registered PathBuilder (which encodes the
// networking mode: host / bridge / overlay / FreeFlow-fallback).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/status.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "tcpstack/connection.h"
#include "tcpstack/ip.h"
#include "tcpstack/path.h"

namespace freeflow::tcp {

/// Builds the pair of paths (data + control) from `src` toward `dst`.
/// Implementations encode the networking mode and resolve endpoint
/// locations (which host an IP lives on).
class PathBuilder {
 public:
  virtual ~PathBuilder() = default;
  virtual Result<PathPair> build(const Endpoint& src, const Endpoint& dst) = 0;
};

class TcpNetwork {
 public:
  using AcceptFn = std::function<void(TcpConnection::Ptr)>;
  using ConnectFn = std::function<void(Result<TcpConnection::Ptr>)>;

  TcpNetwork(sim::EventLoop& loop, const sim::CostModel& model, PathBuilder& builder);
  ~TcpNetwork();

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Binds a listener. Fails with already_exists if the endpoint is taken —
  /// this is exactly the host-mode port-conflict problem the paper
  /// describes ("only one container bound to port 80 per server").
  Status listen(const Endpoint& local, AcceptFn on_accept);
  void close_listener(const Endpoint& local);

  /// Opens a connection; `local.port == 0` picks an ephemeral port.
  void connect(Endpoint local, const Endpoint& remote, ConnectFn on_connected);

  /// Stack-internal: removes a fully closed connection from the demux.
  void forget(const FourTuple& flow);

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] const sim::CostModel& cost_model() const noexcept { return model_; }

  [[nodiscard]] std::size_t connection_count() const noexcept { return connections_.size(); }

 private:
  struct Listener {
    AcceptFn on_accept;
  };

  void demux(const SegmentPtr& seg);
  void handle_syn(const SegmentPtr& seg);

  sim::EventLoop& loop_;
  const sim::CostModel& model_;
  PathBuilder& builder_;
  std::unordered_map<std::uint64_t, Listener> listeners_;
  std::unordered_map<FourTuple, TcpConnection::Ptr, FourTupleHash> connections_;
  std::unordered_map<FourTuple, ConnectFn, FourTupleHash> pending_connects_;
  std::uint16_t next_ephemeral_ = 40000;

  friend class TcpConnection;
};

/// Extra segment fields used only during connection setup: the reverse
/// paths the responder should use toward the initiator.
struct SynBody {
  std::shared_ptr<const PathPair> reverse_paths;
};

}  // namespace freeflow::tcp
