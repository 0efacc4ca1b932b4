// TcpFallbackChannel: an agent::Channel carried by one mini-TCP overlay
// connection. It is a per_stream_qp socket's "always works" transport — the
// path unmodified socket workloads ride today — wrapped in the channel
// interface so a conduit can splice between it and a per-stream RC QP
// without the application noticing (TSoR's fallback leg).
//
// Records ride a tcp::RecordPipe, the same framed record pipe the agents'
// TcpTrunk uses, so one conduit message maps to exactly one framed record
// regardless of how the byte stream is segmented.
#pragma once

#include <memory>

#include "agent/channel.h"
#include "tcpstack/record_pipe.h"

namespace freeflow::stream {

class TcpFallbackChannel final : public agent::Channel {
 public:
  /// Wraps an established (or establishing) connection and wires its
  /// callbacks weakly — the channel owns the wiring, never vice versa.
  static std::shared_ptr<TcpFallbackChannel> make(tcp::TcpConnection::Ptr conn);

  /// The connection's send buffer: over twice the overlay path's
  /// bandwidth-delay product (~60 us RTT at ~13 Gb/s), far below the
  /// stack's 4 MB default. Bytes still in it when the stream moves to its
  /// QP are replayed from the conduit's retained window anyway, so a deeper
  /// buffer would only keep the NIC busy with bytes nobody reads.
  static constexpr std::size_t k_send_buffer = 256 * 1024;

  Status send(ByteSpan head, ByteSpan body = {}) override;
  [[nodiscard]] bool writable() const noexcept override;
  void set_on_message(DeliverFn cb) override { on_message_ = std::move(cb); }
  void set_on_space(std::function<void()> cb) override { on_space_ = std::move(cb); }
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::tcp_overlay;
  }
  void close() noexcept override;

  /// Make-before-break upgrade: this side answered the peer's rc_offer, so
  /// the peer will switch the stream to a fresh RC channel and then close
  /// its TCP side. The resulting FIN must not be mistaken for a
  /// transport failure — fail() would trigger a spurious refit. Anything
  /// the conduit sent into the suppressed window stays in its retained
  /// window and is replayed on the RC attach, so nothing is lost.
  void expect_close() noexcept { expect_close_ = true; }

 private:
  TcpFallbackChannel() = default;

  void on_conn_closed();

  std::shared_ptr<tcp::RecordPipe> pipe_;
  DeliverFn on_message_;
  std::function<void()> on_space_;
  bool closed_ = false;
  bool conn_down_ = false;  ///< the connection closed under us
  bool expect_close_ = false;
};

using TcpFallbackChannelPtr = std::shared_ptr<TcpFallbackChannel>;

}  // namespace freeflow::stream
