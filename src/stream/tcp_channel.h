// TcpFallbackChannel: an agent::Channel carried by one mini-TCP overlay
// connection. This is the stream adapter's "always works" transport — the
// path unmodified socket workloads ride today — wrapped in the channel
// interface so a conduit can splice between it and a per-stream RC QP
// without the application noticing (TSoR's fallback leg).
//
// Records are framed with common/framing.h's 4-byte length prefix, the
// same scheme the agents' TcpTrunk uses, so one conduit message maps to
// exactly one framed record regardless of how the byte stream is segmented.
#pragma once

#include <deque>
#include <memory>

#include "agent/channel.h"
#include "tcpstack/connection.h"

namespace freeflow::stream {

class TcpFallbackChannel final
    : public agent::Channel,
      public std::enable_shared_from_this<TcpFallbackChannel> {
 public:
  /// Wraps an established (or establishing) connection and wires its
  /// callbacks weakly — the channel owns the wiring, never vice versa.
  static std::shared_ptr<TcpFallbackChannel> make(orch::ContainerId peer,
                                                  tcp::TcpConnection::Ptr conn);

  ~TcpFallbackChannel() override;

  Status send(ByteSpan head, ByteSpan body = {}) override;
  [[nodiscard]] bool writable() const noexcept override;
  void set_on_message(DeliverFn cb) override { on_message_ = std::move(cb); }
  void set_on_space(std::function<void()> cb) override { on_space_ = std::move(cb); }
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::tcp_overlay;
  }
  [[nodiscard]] orch::ContainerId peer() const noexcept override { return peer_; }
  void close() noexcept override;
  [[nodiscard]] bool closed() const noexcept override { return closed_; }

  /// Make-before-break upgrade: the peer announced (rc_answer sent) that it
  /// will switch this stream to a fresh RC channel, after which the far end
  /// closes its TCP side. The resulting FIN must not be mistaken for a
  /// transport failure — fail() would trigger a spurious refit. Anything
  /// the conduit sent into the suppressed window stays in its retained
  /// window and is replayed on the RC attach, so nothing is lost.
  void expect_close() noexcept { expect_close_ = true; }

 private:
  TcpFallbackChannel(orch::ContainerId peer, tcp::TcpConnection::Ptr conn)
      : peer_(peer), conn_(std::move(conn)) {}

  void wire();
  void pump();
  void on_conn_writable();
  void on_bytes(Buffer&& data);
  void on_conn_closed();

  orch::ContainerId peer_;
  tcp::TcpConnection::Ptr conn_;
  std::deque<Buffer> overflow_;  ///< framed records awaiting socket space
  Buffer rx_accum_;
  DeliverFn on_message_;
  std::function<void()> on_space_;
  bool closed_ = false;
  bool conn_down_ = false;  ///< the connection closed under us
  bool expect_close_ = false;
};

using TcpFallbackChannelPtr = std::shared_ptr<TcpFallbackChannel>;

}  // namespace freeflow::stream
