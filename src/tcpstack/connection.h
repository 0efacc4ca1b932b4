// Reliable, in-order byte stream over segment paths: GSO-chunk granularity
// go-back-N with cumulative ACKs, duplicate-ACK fast retransmit and an RTO
// timer. This is the "full TCP/IP stack" whose per-chunk costs make
// container networking expensive in the paper's measurements.
//
// Host bytes: a sent buffer larger than one chunk is cut into slices of
// its block, and each segment on the wire shares its chunk with the copy
// kept in `inflight_` for retransmission, so the stack copies no payload.
// A receiver gets the segment's handle; reading it never copies, and a
// write copies first while the sender still holds the chunk.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/bytes.h"
#include "common/handler_slot.h"
#include "common/status.h"
#include "sim/event_loop.h"
#include "tcpstack/path.h"
#include "tcpstack/segment.h"

namespace freeflow::tcp {

class TcpNetwork;

enum class ConnState : std::uint8_t {
  syn_sent,
  syn_received,
  established,
  closing,   ///< FIN sent, draining
  closed,
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using Ptr = std::shared_ptr<TcpConnection>;
  using DataFn = std::function<void(Buffer&&)>;
  using VoidFn = std::function<void()>;

  /// Created by TcpNetwork only.
  TcpConnection(TcpNetwork& net, FourTuple flow, std::shared_ptr<const PathPair> to_peer,
                ConnState state);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // ---- application API -------------------------------------------------
  /// Queues `data` for transmission. Returns would_block (nothing queued)
  /// when the send buffer is full; wait for on_writable.
  Status send(Buffer data);

  /// True if `bytes` more can be queued right now.
  [[nodiscard]] bool writable(std::size_t bytes = 1) const noexcept;

  /// Runs in place; one set while it is dispatching takes effect once that
  /// dispatch returns (see common::HandlerSlot).
  void set_on_data(DataFn cb) { on_data_.set(std::move(cb)); }
  void set_on_writable(VoidFn cb) { on_writable_ = std::move(cb); }
  void set_on_close(VoidFn cb) { on_close_ = std::move(cb); }

  /// Graceful close: FIN after the send queue drains.
  void close();

  /// Drops the stored application callbacks. An app closure that captures
  /// its own stream adapter — which owns this connection — would otherwise
  /// cycle back through on_data_. Called on teardown, and by the network
  /// destructor for connections that were never closed.
  void release_callbacks() noexcept {
    on_data_.set(nullptr);
    on_writable_ = nullptr;
    on_close_ = nullptr;
  }

  [[nodiscard]] ConnState state() const noexcept { return state_; }
  [[nodiscard]] const FourTuple& flow() const noexcept { return flow_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }
  [[nodiscard]] std::uint64_t bytes_acked() const noexcept { return bytes_acked_; }
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }

  /// Smoothed RTT estimate (RFC 6298-style), 0 until the first sample.
  [[nodiscard]] SimDuration srtt() const noexcept { return srtt_; }
  /// Current retransmission timeout derived from srtt/rttvar.
  [[nodiscard]] SimDuration rto() const noexcept;

  void set_send_buffer_limit(std::size_t bytes) noexcept { tx_limit_bytes_ = bytes; }

  // ---- stack internal ---------------------------------------------------
  void on_segment(const SegmentPtr& seg);
  void enter_established();
  void send_control(SegKind kind, std::uint64_t seq = 0);

 private:
  void pump();
  void transmit_chunk(std::uint64_t seq, const Buffer& chunk);
  void handle_ack(std::uint64_t ack_seq);
  void handle_data(const SegmentPtr& seg);
  void update_rtt(SimDuration sample);
  void arm_rto();
  void on_rto();
  void maybe_finish_close();
  void teardown();

  TcpNetwork& net_;
  FourTuple flow_;
  std::shared_ptr<const PathPair> to_peer_;
  ConnState state_;

  // Sender.
  std::deque<Buffer> tx_queue_;       ///< segmented chunks not yet transmitted
  std::size_t tx_queue_bytes_ = 0;
  std::size_t tx_limit_bytes_ = 4 * 1024 * 1024;
  std::map<std::uint64_t, Buffer> inflight_;  ///< seq -> chunk awaiting ack
  std::map<std::uint64_t, SimTime> sent_at_;  ///< seq -> first-transmit time
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  int dup_acks_ = 0;
  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  sim::EventHandle rto_timer_;
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  // Receiver.
  std::uint64_t rcv_nxt_ = 0;
  bool peer_fin_ = false;

  // Stats.
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_acked_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t retransmits_ = 0;

  common::HandlerSlot<void(Buffer&&)> on_data_;
  VoidFn on_writable_;
  VoidFn on_close_;
};

}  // namespace freeflow::tcp
