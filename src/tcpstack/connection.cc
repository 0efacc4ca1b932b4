#include "tcpstack/connection.h"

#include <algorithm>

#include "common/logging.h"
#include "tcpstack/network.h"

namespace freeflow::tcp {

TcpConnection::TcpConnection(TcpNetwork& net, FourTuple flow,
                             std::shared_ptr<const PathPair> to_peer, ConnState state)
    : net_(net), flow_(flow), to_peer_(std::move(to_peer)), state_(state) {}

bool TcpConnection::writable(std::size_t bytes) const noexcept {
  return state_ == ConnState::established && tx_queue_bytes_ + bytes <= tx_limit_bytes_;
}

Status TcpConnection::send(Buffer data) {
  if (state_ != ConnState::established) {
    return failed_precondition("connection not established");
  }
  if (data.empty()) return ok_status();
  if (tx_queue_bytes_ + data.size() > tx_limit_bytes_) {
    return would_block("send buffer full");
  }
  // Segment into GSO chunks; a buffer that fits one chunk is that chunk.
  const std::size_t chunk_size = net_.cost_model().tcp_chunk_bytes;
  if (data.size() <= chunk_size) {
    tx_queue_bytes_ += data.size();
    tx_queue_.push_back(std::move(data));
    pump();
    return ok_status();
  }
  // Larger buffers are cut into slices of the one block: no chunk copies.
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t n = std::min(chunk_size, data.size() - offset);
    tx_queue_bytes_ += n;
    tx_queue_.push_back(data.slice(offset, n));
    offset += n;
  }
  pump();
  return ok_status();
}

void TcpConnection::pump() {
  const auto window = static_cast<std::uint64_t>(net_.cost_model().tcp_window_chunks);
  while (snd_nxt_ - snd_una_ < window && !tx_queue_.empty()) {
    Buffer chunk = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    tx_queue_bytes_ -= chunk.size();
    const std::uint64_t seq = snd_nxt_++;
    bytes_sent_ += chunk.size();
    sent_at_.emplace(seq, net_.loop().now());
    transmit_chunk(seq, chunk);
    inflight_.emplace(seq, std::move(chunk));
  }
  if (!inflight_.empty() && !rto_timer_.pending()) arm_rto();
  if (tx_queue_.empty() && fin_pending_ && inflight_.empty()) {
    fin_pending_ = false;
    fin_sent_ = true;
    send_control(SegKind::fin);
    maybe_finish_close();
  }
}

void TcpConnection::transmit_chunk(std::uint64_t seq, const Buffer& chunk) {
  auto seg = acquire_segment();
  seg->flow = flow_;
  seg->kind = SegKind::data;
  seg->seq = seq;
  seg->payload = chunk.share();  // the wire and inflight_ hold one block
  to_peer_->data.walk(std::move(seg), [&net = net_](SegmentPtr s) { net.demux(s); });
}

void TcpConnection::send_control(SegKind kind, std::uint64_t seq) {
  auto seg = acquire_segment();
  seg->flow = flow_;
  seg->kind = kind;
  seg->seq = seq;
  to_peer_->control.walk(std::move(seg), [&net = net_](SegmentPtr s) { net.demux(s); });
}

void TcpConnection::on_segment(const SegmentPtr& seg) {
  switch (seg->kind) {
    case SegKind::data:
      handle_data(seg);
      break;
    case SegKind::ack:
      handle_ack(seg->seq);
      break;
    case SegKind::fin:
      peer_fin_ = true;
      if (on_close_) on_close_();
      maybe_finish_close();
      break;
    case SegKind::rst:
      state_ = ConnState::closed;
      if (on_close_) on_close_();
      teardown();
      break;
    case SegKind::syn:
    case SegKind::syn_ack:
    case SegKind::handshake_ack:
      // Handshake segments are handled by TcpNetwork::demux.
      break;
  }
}

void TcpConnection::handle_data(const SegmentPtr& seg) {
  if (seg->seq == rcv_nxt_) {
    ++rcv_nxt_;
    bytes_received_ += seg->payload.size();
    send_control(SegKind::ack, rcv_nxt_);
    if (on_data_) on_data_(std::move(seg->payload));
  } else {
    // Go-back-N: out-of-order chunks are dropped; re-ack the expected seq.
    send_control(SegKind::ack, rcv_nxt_);
  }
}

void TcpConnection::handle_ack(std::uint64_t ack_seq) {
  if (ack_seq > snd_una_) {
    dup_acks_ = 0;
    while (!inflight_.empty() && inflight_.begin()->first < ack_seq) {
      const std::uint64_t seq = inflight_.begin()->first;
      // RTT sample from chunks acked on their first transmission (Karn).
      auto sit = sent_at_.find(seq);
      if (sit != sent_at_.end()) {
        update_rtt(net_.loop().now() - sit->second);
        sent_at_.erase(sit);
      }
      bytes_acked_ += inflight_.begin()->second.size();
      inflight_.erase(inflight_.begin());
    }
    snd_una_ = ack_seq;
    rto_timer_.cancel();
    if (!inflight_.empty()) arm_rto();
    pump();
    if (on_writable_ && writable()) on_writable_();
    if (state_ == ConnState::closing) maybe_finish_close();
  } else if (ack_seq == snd_una_ && !inflight_.empty()) {
    if (++dup_acks_ >= 3) {
      dup_acks_ = 0;
      // Fast retransmit of the first unacked chunk.
      auto it = inflight_.find(snd_una_);
      if (it != inflight_.end()) {
        ++retransmits_;
        sent_at_.erase(it->first);
        transmit_chunk(it->first, it->second);
      }
    }
  }
}

SimDuration TcpConnection::rto() const noexcept {
  if (srtt_ == 0) return net_.cost_model().tcp_rto_ns;  // no sample yet
  // RFC 6298: RTO = SRTT + 4*RTTVAR, floored so jitter can't spuriously fire.
  const SimDuration computed = srtt_ + 4 * rttvar_;
  return std::max<SimDuration>(computed, 200 * k_microsecond);
}

void TcpConnection::update_rtt(SimDuration sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  const SimDuration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
  rttvar_ = (3 * rttvar_ + err) / 4;        // beta = 1/4
  srtt_ = (7 * srtt_ + sample) / 8;         // alpha = 1/8
}

void TcpConnection::arm_rto() {
  rto_timer_.cancel();
  auto self = weak_from_this();
  rto_timer_ = net_.loop().schedule_cancellable(rto(), [self]() {
    if (auto conn = self.lock()) conn->on_rto();
  });
}

void TcpConnection::on_rto() {
  if (inflight_.empty()) return;
  // Go-back-N: retransmit everything outstanding, in order. Retransmitted
  // chunks lose their RTT-sample eligibility (Karn's algorithm).
  for (const auto& [seq, chunk] : inflight_) {
    ++retransmits_;
    sent_at_.erase(seq);
    transmit_chunk(seq, chunk);
  }
  // Exponential backoff via rttvar inflation on timeout.
  rttvar_ = std::max<SimDuration>(rttvar_ * 2, k_microsecond);
  arm_rto();
}

void TcpConnection::close() {
  if (state_ == ConnState::closed || state_ == ConnState::closing) return;
  state_ = ConnState::closing;
  if (tx_queue_.empty() && inflight_.empty()) {
    fin_sent_ = true;
    send_control(SegKind::fin);
    maybe_finish_close();
  } else {
    fin_pending_ = true;
  }
}

void TcpConnection::maybe_finish_close() {
  if (fin_sent_ && peer_fin_ && inflight_.empty() && tx_queue_.empty()) {
    state_ = ConnState::closed;
    teardown();
  }
}

void TcpConnection::teardown() {
  rto_timer_.cancel();
  net_.forget(flow_);
  // The connection just left the demux; nothing can invoke the app callbacks
  // again, and keeping them would pin any stream adapter captured inside.
  release_callbacks();
}

void TcpConnection::enter_established() { state_ = ConnState::established; }

}  // namespace freeflow::tcp
