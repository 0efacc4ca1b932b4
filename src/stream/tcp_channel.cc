#include "stream/tcp_channel.h"

#include "common/framing.h"

namespace freeflow::stream {

std::shared_ptr<TcpFallbackChannel> TcpFallbackChannel::make(
    orch::ContainerId peer, tcp::TcpConnection::Ptr conn) {
  auto channel =
      std::shared_ptr<TcpFallbackChannel>(new TcpFallbackChannel(peer, std::move(conn)));
  channel->conn_->set_send_buffer_limit(k_send_buffer);
  channel->wire();
  return channel;
}

TcpFallbackChannel::~TcpFallbackChannel() {
  if (conn_ != nullptr) conn_->release_callbacks();
}

void TcpFallbackChannel::wire() {
  std::weak_ptr<TcpFallbackChannel> self = weak_from_this();
  conn_->set_on_data([self](Buffer&& data) {
    if (auto ch = self.lock()) ch->on_bytes(std::move(data));
  });
  conn_->set_on_writable([self]() {
    if (auto ch = self.lock()) ch->on_conn_writable();
  });
  conn_->set_on_close([self]() {
    if (auto ch = self.lock()) ch->on_conn_closed();
  });
}

void TcpFallbackChannel::on_conn_closed() {
  if (closed_) return;
  conn_down_ = true;
  overflow_.clear();
  // Upgrade FIN (make-before-break): stay quietly attached until the RC
  // channel replaces us. Sends keep "succeeding" — the conduit retains
  // every record and replays them over the new channel.
  if (expect_close_) return;
  fail();
}

Status TcpFallbackChannel::send(ByteSpan head, ByteSpan body) {
  if (closed_) return failed_precondition("stream tcp channel closed");
  overflow_.push_back(frame_record(head, body));
  // Drain, but never notify from here: firing on_space_ inside send() would
  // re-enter the caller's own pump loop before it has accounted for this
  // send (a writability-paced sender would duplicate its current chunk).
  // The caller re-checks writable() itself; notifications belong to the
  // conn's writability *transition* below.
  pump();
  return ok_status();
}

bool TcpFallbackChannel::writable() const noexcept {
  return !closed_ && !conn_down_ && overflow_.empty() && conn_->writable();
}

void TcpFallbackChannel::on_conn_writable() {
  // The conn fires this only on a blocked→writable transition, so the
  // channel was necessarily unwritable before: safe to notify.
  pump();
  if (writable() && on_space_) on_space_();
}

void TcpFallbackChannel::pump() {
  if (closed_ || conn_down_) return;
  // writable(n) is exactly send()'s admission test: a frame leaves the
  // queue only when the connection takes it.
  while (!overflow_.empty() && conn_->writable(overflow_.front().size())) {
    const Status s = conn_->send(std::move(overflow_.front()));
    FF_CHECK(s.is_ok());
    overflow_.pop_front();
  }
}

void TcpFallbackChannel::on_bytes(Buffer&& data) {
  append_stream_bytes(rx_accum_, std::move(data));
  Buffer record;
  while (pop_record(rx_accum_, record)) {
    // Re-read per record: a delivery may re-wire this channel (close or
    // attach elsewhere) mid-batch.
    if (closed_) return;
    if (on_message_) on_message_(std::move(record));
  }
}

void TcpFallbackChannel::close() noexcept {
  if (closed_) return;
  closed_ = true;
  overflow_.clear();
  on_message_ = nullptr;
  on_space_ = nullptr;
  if (conn_ != nullptr) {
    conn_->release_callbacks();
    conn_->close();
  }
}

}  // namespace freeflow::stream
