#include "stream/tcp_channel.h"

namespace freeflow::stream {

std::shared_ptr<TcpFallbackChannel> TcpFallbackChannel::make(tcp::TcpConnection::Ptr conn) {
  auto channel = std::shared_ptr<TcpFallbackChannel>(new TcpFallbackChannel());
  conn->set_send_buffer_limit(k_send_buffer);
  // Each hook holds the channel weakly and for the whole call: a delivery
  // can drop the channel's last reference.
  std::weak_ptr<TcpFallbackChannel> self = channel;
  channel->pipe_ = std::make_shared<tcp::RecordPipe>(
      [self](Buffer&& record) {
        // Re-read per record: a delivery may re-wire this channel (close
        // or attach elsewhere) mid-batch.
        auto ch = self.lock();
        if (ch != nullptr && !ch->closed_ && ch->on_message_) {
          ch->on_message_(std::move(record));
        }
      },
      [self]() {
        // The pipe has pumped; the conn fires this only on a blocked to
        // writable transition, so the channel was unwritable before: safe
        // to notify.
        auto ch = self.lock();
        if (ch != nullptr && ch->writable() && ch->on_space_) ch->on_space_();
      },
      [self]() {
        if (auto ch = self.lock()) ch->on_conn_closed();
      });
  channel->pipe_->attach(std::move(conn));
  return channel;
}

void TcpFallbackChannel::on_conn_closed() {
  if (closed_) return;
  conn_down_ = true;
  pipe_->clear();
  // Upgrade FIN (make-before-break): stay quietly attached until the RC
  // channel replaces us. Sends keep "succeeding" — the conduit retains
  // every record and replays them over the new channel.
  if (expect_close_) return;
  fail();
}

Status TcpFallbackChannel::send(ByteSpan head, ByteSpan body) {
  if (closed_) return failed_precondition("stream tcp channel closed");
  // Drain, but never notify from here: firing on_space_ inside send() would
  // re-enter the caller's own pump loop before it has accounted for this
  // send (a writability-paced sender would duplicate its current chunk).
  // The caller re-checks writable() itself; notifications belong to the
  // conn's writability *transition* (the pipe's hook in make()).
  if (!conn_down_) pipe_->send(head, body);
  return ok_status();
}

bool TcpFallbackChannel::writable() const noexcept {
  return !closed_ && !conn_down_ && pipe_->writable();
}

void TcpFallbackChannel::close() noexcept {
  if (closed_) return;
  closed_ = true;
  on_message_ = nullptr;
  on_space_ = nullptr;
  pipe_->close();
}

}  // namespace freeflow::stream
