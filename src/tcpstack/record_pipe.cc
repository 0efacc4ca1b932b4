#include "tcpstack/record_pipe.h"

#include "common/framing.h"
#include "common/logging.h"

namespace freeflow::tcp {

void RecordPipe::attach(TcpConnection::Ptr conn) {
  conn_ = std::move(conn);
  std::weak_ptr<RecordPipe> self = weak_from_this();
  conn_->set_on_data([self](Buffer&& data) {
    auto pipe = self.lock();
    if (pipe == nullptr) return;
    append_stream_bytes(pipe->rx_accum_, std::move(data));
    Buffer record;
    while (pop_record(pipe->rx_accum_, record)) pipe->on_record_(std::move(record));
  });
  conn_->set_on_writable([self]() {
    auto pipe = self.lock();
    if (pipe == nullptr) return;
    pipe->pump();
    pipe->on_writable_();
  });
  conn_->set_on_close([self]() {
    auto pipe = self.lock();
    if (pipe != nullptr && pipe->on_close_) pipe->on_close_();
  });
  pump();
}

void RecordPipe::send(ByteSpan head, ByteSpan body) {
  queue_.push_back(frame_record(head, body));
  pump();
}

void RecordPipe::pump() {
  if (conn_ == nullptr) return;
  // writable(n) is exactly send()'s admission test: a frame leaves the
  // queue only when the connection takes it.
  while (!queue_.empty() && conn_->writable(queue_.front().size())) {
    FF_CHECK(conn_->send(std::move(queue_.front())).is_ok());
    queue_.pop_front();
  }
}

void RecordPipe::close() noexcept {
  queue_.clear();
  if (conn_ == nullptr) return;
  conn_->release_callbacks();
  conn_->close();
}

}  // namespace freeflow::tcp
