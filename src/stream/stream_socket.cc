#include "stream/stream_socket.h"

#include <algorithm>

namespace freeflow::stream {

StreamSocket::StreamSocket(core::ConduitPtr conduit, telemetry::Counter* rx_rdma_bytes,
                           telemetry::Counter* rx_tcp_bytes)
    : conduit_(std::move(conduit)) {
  if (rx_rdma_bytes != nullptr) ctr_rx_rdma_ = rx_rdma_bytes;
  if (rx_tcp_bytes != nullptr) ctr_rx_tcp_ = rx_tcp_bytes;
}

void StreamSocket::bind() {
  auto self = weak_from_this();
  conduit_->set_on_message([self](const core::WireHeader& h, Buffer&& payload) {
    if (auto sock = self.lock()) sock->handle_message(h, std::move(payload));
  });
  conduit_->set_on_closed([self](core::CloseReason reason) {
    auto sock = self.lock();
    if (sock == nullptr) return;
    sock->open_ = false;
    // Move the handler out first: it fires at most once, even if the
    // conduit close races a sock_fin already seen by handle_message.
    auto handler = std::move(sock->on_close_);
    sock->release_callbacks();
    if (handler) handler(reason);
  });
}

void StreamSocket::release_callbacks() noexcept {
  on_data_ = nullptr;
  on_close_ = nullptr;
  on_control_ = nullptr;
}

Status StreamSocket::send(Buffer data) {
  if (!open_) return failed_precondition("stream socket closed");
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t n = std::min(k_chunk, data.size() - offset);
    core::WireHeader h;
    h.type = core::VMsg::sock_data;
    conduit_->send(h, ByteSpan{data.data() + offset, n});
    offset += n;
  }
  bytes_sent_ += data.size();
  return ok_status();
}

void StreamSocket::close() {
  if (!open_) return;
  core::WireHeader h;
  h.type = core::VMsg::sock_fin;
  conduit_->send(h);
  open_ = false;
  on_data_ = nullptr;
  on_control_ = nullptr;
  // The fin is queued ahead of the conduit's bye; on_close_ stays armed to
  // report the close handshake's outcome (see FlowSocket::close).
  conduit_->close();
}

void StreamSocket::handle_message(const core::WireHeader& h, Buffer&& payload) {
  switch (h.type) {
    case core::VMsg::sock_data: {
      bytes_received_ += payload.size();
      // Split by the transport this chunk actually arrived on — the channel
      // currently attached is the one that just delivered it.
      if (conduit_->transport() == orch::Transport::rdma) {
        bytes_rdma_ += payload.size();
        ctr_rx_rdma_->inc(payload.size());
      } else {
        bytes_tcp_ += payload.size();
        ctr_rx_tcp_->inc(payload.size());
      }
      if (on_data_) on_data_(std::move(payload));
      return;
    }
    case core::VMsg::sock_fin: {
      open_ = false;
      // Copy: the handler may reset callbacks or drop this socket.
      auto handler = on_close_;
      if (handler) handler(core::CloseReason::peer_bye);
      release_callbacks();
      return;
    }
    case core::VMsg::rc_offer:
    case core::VMsg::rc_answer: {
      if (on_control_) on_control_(h);
      return;
    }
    default:
      break;  // handshake leftovers are ignored
  }
}

}  // namespace freeflow::stream
