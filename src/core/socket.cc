#include "core/socket.h"

#include <algorithm>

#include "core/container_net.h"

namespace freeflow::core {

FlowSocket::FlowSocket(ContainerNet& net, ConduitPtr conduit)
    : net_(net), conduit_(std::move(conduit)) {}

void FlowSocket::bind() {
  auto self = weak_from_this();
  conduit_->set_on_message([self](const WireHeader& h, Buffer&& payload) {
    if (auto sock = self.lock()) sock->handle_message(h, std::move(payload));
  });
  conduit_->set_on_closed([self](CloseReason reason) {
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

void FlowSocket::release_callbacks() noexcept {
  on_data_ = nullptr;
  on_close_ = nullptr;
}

void FlowSocket::set_on_space(VoidFn cb) { conduit_->set_on_space(std::move(cb)); }

Status FlowSocket::send(Buffer data) {
  if (!open_) return failed_precondition("socket closed");
  // Each chunk is handed to the conduit as a slice of the caller's block,
  // which stays pinned until its last slice is released. A conduit that
  // retains holds each chunk until the peer acks it, so the chunks of a
  // larger buffer are copied out instead: acked chunks then free their own
  // bytes rather than keeping the whole block until the last ack.
  const bool copy_chunks = data.size() > k_chunk && conduit_->retains();
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t n = std::min(k_chunk, data.size() - offset);
    WireHeader h;
    h.type = VMsg::sock_data;
    if (copy_chunks) {
      conduit_->send(h, data.view().subspan(offset, n));
    } else {
      conduit_->send(h, data.slice(offset, n));
    }
    offset += n;
  }
  bytes_sent_ += data.size();
  return ok_status();
}

void FlowSocket::close() {
  if (!open_) return;
  WireHeader h;
  h.type = VMsg::sock_fin;
  conduit_->send(h);
  open_ = false;
  on_data_ = nullptr;
  // The fin is queued ahead of the conduit's bye, so the peer sees an
  // orderly close before its side of the conduit is torn down. on_close_
  // stays armed: it reports the handshake's outcome (app_close once the
  // peer acks the bye, drain_timeout if it never does).
  conduit_->close();
}

void FlowSocket::handle_message(const WireHeader& h, Buffer&& payload) {
  switch (h.type) {
    case VMsg::sock_data:
      bytes_received_ += payload.size();
      if (on_data_) on_data_(std::move(payload));
      return;
    case VMsg::sock_fin: {
      open_ = false;
      // Copy: the handler may reset callbacks or drop this socket.
      auto handler = on_close_;
      if (handler) handler(CloseReason::peer_bye);
      release_callbacks();
      return;
    }
    default:
      break;  // handshake leftovers are ignored
  }
}

}  // namespace freeflow::core
