#include "shm/channel.h"

namespace freeflow::shm {

ShmLane::ShmLane(fabric::Host& host, std::size_t ring_bytes)
    : host_(host),
      tx_thread_(host.cpu()),
      rx_thread_(host.cpu()),
      capacity_(std::bit_ceil(ring_bytes)) {
  FF_CHECK(ring_bytes >= 64);
}

bool ShmLane::can_send(std::size_t payload) const noexcept {
  return capacity_ - used_ >= record_size(payload);
}

Status ShmLane::send(ByteSpan head, ByteSpan body) {
  if (!can_send(head.size() + body.size())) return would_block("shm lane full");
  enqueue(Buffer::gather(head, body));
  return ok_status();
}

Status ShmLane::send(Buffer&& message) {
  if (!can_send(message.size())) return would_block("shm lane full");
  enqueue(std::move(message));
  return ok_status();
}

void ShmLane::enqueue(Buffer&& message) {
  const std::size_t size = message.size();
  used_ += record_size(size);
  queue_.push_back(std::move(message));

  const auto& model = host_.cost_model();
  const double side_bus = static_cast<double>(size) * model.shm_bus_bytes_factor / 2.0;
  const double send_cpu =
      model.shm_post_ns + model.shm_copy_ns_per_byte * static_cast<double>(size);

  tx_thread_.submit(send_cpu,
                    [this, size]() {
                      // Cross-core notification, then the receiver's poll +
                      // copy-out. The loop hop escapes the lane's own
                      // executors, so it alone carries a keep-alive: null for
                      // stack/unique-owned lanes, the lane itself when shared.
                      auto self = weak_from_this().lock();
                      host_.loop().schedule(host_.cost_model().shm_wakeup_ns,
                                            [this, self, size]() { deliver_one(size); });
                    },
                    sender_account_, &host_.membus(), side_bus);
}

void ShmLane::deliver_one(std::size_t payload_size) {
  const auto& model = host_.cost_model();
  const double side_bus =
      static_cast<double>(payload_size) * model.shm_bus_bytes_factor / 2.0;
  const double recv_cpu =
      model.shm_poll_ns + model.shm_copy_ns_per_byte * static_cast<double>(payload_size);

  rx_thread_.submit(recv_cpu, [this]() {
    // Pin the lane across the handlers: delivering a teardown message (bye)
    // may drop the channel's last reference to us mid-callback. Acquired at
    // run time, not capture time, so queued jobs still don't pin their owner.
    auto self = weak_from_this().lock();
    Buffer out = std::move(queue_.front());
    queue_.pop_front();
    used_ -= record_size(out.size());
    ++delivered_;
    // Invoked in place: a handler that replaces itself (a channel handshake
    // swapping in the data-phase handler) is swapped when its call returns.
    if (on_message_) on_message_(std::move(out));
    if (on_space_) on_space_();
  }, receiver_account_, &host_.membus(), side_bus);
}

}  // namespace freeflow::shm
