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

void ShmLane::send(Message&& message) {
  if (overflow_.empty() && can_send(message.size())) {
    enqueue(std::move(message));
  } else {
    overflow_.push_back(std::move(message));
  }
}

void ShmLane::enqueue(Message&& message) {
  const std::size_t size = message.size();
  used_ += record_size(size);
  queue_.push_back(std::move(message));

  const auto& model = host_.cost_model();
  const double side_bus = static_cast<double>(size) * model.shm_bus_bytes_factor / 2.0;
  const double send_cpu =
      model.shm_post_ns + model.shm_copy_ns_per_byte * static_cast<double>(size);

  tx_thread_.submit(send_cpu,
                    [this, size, epoch = epoch_]() {
                      // Cross-core notification, then the receiver's poll +
                      // copy-out. The loop hop escapes the lane's own
                      // executors, so it alone carries a keep-alive: null for
                      // stack/unique-owned lanes, the lane itself when shared.
                      auto self = weak_from_this().lock();
                      host_.loop().schedule(host_.cost_model().shm_wakeup_ns,
                                            [this, self, size, epoch]() {
                                              deliver_one(size, epoch);
                                            });
                    },
                    sender_account_, &host_.membus(), side_bus);
}

void ShmLane::deliver_one(std::size_t payload_size, std::uint64_t epoch) {
  if (epoch != epoch_) return;  // its message was taken back
  const auto& model = host_.cost_model();
  const double side_bus =
      static_cast<double>(payload_size) * model.shm_bus_bytes_factor / 2.0;
  const double recv_cpu =
      model.shm_poll_ns + model.shm_copy_ns_per_byte * static_cast<double>(payload_size);

  rx_thread_.submit(recv_cpu, [this, epoch]() {
    if (epoch != epoch_) return;
    // Pin the lane across the handlers: delivering a teardown message (bye)
    // may drop the channel's last reference to us mid-callback. Acquired at
    // run time, not capture time, so queued jobs still don't pin their owner.
    auto self = weak_from_this().lock();
    Message out = std::move(queue_.front());
    queue_.pop_front();
    used_ -= record_size(out.size());
    ++delivered_;
    // Invoked in place: a handler that replaces itself (a channel handshake
    // swapping in the data-phase handler) is swapped when its call returns.
    if (on_message_) on_message_(std::move(out));
    while (!overflow_.empty() && can_send(overflow_.front().size())) {
      enqueue(std::move(overflow_.front()));
      overflow_.pop_front();
    }
    if (on_space_) on_space_();
  }, receiver_account_, &host_.membus(), side_bus);
}

std::vector<Message> ShmLane::take_back() {
  std::vector<Message> unsent(queue_.size() + overflow_.size());
  auto out = unsent.begin();
  for (auto* ring : {&queue_, &overflow_}) {
    for (; !ring->empty(); ring->pop_front()) *out++ = std::move(ring->front());
  }
  used_ = 0;
  ++epoch_;
  return unsent;
}

void ShmLane::close_sender() noexcept {
  on_space_.set(nullptr);
  overflow_.clear();
}

}  // namespace freeflow::shm
