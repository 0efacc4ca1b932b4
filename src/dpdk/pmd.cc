#include "dpdk/pmd.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"

namespace freeflow::dpdk {

DpdkPort::DpdkPort(fabric::Host& host)
    : host_(host), pmd_core_(host.loop(), host.name() + "/pmd", host.cost_model().core_rate, 1) {
  host_.nic().set_rx_handler(fabric::PacketKind::dpdk_frame,
                             [this](fabric::PacketPtr p) { on_frame(std::move(p)); });
}

void DpdkPort::start() {
  if (running_) return;
  FF_CHECK(host_.nic().capabilities().dpdk);
  running_ = true;
  started_at_ = host_.loop().now();
}

void DpdkPort::stop() {
  if (!running_) return;
  spin_accum_ns_ += static_cast<double>(host_.loop().now() - started_at_);
  running_ = false;
}

double DpdkPort::spin_core_busy_ns() const noexcept {
  double total = spin_accum_ns_;
  if (running_) total += static_cast<double>(host_.loop().now() - started_at_);
  return total;
}

Status DpdkPort::send(fabric::HostId dst, Buffer message, std::uint32_t tenant) {
  if (!running_) return failed_precondition("PMD not running");
  tx_queue_.push_back(TxMessage{dst, std::move(message), tenant});
  pump_tx();
  return ok_status();
}

void DpdkPort::pump_tx() {
  if (tx_active_ || tx_queue_.empty()) return;
  tx_active_ = true;
  TxMessage next = std::move(tx_queue_.front());
  tx_queue_.pop_front();

  const std::uint64_t msg_id = next_msg_id_++;
  stream_frames(std::move(next.data), msg_id, next.dst, next.tenant, 0);
}

// One burst frame per call; the PMD-core completion re-invokes for the next
// offset. The pending event holds the port, the frame, and the source
// buffer — no callback ever owns itself (teardown protocol).
void DpdkPort::stream_frames(Buffer msg, std::uint64_t msg_id, fabric::HostId dst,
                             std::uint32_t tenant, std::uint32_t offset) {
  const auto total = static_cast<std::uint32_t>(msg.size());
  const std::uint32_t n = total == 0 ? 0 : std::min(k_frame_payload, total - offset);
  auto frame = acquire_frame();
  frame->msg_id = msg_id;
  frame->total_len = total;
  frame->offset = offset;
  frame->last = offset + n >= total;
  frame->tenant = tenant;
  frame->payload = msg.slice(offset, n);

  const auto& m = host_.cost_model();
  pmd_core_.submit(m.dpdk_pkt_cost(n), [this, frame, msg = std::move(msg), dst]() mutable {
    auto packet = fabric::acquire_packet();
    packet->dst_host = dst;
    packet->wire_bytes = static_cast<std::uint32_t>(frame->payload.size()) + k_frame_header;
    packet->kind = fabric::PacketKind::dpdk_frame;
    packet->tenant = frame->tenant;
    const bool more = !frame->last;
    const std::uint64_t id = frame->msg_id;
    const std::uint32_t cls = frame->tenant;
    const auto next = frame->offset + static_cast<std::uint32_t>(frame->payload.size());
    packet->body = frame;
    host_.nic().send(std::move(packet));
    if (more) {
      stream_frames(std::move(msg), id, dst, cls, next);
    } else {
      tx_active_ = false;
      if (tx_queue_.size() < 32 && on_tx_space_) on_tx_space_();
      pump_tx();
    }
  });
}

void DpdkPort::on_frame(fabric::PacketPtr packet) {
  if (!running_) return;  // frames hitting a stopped PMD are lost
  auto frame = fabric::body_as<DpdkFrame>(packet);
  const fabric::HostId src = packet->src_host;
  const auto& m = host_.cost_model();

  // Frames wait (on average half a poll interval) for the next rx_burst,
  // then cost PMD processing.
  host_.loop().schedule(m.dpdk_poll_gap_ns / 2, [this, frame, src, &m]() {
    pmd_core_.submit(
        m.dpdk_pkt_cost(static_cast<std::uint32_t>(frame->payload.size())),
        [this, frame, src]() {
          auto& slot = rx_[{src, frame->msg_id}];
          if (slot.data.size() != frame->total_len) {
            slot.data = Buffer::for_overwrite(frame->total_len);
          }
          // A lost frame leaves a hole that is delivered as zeros: fill any
          // gap this frame skips (and the tail, at the last frame).
          const std::uint32_t end =
              frame->offset + static_cast<std::uint32_t>(frame->payload.size());
          slot.zero_gap(frame->offset);
          if (!frame->payload.empty()) {
            std::memcpy(slot.data.data() + frame->offset, frame->payload.view().data(),
                        frame->payload.size());
          }
          slot.filled = std::max(slot.filled, end);
          slot.received += static_cast<std::uint32_t>(frame->payload.size());
          if (frame->last) {
            slot.zero_gap(frame->total_len);
            Buffer out = std::move(slot.data);
            rx_.erase({src, frame->msg_id});
            ++delivered_;
            if (on_message_) on_message_(src, std::move(out));
          }
        });
  });
}

}  // namespace freeflow::dpdk
