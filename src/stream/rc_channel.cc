#include "stream/rc_channel.h"

#include "common/logging.h"
#include "core/wire.h"

namespace freeflow::stream {

std::shared_ptr<RcStreamChannel> RcStreamChannel::make(rdma::RdmaDevice& device,
                                                       sim::UsageAccount* account,
                                                       std::uint32_t tenant) {
  auto channel = std::shared_ptr<RcStreamChannel>(new RcStreamChannel());
  channel->slots_ = std::make_shared<rdma::SlotQp>(device, account, k_slot_bytes, k_slots,
                                                   k_slots + k_credit_reserve, tenant);
  // A delivery can drop the last reference to the channel, so each hook
  // holds it weakly and for the whole call.
  std::weak_ptr<RcStreamChannel> self = channel;
  channel->slots_->start(
      [self]() {
        if (auto ch = self.lock()) ch->on_wake();
      },
      [self](Buffer&& message) {
        auto ch = self.lock();
        return ch != nullptr && ch->on_slot(std::move(message));
      });
  return channel;
}

Status RcStreamChannel::connect(fabric::HostId remote_host, rdma::QpNum remote_qp) {
  const Status s = slots_->qp()->connect(remote_host, remote_qp);
  if (s.is_ok()) pump();
  return s;
}

Status RcStreamChannel::send(Message&& message) {
  if (closed_) return failed_precondition("stream rc channel closed");
  FF_CHECK(message.head().size() == core::WireHeader::k_size);
  if (core::WireHeader::decode(message.head().data()).seq == 0) {
    // Unsequenced: needs a slot but no credit, and goes ahead of queued data.
    if (control_.empty() && slots_->can_post()) {
      post(message);
    } else {
      control_.push_back(std::move(message));
      pump();
    }
    return ok_status();
  }
  if (queue_.empty() && can_post_data()) {
    post(message);
    --credits_;
    return ok_status();
  }
  queue_.push_back(std::move(message));
  pump();
  return ok_status();
}

void RcStreamChannel::post(const Message& message) {
  slots_->post({message.head(), message.body().view()});
}

bool RcStreamChannel::writable() const noexcept {
  return !closed_ && queue_.empty() && can_post_data();
}

bool RcStreamChannel::can_post_data() const noexcept {
  return slots_->can_post() && credits_ > 0;
}

void RcStreamChannel::pump() {
  if (closed_) return;
  while (!control_.empty() && slots_->can_post()) {
    post(control_.front());
    control_.pop_front();
  }
  while (!queue_.empty() && can_post_data()) {
    post(queue_.front());
    queue_.pop_front();
    --credits_;
  }
}

void RcStreamChannel::return_credits() {
  if (since_credit_ == 0 || closed_) return;
  // Credit grants are unsequenced: they skip the data-credit check (the
  // peer's reserve buffers cover them) and overtake queued data.
  core::WireHeader h;
  h.type = core::VMsg::rc_credit;
  h.id = since_credit_;
  since_credit_ = 0;
  send(Message(core::encode_header(h)));
}

void RcStreamChannel::on_wake() {
  const bool was_writable = writable();
  const bool completions_ok = slots_->poll();
  if (closed_) return;
  if (since_credit_ >= k_credit_batch) return_credits();
  pump();
  if (!was_writable && writable() && on_space_) on_space_();
  if (!completions_ok && !closed_) {
    // The QP errored (remote death, access fault): hand the stream back to
    // the conduit's failover path exactly like a failed agent lane.
    fail();
  }
}

bool RcStreamChannel::on_slot(Buffer&& message) {
  FF_CHECK(message.size() >= core::WireHeader::k_size);  // senders check
  const core::WireHeader h = core::WireHeader::decode(message.view().data());
  if (h.seq == 0 && h.type == core::VMsg::rc_credit) {
    credits_ += static_cast<std::uint32_t>(h.id);
    return true;
  }
  // Only sequenced messages consumed a credit; unsequenced ones rode
  // the reserve and earn the sender nothing back.
  if (h.seq != 0) ++since_credit_;
  // Re-read per delivery: an attach_channel (e.g. the first-message
  // router handing this channel to its conduit) re-wires us mid-batch.
  if (closed_) return false;
  if (on_message_) on_message_(std::move(message));
  return !closed_;
}

void RcStreamChannel::close() noexcept {
  if (closed_) return;
  closed_ = true;
  control_.clear();
  queue_.clear();
  on_message_ = nullptr;
  on_space_ = nullptr;
  slots_->unhook();
}

}  // namespace freeflow::stream
