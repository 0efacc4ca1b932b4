#include "stream/rc_channel.h"

#include <cstring>

#include "common/logging.h"
#include "core/wire.h"

namespace freeflow::stream {

RcStreamChannel::RcStreamChannel(rdma::RdmaDevice& device, sim::UsageAccount* account,
                                 orch::ContainerId peer, std::uint32_t tenant)
    : device_(device), account_(account), peer_(peer) {
  send_mr_ = device_.reg_mr(k_slot_bytes * k_slots);
  recv_mr_ = device_.reg_mr(k_slot_bytes * (k_slots + k_credit_reserve));
  send_cq_ = device_.create_cq(k_slots * 4);
  recv_cq_ = device_.create_cq((k_slots + k_credit_reserve) * 4);
  rdma::QpAttr attr;
  attr.max_send_wr = k_slots * 2;
  attr.max_recv_wr = (k_slots + k_credit_reserve) * 2;
  attr.tenant = tenant;
  qp_ = device_.create_qp(send_cq_, recv_cq_, attr);
  free_slots_.reserve(k_slots);
  for (std::uint32_t s = 0; s < k_slots; ++s) free_slots_.push_back(s);
}

RcStreamChannel::~RcStreamChannel() {
  send_cq_->set_notify(nullptr);
  recv_cq_->set_notify(nullptr);
}

void RcStreamChannel::start() {
  for (std::uint32_t s = 0; s < k_slots + k_credit_reserve; ++s) repost_recv(s);
  std::weak_ptr<RcStreamChannel> self = weak_from_this();
  auto notify = [self]() {
    if (auto ch = self.lock()) ch->schedule_poll();
  };
  send_cq_->set_notify(notify);
  recv_cq_->set_notify(notify);
}

Status RcStreamChannel::connect(fabric::HostId remote_host, rdma::QpNum remote_qp) {
  const Status s = qp_->connect(remote_host, remote_qp);
  if (s.is_ok()) pump();
  return s;
}

void RcStreamChannel::repost_recv(std::uint32_t slot) {
  rdma::RecvWr wr;
  wr.wr_id = slot;
  wr.local = {recv_mr_, slot * k_slot_bytes, k_slot_bytes};
  const Status posted = qp_->post_recv(wr, account_);
  FF_CHECK(posted.is_ok());
}

Status RcStreamChannel::send(ByteSpan head, ByteSpan body) {
  if (closed_) return failed_precondition("stream rc channel closed");
  FF_CHECK(head.size() + body.size() <= k_slot_bytes);
  if (queue_.empty() && can_post_data()) {
    post_to_slot(head, body);
    --credits_;
    return ok_status();
  }
  queue_.push_back(Buffer::gather(head, body));
  pump();
  return ok_status();
}

bool RcStreamChannel::writable() const noexcept {
  return !closed_ && queue_.empty() && can_post_data();
}

bool RcStreamChannel::can_post_data() const noexcept {
  return qp_->state() == rdma::QpState::ready && !free_slots_.empty() && credits_ > 0;
}

void RcStreamChannel::post_to_slot(ByteSpan head, ByteSpan body) {
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const std::size_t size = head.size() + body.size();
  auto dst = send_mr_->slice(slot * k_slot_bytes, size);
  FF_CHECK(dst.is_ok());
  if (!head.empty()) std::memcpy(dst->data(), head.data(), head.size());
  if (!body.empty()) std::memcpy(dst->data() + head.size(), body.data(), body.size());

  rdma::SendWr wr;
  wr.wr_id = slot;
  wr.opcode = rdma::Opcode::send;
  wr.local = {send_mr_, slot * k_slot_bytes, size};
  wr.signaled = true;
  const Status posted = qp_->post_send(wr, account_);
  FF_CHECK(posted.is_ok());
}

void RcStreamChannel::pump() {
  if (closed_) return;
  while (!queue_.empty() && can_post_data()) {
    post_to_slot(queue_.front().view());
    queue_.pop_front();
    --credits_;
  }
}

void RcStreamChannel::return_credits() {
  if (since_credit_ == 0 || closed_) return;
  if (free_slots_.empty() || qp_->state() != rdma::QpState::ready) return;
  // Credit grants bypass the data-credit check (the peer reserves receive
  // buffers for them) but still occupy a local send slot; if none is free
  // the next poll's completions retry.
  core::WireHeader h;
  h.type = core::VMsg::rc_credit;
  h.id = since_credit_;
  post_to_slot(core::encode_header(h));
  since_credit_ = 0;
}

void RcStreamChannel::schedule_poll() {
  if (poll_scheduled_ || closed_) return;
  poll_scheduled_ = true;
  std::weak_ptr<RcStreamChannel> self = weak_from_this();
  device_.host().loop().schedule(device_.host().cost_model().agent_wakeup_ns, [self]() {
    auto ch = self.lock();
    if (ch == nullptr) return;
    ch->poll_scheduled_ = false;
    ch->poll_cqs();
  });
}

void RcStreamChannel::poll_cqs() {
  auto& host = device_.host();
  const auto& m = host.cost_model();
  const bool was_writable = writable();
  rdma::WorkCompletion wcs[16];

  for (;;) {
    const std::size_t n = send_cq_->poll(wcs);
    if (n == 0) break;
    host.cpu().submit(m.rdma_poll_ns * static_cast<double>(n), nullptr, account_);
    for (std::size_t i = 0; i < n; ++i) {
      if (wcs[i].status != rdma::WcStatus::success) completion_error_ = true;
      free_slots_.push_back(static_cast<std::uint32_t>(wcs[i].wr_id));
    }
  }
  for (;;) {
    const std::size_t n = recv_cq_->poll(wcs);
    if (n == 0) break;
    host.cpu().submit(m.rdma_poll_ns * static_cast<double>(n), nullptr, account_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto slot = static_cast<std::uint32_t>(wcs[i].wr_id);
      Buffer message(recv_mr_->data().data() + slot * k_slot_bytes, wcs[i].byte_len);
      repost_recv(slot);
      if (wcs[i].status != rdma::WcStatus::success) {
        completion_error_ = true;
        continue;
      }
      auto parsed = core::parse_message(message.view());
      if (parsed.is_ok() && parsed->header.type == core::VMsg::rc_credit &&
          parsed->header.seq == 0) {
        credits_ += static_cast<std::uint32_t>(parsed->header.id);
        continue;
      }
      ++since_credit_;
      // Re-read per delivery: an attach_channel (e.g. the rc_switch tap
      // routing this channel onto its conduit) re-wires us mid-batch.
      if (closed_) return;
      if (on_message_) on_message_(std::move(message));
      if (closed_) return;
    }
  }
  if (since_credit_ >= k_credit_batch) return_credits();
  pump();
  if (!was_writable && writable() && on_space_) on_space_();
  if (completion_error_ && !closed_) {
    completion_error_ = false;
    // The QP errored (remote death, access fault): hand the stream back to
    // the conduit's failover path exactly like a failed agent lane.
    fail();
  }
}

void RcStreamChannel::close() noexcept {
  if (closed_) return;
  closed_ = true;
  queue_.clear();
  on_message_ = nullptr;
  on_space_ = nullptr;
  send_cq_->set_notify(nullptr);
  recv_cq_->set_notify(nullptr);
}

}  // namespace freeflow::stream
