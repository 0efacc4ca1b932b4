#include "rdma/slot_qp.h"

#include <cstring>

#include "common/logging.h"

namespace freeflow::rdma {

SlotQp::SlotQp(RdmaDevice& device, sim::UsageAccount* account, std::size_t slot_bytes,
               std::uint32_t send_slots, std::uint32_t recv_slots, std::uint32_t tenant)
    : device_(device),
      account_(account),
      slot_bytes_(slot_bytes),
      recv_slots_(recv_slots),
      send_mr_(device.reg_mr(slot_bytes * send_slots)),
      recv_mr_(device.reg_mr(slot_bytes * recv_slots)),
      send_cq_(device.create_cq(send_slots * 4)),
      recv_cq_(device.create_cq(recv_slots * 4)) {
  QpAttr attr;
  attr.max_send_wr = send_slots * 2;
  attr.max_recv_wr = recv_slots * 2;
  attr.tenant = tenant;
  qp_ = device_.create_qp(send_cq_, recv_cq_, attr);
  free_slots_.reserve(send_slots);
  for (std::uint32_t s = 0; s < send_slots; ++s) free_slots_.push_back(s);
}

void SlotQp::start(std::function<void()> on_wake, RecvFn on_recv) {
  on_wake_ = std::move(on_wake);
  on_recv_ = std::move(on_recv);
  for (std::uint32_t s = 0; s < recv_slots_; ++s) repost_recv(s);
  // The notifies may hold `this`: the destructor unhooks them. The poll
  // they schedule can outlive the engine, so it holds the weak handle.
  auto notify = [this]() {
    if (poll_scheduled_) return;
    poll_scheduled_ = true;
    auto& host = device_.host();
    host.loop().schedule(host.cost_model().agent_wakeup_ns, [self = weak_from_this()]() {
      auto woken = self.lock();
      if (woken == nullptr) return;
      woken->poll_scheduled_ = false;
      woken->on_wake_();
    });
  };
  send_cq_->set_notify(notify);
  recv_cq_->set_notify(notify);
}

void SlotQp::repost_recv(std::uint32_t slot) {
  RecvWr wr;
  wr.wr_id = slot;
  wr.local = {recv_mr_, slot * slot_bytes_, slot_bytes_};
  FF_CHECK(qp_->post_recv(wr, account_).is_ok());
}

void SlotQp::post(ByteSpan head, ByteSpan body, std::uint32_t tenant) {
  const std::size_t size = head.size() + body.size();
  FF_CHECK(size <= slot_bytes_);
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  std::byte* dst = send_mr_->data().data() + slot * slot_bytes_;
  if (!head.empty()) std::memcpy(dst, head.data(), head.size());
  if (!body.empty()) std::memcpy(dst + head.size(), body.data(), body.size());

  SendWr wr;
  wr.wr_id = slot;
  wr.local = {send_mr_, slot * slot_bytes_, size};
  wr.tenant = tenant;
  FF_CHECK(qp_->post_send(wr, account_).is_ok());
}

bool SlotQp::poll() {
  auto& host = device_.host();
  const double poll_ns = host.cost_model().rdma_poll_ns;
  bool ok = true;
  WorkCompletion wcs[16];
  while (const std::size_t n = send_cq_->poll(wcs)) {
    host.cpu().submit(poll_ns * static_cast<double>(n), nullptr, account_);
    for (std::size_t i = 0; i < n; ++i) {
      if (wcs[i].status != WcStatus::success) ok = false;
      free_slots_.push_back(static_cast<std::uint32_t>(wcs[i].wr_id));
    }
  }
  while (const std::size_t n = recv_cq_->poll(wcs)) {
    host.cpu().submit(poll_ns * static_cast<double>(n), nullptr, account_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto slot = static_cast<std::uint32_t>(wcs[i].wr_id);
      const bool received = wcs[i].status == WcStatus::success;
      const std::byte* bytes = recv_mr_->data().data() + slot * slot_bytes_;
      Buffer message = received ? Buffer(bytes, wcs[i].byte_len) : Buffer{};
      repost_recv(slot);
      if (!received) {
        ok = false;
      } else if (!on_recv_(std::move(message))) {
        return ok;
      }
    }
  }
  return ok;
}

}  // namespace freeflow::rdma
