#include "agent/trunk.h"

#include <cstring>

#include "common/framing.h"
#include "common/logging.h"

namespace freeflow::agent {

// ---------------------------------------------------------------- RdmaTrunk

RdmaTrunk::RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account,
                     bool zero_copy, std::size_t slot_bytes, std::uint32_t slots)
    : device_(device),
      account_(account),
      zero_copy_(zero_copy),
      slot_bytes_(slot_bytes),
      slots_(slots) {
  send_mr_ = device_.reg_mr(slot_bytes_ * slots_);
  recv_mr_ = device_.reg_mr(slot_bytes_ * slots_);
  send_cq_ = device_.create_cq(slots_ * 4);
  recv_cq_ = device_.create_cq(slots_ * 4);
  rdma::QpAttr attr;
  attr.max_send_wr = slots_ * 2;
  attr.max_recv_wr = slots_ * 2;
  qp_ = device_.create_qp(send_cq_, recv_cq_, attr);
  free_slots_.reserve(slots_);
  for (std::uint32_t s = 0; s < slots_; ++s) free_slots_.push_back(s);
}

void RdmaTrunk::start(std::shared_ptr<rdma::QueuePair>) {
  for (std::uint32_t s = 0; s < slots_; ++s) repost_recv(s);
  send_cq_->set_notify([this]() { schedule_poll(); });
  recv_cq_->set_notify([this]() { schedule_poll(); });
  pump();
}

void RdmaTrunk::repost_recv(std::uint32_t slot) {
  rdma::RecvWr wr;
  wr.wr_id = slot;
  wr.local = {recv_mr_, slot * slot_bytes_, slot_bytes_};
  const Status posted = qp_->post_recv(wr, &account_);
  FF_CHECK(posted.is_ok());
}

void RdmaTrunk::send(const RelayHeader& header, ByteSpan fragment, std::uint32_t tenant) {
  const std::size_t size = RelayHeader::k_size + fragment.size();
  FF_CHECK(size <= slot_bytes_);
  if (!queue_.empty() || !can_post()) {
    // Records are waiting (or nothing can post yet): this one queues behind
    // them, owned, so it never overtakes them.
    queue_.push_back(QueuedRecord{make_record(header, fragment), tenant});
    pump();
    return;
  }
  auto [slot, dst] = take_slot(size);
  header.encode(dst);
  if (!fragment.empty()) std::memcpy(dst + RelayHeader::k_size, fragment.data(), fragment.size());
  post(slot, size, tenant);
}

std::pair<std::uint32_t, std::byte*> RdmaTrunk::take_slot(std::size_t size) {
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  auto dst = send_mr_->slice(slot * slot_bytes_, size);
  FF_CHECK(dst.is_ok());
  return {slot, dst->data()};
}

void RdmaTrunk::post(std::uint32_t slot, std::size_t size, std::uint32_t tenant) {
  auto& host = device_.host();
  const auto& m = host.cost_model();
  // Zero-copy relay: the shm block doubles as the registered buffer, so
  // the agent pays only fixed per-record CPU. Copy mode is the ablation.
  double cpu = m.agent_record_ns;
  if (!zero_copy_) cpu += m.agent_copy_ns_per_byte * static_cast<double>(size);
  host.cpu().submit(cpu, nullptr, &account_);

  rdma::SendWr wr;
  wr.wr_id = slot;
  wr.opcode = rdma::Opcode::send;
  wr.local = {send_mr_, slot * slot_bytes_, size};
  wr.signaled = true;
  wr.tenant = tenant;
  const Status posted = qp_->post_send(wr, &account_);
  FF_CHECK(posted.is_ok());
}

void RdmaTrunk::pump() {
  while (!queue_.empty() && can_post()) {
    Buffer record = std::move(queue_.front().record);
    const std::uint32_t tenant = queue_.front().tenant;
    queue_.pop_front();
    auto [slot, dst] = take_slot(record.size());
    std::memcpy(dst, record.data(), record.size());
    post(slot, record.size(), tenant);
  }
}

void RdmaTrunk::schedule_poll() {
  if (poll_scheduled_) return;
  poll_scheduled_ = true;
  device_.host().loop().schedule(device_.host().cost_model().agent_wakeup_ns, [this]() {
    poll_scheduled_ = false;
    poll_cqs();
  });
}

void RdmaTrunk::poll_cqs() {
  auto& host = device_.host();
  const auto& m = host.cost_model();
  rdma::WorkCompletion wcs[16];

  for (;;) {
    const std::size_t n = send_cq_->poll(wcs);
    if (n == 0) break;
    host.cpu().submit(m.rdma_poll_ns * static_cast<double>(n), nullptr, &account_);
    for (std::size_t i = 0; i < n; ++i) {
      if (wcs[i].status != rdma::WcStatus::success) {
        FF_LOG(warn, "agent") << "trunk send completion error";
        continue;
      }
      free_slots_.push_back(static_cast<std::uint32_t>(wcs[i].wr_id));
    }
  }
  for (;;) {
    const std::size_t n = recv_cq_->poll(wcs);
    if (n == 0) break;
    host.cpu().submit(m.rdma_poll_ns * static_cast<double>(n), nullptr, &account_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto slot = static_cast<std::uint32_t>(wcs[i].wr_id);
      // The record is copied out before the slot is reposted, and it must
      // be: reposting can synchronously drain an RNR backlog into this very
      // slot. Dispatching from the slot first and reposting after would
      // move every repost's CPU charge behind the handler's work, which
      // changes the simulated schedule.
      Buffer record(recv_mr_->data().data() + slot * slot_bytes_, wcs[i].byte_len);
      repost_recv(slot);
      host.cpu().submit(m.agent_record_ns, nullptr, &account_);
      if (on_record_) on_record_(std::move(record));
    }
  }
  pump();
  maybe_drained();
}

// ---------------------------------------------------------------- DpdkTrunk

DpdkTrunk::DpdkTrunk(dpdk::DpdkPort& port, fabric::HostId peer)
    : port_(port), peer_(peer) {}

void DpdkTrunk::send(const RelayHeader& header, ByteSpan fragment, std::uint32_t tenant) {
  const Status sent = port_.send(peer_, make_record(header, fragment), tenant);
  if (!sent.is_ok()) {
    FF_LOG(warn, "agent") << "dpdk trunk send failed: " << sent;
  }
}

// ----------------------------------------------------------------- TcpTrunk

void TcpTrunk::attach(tcp::TcpConnection::Ptr conn) {
  conn_ = std::move(conn);
  conn_->set_on_data([this](Buffer&& data) { on_bytes(std::move(data)); });
  conn_->set_on_writable([this]() { pump(); });
  pump();
}

void TcpTrunk::send(const RelayHeader& header, ByteSpan fragment, std::uint32_t tenant) {
  // A kernel TCP byte stream interleaves every container's records into one
  // connection: frames are not attributable to a tenant at the NIC, so the
  // class stays 0 (documented limitation; the kernel-bypass paths classify
  // precisely).
  (void)tenant;
  std::byte encoded[RelayHeader::k_size]{};
  header.encode(encoded);
  queue_.push_back(frame_record(encoded, fragment));
  pump();
}

void TcpTrunk::pump() {
  if (conn_ == nullptr) return;
  // writable(n) is exactly send()'s admission test: a frame leaves the
  // queue only when the connection takes it.
  while (!queue_.empty() && conn_->writable(queue_.front().size())) {
    const Status s = conn_->send(std::move(queue_.front()));
    FF_CHECK(s.is_ok());
    queue_.pop_front();
  }
  maybe_drained();
}

void TcpTrunk::on_bytes(Buffer&& data) {
  append_stream_bytes(rx_accum_, std::move(data));
  Buffer record;
  while (pop_record(rx_accum_, record)) {
    if (on_record_) on_record_(std::move(record));
  }
}

}  // namespace freeflow::agent
