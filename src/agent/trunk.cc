#include "agent/trunk.h"

#include "common/logging.h"

namespace freeflow::agent {

// ---------------------------------------------------------------- RdmaTrunk

RdmaTrunk::RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account,
                     bool zero_copy, std::size_t slot_bytes, std::uint32_t slots)
    : account_(account),
      zero_copy_(zero_copy),
      slots_(std::make_shared<rdma::SlotQp>(device, &account, slot_bytes, slots, slots)) {}

void RdmaTrunk::start() {
  // The engine is this trunk's alone and dies with it, so its hooks may
  // hold `this`; what the CQs and the event loop hold is the engine's weak
  // handle.
  slots_->start([this]() { poll(); },
                [this](Buffer&& record) {
                  auto& host = slots_->device().host();
                  host.cpu().submit(host.cost_model().agent_record_ns, nullptr, &account_);
                  if (on_record_) on_record_(std::move(record));
                  return true;
                });
  pump();
}

void RdmaTrunk::send(const RelayHeader& header, ByteSpan fragment, std::uint32_t tenant) {
  if (!queue_.empty() || !slots_->can_post()) {
    // Records are waiting (or nothing can post yet): this one queues behind
    // them, owned, so it never overtakes them.
    queue_.push_back(QueuedRecord{make_record(header, fragment), tenant});
    pump();
    return;
  }
  std::byte encoded[RelayHeader::k_size];
  header.encode(encoded);
  post(encoded, fragment, tenant);
}

void RdmaTrunk::post(ByteSpan head, ByteSpan body, std::uint32_t tenant) {
  auto& host = slots_->device().host();
  const auto& m = host.cost_model();
  // Zero-copy relay: the shm block doubles as the registered buffer, so
  // the agent pays only fixed per-record CPU. Copy mode is the ablation.
  double cpu = m.agent_record_ns;
  if (!zero_copy_) {
    cpu += m.agent_copy_ns_per_byte * static_cast<double>(head.size() + body.size());
  }
  host.cpu().submit(cpu, nullptr, &account_);
  slots_->post(head, body, tenant);
}

void RdmaTrunk::pump() {
  while (!queue_.empty() && slots_->can_post()) {
    post(queue_.front().record.view(), {}, queue_.front().tenant);
    queue_.pop_front();
  }
}

void RdmaTrunk::poll() {
  if (!slots_->poll()) {
    FF_LOG(warn, "agent") << "trunk completion error";
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

// The pipe is this trunk's alone and dies with it, so its hooks may hold
// `this`; the connection holds only the pipe's weak handle.
TcpTrunk::TcpTrunk(sim::EventLoop& /*loop*/)
    : pipe_(std::make_shared<tcp::RecordPipe>(
          [this](Buffer&& record) {
            if (on_record_) on_record_(std::move(record));
          },
          [this]() { maybe_drained(); })) {}

void TcpTrunk::attach(tcp::TcpConnection::Ptr conn) {
  pipe_->attach(std::move(conn));
  maybe_drained();
}

void TcpTrunk::send(const RelayHeader& header, ByteSpan fragment, std::uint32_t tenant) {
  // A kernel TCP byte stream interleaves every container's records into one
  // connection: frames are not attributable to a tenant at the NIC, so the
  // class stays 0 (documented limitation; the kernel-bypass paths classify
  // precisely).
  (void)tenant;
  std::byte encoded[RelayHeader::k_size];
  header.encode(encoded);
  pipe_->send(encoded, fragment);
  if (connected()) maybe_drained();
}

}  // namespace freeflow::agent
