#include "rdma/device.h"

#include "common/logging.h"
#include "rdma/queue_pair.h"

namespace freeflow::rdma {

namespace {
constexpr std::uint32_t k_roce_header_bytes = 58;
constexpr std::uint32_t k_ctrl_wire_bytes = 64;
}  // namespace

RdmaDevice::RdmaDevice(fabric::Host& host) : host_(host) {
  host_.nic().set_rx_handler(fabric::PacketKind::rdma_chunk,
                             [this](fabric::PacketPtr p) { on_chunk(std::move(p)); });
}

MrPtr RdmaDevice::reg_mr(std::size_t length) {
  const Key lkey = next_key_++;
  const Key rkey = next_key_++;
  auto mr = std::make_shared<MemoryRegion>(lkey, rkey, length);
  mrs_.add(rkey, mr);
  return mr;
}

CqPtr RdmaDevice::create_cq(std::size_t capacity) {
  return std::make_shared<CompletionQueue>(capacity);
}

std::shared_ptr<QueuePair> RdmaDevice::create_qp(CqPtr send_cq, CqPtr recv_cq, QpAttr attr) {
  const QpNum num = next_qp_++;
  auto qp = std::make_shared<QueuePair>(*this, num, std::move(send_cq),
                                        std::move(recv_cq), attr);
  qps_.emplace(num, qp);
  return qp;
}

MrPtr RdmaDevice::mr_by_rkey(Key rkey) { return mrs_.find(rkey); }

std::shared_ptr<QueuePair> RdmaDevice::qp(QpNum num) {
  auto it = qps_.find(num);
  return it == qps_.end() ? nullptr : it->second;
}

std::uint32_t RdmaDevice::wire_bytes(const RdmaChunk& chunk) noexcept {
  if (chunk.kind != RdmaChunk::Kind::data) return k_ctrl_wire_bytes;
  return static_cast<std::uint32_t>(chunk.payload.size()) + k_roce_header_bytes;
}

void RdmaDevice::transmit(fabric::HostId dst_host, std::shared_ptr<RdmaChunk> chunk) {
  auto packet = fabric::acquire_packet();
  packet->dst_host = dst_host;
  packet->wire_bytes = wire_bytes(*chunk);
  packet->kind = fabric::PacketKind::rdma_chunk;
  packet->tenant = chunk->tenant;
  packet->body = std::move(chunk);
  host_.nic().send(std::move(packet));
}

void RdmaDevice::on_chunk(fabric::PacketPtr packet) {
  auto chunk = fabric::body_as<RdmaChunk>(packet);
  // A hairpinned chunk (intra-host RDMA through the NIC) was already
  // processed once on the way in; the CX3-style NIC loops it back without a
  // second full pass. Acks cost only the fixed per-packet overhead.
  const bool hairpin = packet->src_host == host_.id();
  const fabric::HostId requester = packet->src_host;

  auto process = [this, chunk, requester]() {
    switch (chunk->kind) {
      case RdmaChunk::Kind::data:
        handle_data(chunk);
        break;
      case RdmaChunk::Kind::ack:
        if (auto q = qp(chunk->dst_qp)) q->rx_ack(chunk);
        break;
      case RdmaChunk::Kind::read_request:
        handle_read_request(chunk, requester);
        break;
    }
  };

  if (hairpin) {
    process();
    return;
  }
  const auto& m = host_.cost_model();
  const double cost = chunk->kind == RdmaChunk::Kind::data
                          ? m.nic_pkt_cost(static_cast<std::uint32_t>(chunk->payload.size()))
                          : m.nic_pkt_fixed_ns;
  nic_proc().submit(cost, std::move(process));
}

void RdmaDevice::handle_data(const std::shared_ptr<RdmaChunk>& chunk) {
  auto q = qp(chunk->dst_qp);
  if (q == nullptr) {
    FF_LOG(warn, "rdma") << "chunk for unknown QP " << chunk->dst_qp << " dropped";
    return;
  }
  bytes_received_ += chunk->payload.size();
  // DMA into host memory competes for the memory bus.
  const auto& m = host_.cost_model();
  const double bus = m.nic_dma_bus_bytes_factor * static_cast<double>(chunk->payload.size());
  if (bus > 0) host_.membus().submit(bus, nullptr);
  q->rx_data_chunk(chunk);
}

void RdmaDevice::nak_read(const std::shared_ptr<RdmaChunk>& request,
                          fabric::HostId requester) {
  auto nak = acquire_chunk();
  nak->kind = RdmaChunk::Kind::ack;
  nak->opcode = Opcode::read;
  nak->dst_qp = request->src_qp;
  nak->msg_id = request->msg_id;
  nak->wr_id = request->wr_id;
  nak->status = WcStatus::remote_access_error;
  nak->tenant = request->tenant;
  transmit(requester, nak);
}

void RdmaDevice::handle_read_request(const std::shared_ptr<RdmaChunk>& request,
                                     fabric::HostId requester) {
  // Served entirely by the NIC: the remote host's CPU is never involved —
  // the defining property of one-sided RDMA.
  MrPtr mr = mr_by_rkey(request->remote.rkey);
  if (mr == nullptr || request->remote.offset + request->read_len > mr->length()) {
    nak_read(request, requester);
    return;
  }
  // A zero-length READ is one empty last chunk.
  stream_read_chunk(request, requester, 0);
}

// One MTU response chunk per call; the NIC-processor completion re-invokes
// for the next offset. The pending event references only the device and the
// request, never a callback that owns itself (teardown protocol). The MR is
// re-looked-up each chunk: one its owner dropped mid-stream fails the READ
// instead of being read after release.
void RdmaDevice::stream_read_chunk(const std::shared_ptr<RdmaChunk>& request,
                                   fabric::HostId requester, std::uint32_t offset) {
  MrPtr mr = mr_by_rkey(request->remote.rkey);
  if (mr == nullptr) {
    nak_read(request, requester);
    return;
  }
  const auto& m = host_.cost_model();
  const std::uint32_t total = request->read_len;
  const std::uint32_t n = std::min(m.rdma_mtu_bytes, total - offset);

  auto chunk = acquire_chunk();
  chunk->kind = RdmaChunk::Kind::data;
  chunk->opcode = Opcode::read;
  chunk->src_qp = request->dst_qp;
  chunk->dst_qp = request->src_qp;
  chunk->msg_id = request->msg_id;
  chunk->wr_id = request->wr_id;
  chunk->total_len = total;
  chunk->chunk_offset = offset;
  chunk->last = offset + n >= total;
  chunk->tenant = request->tenant;
  chunk->payload = Buffer(mr->data().data() + request->remote.offset + offset, n);

  const double bus = m.nic_dma_bus_bytes_factor * static_cast<double>(n);
  if (bus > 0) host_.membus().submit(bus, nullptr);

  nic_proc().submit(m.nic_pkt_cost(n), [this, chunk, request, requester]() {
    const bool more = !chunk->last;
    const auto next =
        chunk->chunk_offset + static_cast<std::uint32_t>(chunk->payload.size());
    transmit(requester, chunk);
    if (more) stream_read_chunk(request, requester, next);
  });
}

}  // namespace freeflow::rdma
