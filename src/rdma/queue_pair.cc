#include "rdma/queue_pair.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "rdma/device.h"

namespace freeflow::rdma {

QueuePair::QueuePair(RdmaDevice& device, QpNum num, CqPtr send_cq, CqPtr recv_cq,
                     QpAttr attr)
    : device_(device),
      num_(num),
      send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)),
      attr_(attr) {
  FF_CHECK(send_cq_ != nullptr && recv_cq_ != nullptr);
}

Status QueuePair::connect(fabric::HostId remote_host, QpNum remote_qp) {
  if (state_ == QpState::error) return failed_precondition("QP in error state");
  remote_host_ = remote_host;
  remote_qp_ = remote_qp;
  state_ = QpState::ready;
  return ok_status();
}

Status QueuePair::post_send(const SendWr& wr, sim::UsageAccount* account) {
  if (state_ != QpState::ready) return failed_precondition("QP not connected");
  if (sq_.size() + outstanding_.size() >= attr_.max_send_wr) {
    return resource_exhausted("send queue full");
  }
  if (wr.local.mr == nullptr ||
      wr.local.offset + wr.local.length > wr.local.mr->length()) {
    return invalid_argument("local buffer out of MR bounds");
  }
  device_.host().cpu().submit(device_.host().cost_model().rdma_post_ns, nullptr, account);
  sq_.push_back(wr);
  pump();
  return ok_status();
}

Status QueuePair::post_recv(const RecvWr& wr, sim::UsageAccount* account) {
  if (rq_.size() >= attr_.max_recv_wr) return resource_exhausted("recv queue full");
  if (wr.local.mr == nullptr ||
      wr.local.offset + wr.local.length > wr.local.mr->length()) {
    return invalid_argument("local buffer out of MR bounds");
  }
  device_.host().cpu().submit(device_.host().cost_model().rdma_post_ns, nullptr, account);
  rq_.push_back(wr);
  // Drain chunks that beat the receive posting (RNR retry semantics); a
  // chunk still lacking a buffer re-queues itself in order.
  if (!rnr_backlog_.empty()) {
    std::deque<std::shared_ptr<RdmaChunk>> pending;
    pending.swap(rnr_backlog_);
    for (auto& chunk : pending) rx_data_chunk(chunk);
  }
  return ok_status();
}

void QueuePair::pump() {
  if (tx_active_ || sq_.empty()) return;
  tx_active_ = true;
  const SendWr wr = sq_.front();
  sq_.pop_front();
  const std::uint64_t msg_id = next_msg_id_++;
  outstanding_.emplace(msg_id, wr);
  if (wr.opcode == Opcode::read) {
    emit_read_request(wr, msg_id);
  } else {
    emit_chunks(wr, msg_id);
  }
}

void QueuePair::emit_read_request(const SendWr& wr, std::uint64_t msg_id) {
  auto req = acquire_chunk();
  req->kind = RdmaChunk::Kind::read_request;
  req->opcode = Opcode::read;
  req->src_qp = num_;
  req->dst_qp = remote_qp_;
  req->msg_id = msg_id;
  req->wr_id = wr.wr_id;
  req->remote = wr.remote;
  req->read_len = static_cast<std::uint32_t>(wr.local.length);
  req->tenant = wr.tenant != 0 ? wr.tenant : attr_.tenant;

  const auto& m = device_.host().cost_model();
  auto self = shared_from_this();
  device_.nic_proc().submit(m.nic_pkt_fixed_ns, [self, req]() {
    self->device_.transmit(self->remote_host_, req);
    self->tx_active_ = false;
    self->pump();
  });
}

void QueuePair::emit_chunks(const SendWr& wr, std::uint64_t msg_id) {
  (void)wr;  // the WR is read back from outstanding_ so chunk events stay small
  stream_chunk(msg_id, 0);
}

// One MTU chunk per call; the NIC-processor completion re-invokes for the
// next offset. The pending event holds only a shared self — no callback ever
// owns itself, so a QP's ownership never cycles (teardown protocol).
void QueuePair::stream_chunk(std::uint64_t msg_id, std::uint32_t offset) {
  auto it = outstanding_.find(msg_id);
  if (it == outstanding_.end()) return;  // errored out mid-stream
  const SendWr& wr = it->second;
  const auto& m = device_.host().cost_model();
  const std::uint32_t mtu = m.rdma_mtu_bytes;
  const auto total = static_cast<std::uint32_t>(wr.local.length);

  const std::uint32_t n = total == 0 ? 0 : std::min(mtu, total - offset);
  auto chunk = acquire_chunk();
  chunk->kind = RdmaChunk::Kind::data;
  chunk->opcode = wr.opcode;
  chunk->src_qp = num_;
  chunk->dst_qp = remote_qp_;
  chunk->msg_id = msg_id;
  chunk->wr_id = wr.wr_id;
  chunk->total_len = total;
  chunk->chunk_offset = offset;
  chunk->last = offset + n >= total;
  chunk->tenant = wr.tenant != 0 ? wr.tenant : attr_.tenant;
  if (n > 0) {
    // The NIC's DMA read: the chunk carries the bytes the MR held when it
    // was emitted, whatever the application writes there afterwards.
    chunk->payload = Buffer(wr.local.mr->data().data() + wr.local.offset + offset, n);
  }
  if (wr.opcode == Opcode::write) chunk->remote = wr.remote;

  // DMA-read of the source buffer.
  const double bus = m.nic_dma_bus_bytes_factor * static_cast<double>(n);
  if (bus > 0) device_.host().membus().submit(bus, nullptr);

  auto self = shared_from_this();
  device_.nic_proc().submit(m.nic_pkt_cost(n), [self, chunk, msg_id, offset, n]() {
    const bool more = !chunk->last;
    self->device_.transmit(self->remote_host_, chunk);
    if (more) {
      self->stream_chunk(msg_id, offset + n);
    } else {
      self->tx_active_ = false;
      self->pump();
    }
  });
}

void QueuePair::rx_data_chunk(const std::shared_ptr<RdmaChunk>& chunk) {
  // A chunk can race QP setup (the CM hands out our number before connect()
  // runs, and numbers recycle across upgrade churn) and land on a QP that
  // was never connected. It cannot be acked — there is no remote to address
  // — and real RC silently discards traffic for a QP outside RTR/RTS.
  if (state_ == QpState::reset) return;
  switch (chunk->opcode) {
    case Opcode::send: {
      auto& prog = rx_progress(chunk->msg_id);
      if (!prog.claimed) {
        if (rq_.empty()) {
          rnr_backlog_.push_back(chunk);
          return;
        }
        prog.claimed = true;
        prog.recv_wr = rq_.front();
        rq_.pop_front();
        if (chunk->total_len > prog.recv_wr.local.length) {
          prog.error = WcStatus::local_length_error;
        }
      }
      if (prog.error == WcStatus::success && !chunk->payload.empty()) {
        auto dst = prog.recv_wr.local.mr->slice(
            prog.recv_wr.local.offset + chunk->chunk_offset, chunk->payload.size());
        FF_CHECK(dst.is_ok());
        std::memcpy(dst->data(), chunk->payload.data(), chunk->payload.size());
      }
      prog.received += static_cast<std::uint32_t>(chunk->payload.size());
      if (chunk->last) {
        if (prog.error == WcStatus::success && prog.received != chunk->total_len) {
          // Earlier chunks were dropped (RDMA engine bounced mid-message).
          // Real RC tracks PSN continuity, so a receive with a hole can
          // never complete successfully — treat the message as lost in the
          // fabric: no completion, no ack, and the posted buffer goes back
          // for the next message. Recovery belongs to the layer above.
          rq_.push_front(std::move(prog.recv_wr));
          erase_rx_progress(chunk->msg_id);
          break;
        }
        WorkCompletion wc;
        wc.wr_id = prog.recv_wr.wr_id;
        wc.opcode = Opcode::recv;
        wc.status = prog.error;
        wc.byte_len = chunk->total_len;
        wc.qp_num = num_;
        // Done with the entry before the completion fires: a CQ callback
        // may post a receive and re-enter here.
        erase_rx_progress(chunk->msg_id);
        recv_cq_->push(wc);
        send_ack(chunk, wc.status);
      }
      break;
    }
    case Opcode::write: {
      auto& prog = rx_progress(chunk->msg_id);
      if (prog.error == WcStatus::success) {
        MrPtr mr = device_.mr_by_rkey(chunk->remote.rkey);
        if (mr == nullptr ||
            chunk->remote.offset + chunk->chunk_offset + chunk->payload.size() >
                mr->length()) {
          prog.error = WcStatus::remote_access_error;
        } else if (!chunk->payload.empty()) {
          auto dst = mr->slice(chunk->remote.offset + chunk->chunk_offset,
                               chunk->payload.size());
          std::memcpy(dst->data(), chunk->payload.data(), chunk->payload.size());
        }
      }
      if (chunk->last) {
        const WcStatus status = prog.error;
        erase_rx_progress(chunk->msg_id);
        send_ack(chunk, status);
      }
      break;
    }
    case Opcode::read: {
      // Read response: fill the requester-side buffer of the pending WR.
      auto it = outstanding_.find(chunk->msg_id);
      if (it == outstanding_.end()) return;
      const SendWr& wr = it->second;
      if (!chunk->payload.empty()) {
        auto dst = wr.local.mr->slice(wr.local.offset + chunk->chunk_offset,
                                      chunk->payload.size());
        FF_CHECK(dst.is_ok());
        std::memcpy(dst->data(), chunk->payload.data(), chunk->payload.size());
      }
      if (chunk->last) {
        finish_wr(wr, chunk->total_len, WcStatus::success);
        outstanding_.erase(it);
      }
      break;
    }
    case Opcode::recv:
      break;  // not a wire opcode
  }
}

QueuePair::RxProgress& QueuePair::rx_progress(std::uint64_t msg_id) {
  for (auto& prog : rx_progress_) {
    if (prog.msg_id == msg_id) return prog;
  }
  RxProgress& prog = rx_progress_.emplace_back();
  prog.msg_id = msg_id;
  return prog;
}

void QueuePair::erase_rx_progress(std::uint64_t msg_id) {
  for (auto& prog : rx_progress_) {
    if (prog.msg_id != msg_id) continue;
    if (&prog != &rx_progress_.back()) prog = std::move(rx_progress_.back());
    rx_progress_.pop_back();
    return;
  }
}

void QueuePair::rx_ack(const std::shared_ptr<RdmaChunk>& chunk) {
  auto it = outstanding_.find(chunk->msg_id);
  if (it == outstanding_.end()) return;
  finish_wr(it->second, static_cast<std::uint32_t>(it->second.local.length), chunk->status);
  outstanding_.erase(it);
}

void QueuePair::finish_wr(const SendWr& wr, std::uint32_t byte_len, WcStatus status) {
  if (status != WcStatus::success) state_ = QpState::error;
  if (!wr.signaled && status == WcStatus::success) return;
  WorkCompletion wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = wr.opcode;
  wc.status = status;
  wc.byte_len = byte_len;
  wc.qp_num = num_;
  send_cq_->push(wc);
}

void QueuePair::send_ack(const std::shared_ptr<RdmaChunk>& chunk, WcStatus status) {
  auto ack = acquire_chunk();
  ack->kind = RdmaChunk::Kind::ack;
  ack->opcode = chunk->opcode;
  ack->src_qp = num_;
  ack->dst_qp = chunk->src_qp;
  ack->msg_id = chunk->msg_id;
  ack->wr_id = chunk->wr_id;
  ack->status = status;
  ack->tenant = chunk->tenant;
  device_.transmit(remote_host_, ack);
}

}  // namespace freeflow::rdma
