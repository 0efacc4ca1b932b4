#include "core/vqp.h"

#include <cstring>

#include "common/logging.h"
#include "core/container_net.h"

namespace freeflow::core {

VirtualQp::VirtualQp(ContainerNet& net, ConduitPtr conduit, rdma::CqPtr send_cq,
                     rdma::CqPtr recv_cq)
    : net_(net),
      conduit_(std::move(conduit)),
      send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {
  FF_CHECK(conduit_ != nullptr && send_cq_ != nullptr && recv_cq_ != nullptr);
}

void VirtualQp::bind() {
  auto self = weak_from_this();
  conduit_->set_on_message([self](const WireHeader& h, Buffer&& payload) {
    if (auto qp = self.lock()) qp->handle_message(h, std::move(payload));
  });
  conduit_->set_on_closed([self](CloseReason reason) {
    auto qp = self.lock();
    if (qp == nullptr) return;
    qp->close_reason_ = reason;
    // Pending reads and posted receives flush with an error completion,
    // mirroring a hardware QP transitioning to the error state.
    for (auto& [id, wr] : qp->pending_reads_) {
      qp->complete_send(wr, rdma::WcStatus::qp_error);
    }
    qp->pending_reads_.clear();
    while (!qp->rq_.empty()) {
      rdma::WorkCompletion wc;
      wc.wr_id = qp->rq_.front().wr_id;
      wc.opcode = rdma::Opcode::recv;
      wc.status = rdma::WcStatus::qp_error;
      qp->recv_cq_->push(wc);
      qp->rq_.pop_front();
    }
  });
}

Status VirtualQp::post_send(const rdma::SendWr& wr) {
  if (wr.local.mr == nullptr ||
      wr.local.offset + wr.local.length > wr.local.mr->length()) {
    return invalid_argument("local buffer out of MR bounds");
  }
  // A message the lane ring can never hold would park in the channel
  // forever: refuse it here, as a NIC refuses a WR above max_msg_sz.
  if (wr.opcode != rdma::Opcode::read && wr.local.length > net_.max_verbs_payload()) {
    return invalid_argument("WR larger than the largest verbs message");
  }
  net_.charge_post();

  WireHeader h;
  h.id = wr.wr_id;
  switch (wr.opcode) {
    case rdma::Opcode::send: {
      h.type = VMsg::verbs_send;
      conduit_->send(h, ByteSpan{wr.local.mr->data().data() + wr.local.offset,
                                 wr.local.length});
      complete_send(wr, rdma::WcStatus::success);
      return ok_status();
    }
    case rdma::Opcode::write: {
      h.type = VMsg::verbs_write;
      h.mr = wr.remote.rkey;
      h.offset = wr.remote.offset;
      conduit_->send(h, ByteSpan{wr.local.mr->data().data() + wr.local.offset,
                                 wr.local.length});
      complete_send(wr, rdma::WcStatus::success);
      return ok_status();
    }
    case rdma::Opcode::read: {
      h.type = VMsg::verbs_read_req;
      h.id = next_req_id_++;
      h.mr = wr.remote.rkey;
      h.offset = wr.remote.offset;
      h.token = wr.local.length;  // bytes requested
      pending_reads_.emplace(h.id, wr);
      conduit_->send(h);
      return ok_status();
    }
    case rdma::Opcode::recv:
      return invalid_argument("recv is not a send opcode");
  }
  return invalid_argument("unknown opcode");
}

Status VirtualQp::post_recv(const rdma::RecvWr& wr) {
  if (wr.local.mr == nullptr ||
      wr.local.offset + wr.local.length > wr.local.mr->length()) {
    return invalid_argument("local buffer out of MR bounds");
  }
  net_.charge_post();
  rq_.push_back(wr);
  // Drain any sends that arrived before this receive was posted.
  while (!rx_backlog_.empty() && !rq_.empty()) {
    auto [header, payload] = std::move(rx_backlog_.front());
    rx_backlog_.pop_front();
    handle_message(header, std::move(payload));
  }
  return ok_status();
}

void VirtualQp::complete_send(const rdma::SendWr& wr, rdma::WcStatus status) {
  // The conduit is reliable and ordered, so the RC completion semantics
  // ("local buffer reusable, delivery guaranteed") hold as soon as the
  // channel accepted the message.
  if (!wr.signaled && status == rdma::WcStatus::success) return;
  rdma::WorkCompletion wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = wr.opcode;
  wc.status = status;
  wc.byte_len = static_cast<std::uint32_t>(wr.local.length);
  send_cq_->push(wc);
}

void VirtualQp::handle_message(const WireHeader& h, Buffer&& payload) {
  switch (h.type) {
    case VMsg::verbs_send: {
      if (rq_.empty()) {
        rx_backlog_.emplace_back(h, std::move(payload));
        return;
      }
      rdma::RecvWr wr = rq_.front();
      rq_.pop_front();
      rdma::WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.opcode = rdma::Opcode::recv;
      wc.byte_len = static_cast<std::uint32_t>(payload.size());
      if (payload.size() > wr.local.length) {
        wc.status = rdma::WcStatus::local_length_error;
      } else if (!payload.empty()) {
        std::memcpy(wr.local.mr->data().data() + wr.local.offset, payload.view().data(),
                    payload.size());
      }
      recv_cq_->push(wc);
      return;
    }
    case VMsg::verbs_write: {
      rdma::MrPtr target = net_.mr(h.mr);
      if (target == nullptr || h.offset + payload.size() > target->length()) {
        FF_LOG(warn, "core") << "verbs write out of bounds; dropped";
        return;
      }
      if (!payload.empty()) {
        std::memcpy(target->data().data() + h.offset, payload.view().data(), payload.size());
      }
      return;
    }
    case VMsg::verbs_read_req: {
      rdma::MrPtr target = net_.mr(h.mr);
      WireHeader resp;
      resp.type = VMsg::verbs_read_resp;
      resp.id = h.id;
      net_.charge_post();  // the vNIC answers; one doorbell worth of CPU
      if (target == nullptr || h.offset + h.token > target->length() ||
          h.token > net_.max_verbs_payload()) {
        resp.mr = 1;  // non-zero marks an error response
        conduit_->send(resp);
        return;
      }
      conduit_->send(resp, ByteSpan{target->data().data() + h.offset,
                                    static_cast<std::size_t>(h.token)});
      return;
    }
    case VMsg::verbs_read_resp: {
      auto it = pending_reads_.find(h.id);
      if (it == pending_reads_.end()) return;
      const rdma::SendWr wr = it->second;
      pending_reads_.erase(it);
      rdma::WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.opcode = rdma::Opcode::read;
      wc.byte_len = static_cast<std::uint32_t>(payload.size());
      if (h.mr != 0 || payload.size() > wr.local.length) {
        wc.status = rdma::WcStatus::remote_access_error;
      } else if (!payload.empty()) {
        std::memcpy(wr.local.mr->data().data() + wr.local.offset, payload.view().data(),
                    payload.size());
      }
      send_cq_->push(wc);
      return;
    }
    default:
      FF_LOG(warn, "core") << "vQP got unexpected message type "
                           << static_cast<int>(h.type);
  }
}

}  // namespace freeflow::core
