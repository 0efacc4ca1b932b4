// The virtual RDMA NIC's queue pair: exposes the very same verbs call
// shapes as the hardware path (rdma::QueuePair) — post_send with
// SEND/WRITE/READ opcodes, post_recv, completion queues — but executes over
// whatever conduit/transport the orchestrator chose. Applications written
// against verbs run unchanged whether the peer is across a shared-memory
// lane or across the datacenter (paper §4.2, Figs. 5-7).
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "core/conduit.h"
#include "rdma/verbs.h"

namespace freeflow::core {

class ContainerNet;

class VirtualQp : public std::enable_shared_from_this<VirtualQp> {
 public:
  VirtualQp(ContainerNet& net, ConduitPtr conduit, rdma::CqPtr send_cq,
            rdma::CqPtr recv_cq);

  VirtualQp(const VirtualQp&) = delete;
  VirtualQp& operator=(const VirtualQp&) = delete;

  /// Same contract as rdma::QueuePair::post_send. For WRITE/READ the
  /// RemoteBuffer's rkey names a peer MR id (as returned by reg_mr).
  Status post_send(const rdma::SendWr& wr);
  Status post_recv(const rdma::RecvWr& wr);

  [[nodiscard]] rdma::CqPtr send_cq() const noexcept { return send_cq_; }
  [[nodiscard]] rdma::CqPtr recv_cq() const noexcept { return recv_cq_; }
  [[nodiscard]] orch::Transport transport() const noexcept { return conduit_->transport(); }
  [[nodiscard]] ConduitPtr conduit() const noexcept { return conduit_; }

  /// Tears the connection down: pending work completes with qp_error and
  /// the teardown propagates to the peer QP over the conduit.
  void close() { conduit_->close(); }

  /// Why the conduit under this QP went down (meaningful once closed).
  [[nodiscard]] CloseReason close_reason() const noexcept { return close_reason_; }

  /// ContainerNet-internal: wires the conduit's messages to this QP.
  void bind();

 private:
  void handle_message(const WireHeader& header, Buffer&& payload);
  void complete_send(const rdma::SendWr& wr, rdma::WcStatus status);

  ContainerNet& net_;
  ConduitPtr conduit_;
  rdma::CqPtr send_cq_;
  rdma::CqPtr recv_cq_;

  std::deque<rdma::RecvWr> rq_;
  /// Sends that arrived before a recv: each header and its payload.
  std::deque<std::pair<WireHeader, Buffer>> rx_backlog_;
  std::unordered_map<std::uint64_t, rdma::SendWr> pending_reads_;
  std::uint64_t next_req_id_ = 1;
  CloseReason close_reason_ = CloseReason::app_close;
};

using VirtualQpPtr = std::shared_ptr<VirtualQp>;

}  // namespace freeflow::core
