#include "workloads/param_server.h"

#include <algorithm>

#include "common/logging.h"

namespace freeflow::workloads {

ParamServer::ParamServer(core::ContainerNetPtr server_net, Config config)
    : net_(std::move(server_net)), config_(config) {
  model_mr_ = net_->reg_mr(config_.model_floats * sizeof(float));
}

Status ParamServer::start() {
  return net_->listen_qp(config_.qp_port, [this](core::VirtualQpPtr qp) {
    // One-sided traffic: the server CPU does nothing per iteration; it just
    // keeps the QP (and thus the conduit) alive.
    qps_.push_back(std::move(qp));
  });
}

PsWorker::PsWorker(core::ContainerNetPtr worker_net, tcp::Ipv4Addr server_ip,
                   ParamServer::Config config)
    : net_(std::move(worker_net)), server_ip_(server_ip), config_(config) {
  local_mr_ = net_->reg_mr(config_.model_floats * sizeof(float));
  // MRs start uninitialised, and the first push sends this one as it is.
  std::ranges::fill(local_mr_->data().mutable_view(), std::byte{0});
}

void PsWorker::run(std::uint32_t server_mr_id, DoneFn done) {
  server_mr_ = server_mr_id;
  auto scq = net_->create_cq();
  auto rcq = net_->create_cq();
  net_->connect_qp(server_ip_, config_.qp_port, scq, rcq,
                   [this, done = std::move(done)](Result<core::VirtualQpPtr> qp) mutable {
    if (!qp.is_ok()) {
      FF_LOG(warn, "ps") << "worker QP setup failed: " << qp.status();
      done(qp.status());
      return;
    }
    qp_ = std::move(qp.value());
    iterate(config_.iterations, net_->loop().now(), std::move(done));
  });
}

void PsWorker::iterate(int remaining, SimTime started, DoneFn done) {
  if (remaining == 0) {
    done(net_->loop().now() - started);
    return;
  }
  // Push: WRITE the gradient into the server's model MR.
  rdma::SendWr push;
  push.wr_id = static_cast<std::uint64_t>(remaining) * 2;
  push.opcode = rdma::Opcode::write;
  push.local = {local_mr_, 0, local_mr_->length()};
  push.remote = {server_mr_, 0};
  FF_CHECK(qp_->post_send(push).is_ok());

  // Pull: READ the updated model back, then recurse on the completion.
  rdma::SendWr pull;
  pull.wr_id = push.wr_id + 1;
  pull.opcode = rdma::Opcode::read;
  pull.local = {local_mr_, 0, local_mr_->length()};
  pull.remote = {server_mr_, 0};
  FF_CHECK(qp_->post_send(pull).is_ok());

  // The hook is stored on the CQ itself, so it holds the CQ weakly — a
  // strong capture would be a self-cycle for any run that ends mid-iterate.
  auto scq = qp_->send_cq();
  scq->set_notify([this, wcq = std::weak_ptr<rdma::CompletionQueue>(scq), remaining,
                   started, done]() {
    auto cq = wcq.lock();
    if (!cq) return;
    rdma::WorkCompletion wc;
    while (cq->poll({&wc, 1}) == 1) {
      if (wc.opcode == rdma::Opcode::read && wc.status == rdma::WcStatus::success) {
        cq->set_notify(nullptr);
        net_->loop().schedule(0, [this, remaining, started, done]() {
          iterate(remaining - 1, started, done);
        });
        return;
      }
    }
  });
}

}  // namespace freeflow::workloads
