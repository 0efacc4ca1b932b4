// Parameter-server ML training loop over the FreeFlow verbs API: workers
// WRITE gradients into the server's registered memory and READ back the
// updated model — the one-sided pattern FaRM-style systems use, and the
// machine-learning workload the paper's introduction cites.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/container_net.h"

namespace freeflow::workloads {

class ParamServer {
 public:
  struct Config {
    std::size_t model_floats = 256 * 1024;  ///< model size (1 MiB of floats)
    int iterations = 10;
    std::uint16_t qp_port = 18515;
  };

  /// Server rank: owns the model MR and accepts worker QPs.
  ParamServer(core::ContainerNetPtr server_net, Config config);

  /// Exposes the model MR id workers target with WRITE/READ.
  [[nodiscard]] std::uint32_t model_mr_id() const noexcept { return model_mr_->rkey(); }

  Status start();

  [[nodiscard]] std::size_t workers_connected() const noexcept { return qps_.size(); }

 private:
  core::ContainerNetPtr net_;
  Config config_;
  rdma::MrPtr model_mr_;
  std::vector<core::VirtualQpPtr> qps_;
};

class PsWorker {
 public:
  using DoneFn = std::function<void(Result<SimDuration>)>;

  PsWorker(core::ContainerNetPtr worker_net, tcp::Ipv4Addr server_ip,
           ParamServer::Config config);

  /// Runs `iterations` of push(WRITE)+pull(READ); done(elapsed) at the end,
  /// or done(error) if the worker's QP setup terminally fails (the loop
  /// would otherwise never start and the caller would hang).
  void run(std::uint32_t server_mr_id, DoneFn done);

  [[nodiscard]] orch::Transport transport() const noexcept {
    return qp_ ? qp_->transport() : orch::Transport::tcp_overlay;
  }

 private:
  void iterate(int remaining, SimTime started, DoneFn done);

  core::ContainerNetPtr net_;
  tcp::Ipv4Addr server_ip_;
  ParamServer::Config config_;
  std::uint32_t server_mr_ = 0;
  rdma::MrPtr local_mr_;
  core::VirtualQpPtr qp_;
};

}  // namespace freeflow::workloads
