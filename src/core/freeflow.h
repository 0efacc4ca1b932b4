// FreeFlow: the deployment-wide entry point. Wires the network
// orchestrator, per-host agents, the transport selector and per-container
// library instances together. This is the object an operator (or an
// example/benchmark) constructs once per cluster.
//
// It also owns the network side of every container move. The cluster
// orchestrator announces each move twice, and FreeFlow answers each on
// every library instance the move touches: migration-started captures
// (every conduit touching the container detaches; the container leaves its
// source agent), moved resumes (the container joins its new agent, every
// touching conduit unpauses, then the initiator side of each rebinds). A
// planned move (src/migration) adds only a quiesce ahead of the capture.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "core/container_net.h"
#include "core/selector.h"

namespace freeflow::core {

class FreeFlow {
 public:
  explicit FreeFlow(orch::NetworkOrchestrator& orchestrator,
                    agent::AgentConfig config = {});

  FreeFlow(const FreeFlow&) = delete;
  FreeFlow& operator=(const FreeFlow&) = delete;

  /// Attaches the FreeFlow library to a running container: starts the host
  /// agent if needed and registers the container with it.
  Result<ContainerNetPtr> attach(orch::ContainerId id);

  /// The library instance of an attached container.
  [[nodiscard]] ContainerNetPtr net(orch::ContainerId id) const;

  [[nodiscard]] orch::NetworkOrchestrator& orchestrator() noexcept { return orchestrator_; }
  [[nodiscard]] orch::ShardedControlPlane& control_plane() noexcept { return plane_; }
  [[nodiscard]] agent::AgentFabric& agents() noexcept { return agents_; }
  /// The decision cache of the agent on `host` (created on first use): each
  /// host's library talks to its own bounded, epoch-validated cache.
  [[nodiscard]] TransportSelector& selector_on(fabric::HostId host);
  /// Host-0 agent's cache — the single-host tests' and benches' shorthand.
  [[nodiscard]] TransportSelector& selector() { return selector_on(0); }
  [[nodiscard]] sim::EventLoop& loop() noexcept { return agents_.loop(); }

  /// The deployment-shared overlay TCP network per_stream_qp sockets fall
  /// back to when the selector withholds RDMA. One shared instance so
  /// listeners and dials demux on the same tables.
  [[nodiscard]] tcp::TcpNetwork& fallback_net();

  [[nodiscard]] std::uint64_t next_token() noexcept { return next_token_++; }

  /// The conduit series of containers on `host` over `transport`,
  /// registered the first time the pair is seen.
  [[nodiscard]] const ConduitSeries& conduit_series(fabric::HostId host,
                                                    orch::Transport transport);

 private:
  /// Library instances with a conduit touching container `id` (its own
  /// included).
  [[nodiscard]] std::vector<ContainerNetPtr> nets_touching(orch::ContainerId id) const;

  orch::NetworkOrchestrator& orchestrator_;
  /// Constructed (and subscribed to container/health events) BEFORE the
  /// handlers below, so cache flushes land before any re-decision runs.
  orch::ShardedControlPlane plane_;
  agent::AgentFabric agents_;
  std::unordered_map<fabric::HostId, std::unique_ptr<TransportSelector>> selectors_;
  std::unique_ptr<tcp::TcpNetwork> fallback_net_;
  std::map<std::pair<fabric::HostId, orch::Transport>, ConduitSeries> conduit_series_;
  std::unordered_map<orch::ContainerId, ContainerNetPtr> nets_;
  std::uint64_t next_token_ = 1;
  /// Liveness token for orchestrator subscriptions: the orchestrator can
  /// outlive this FreeFlow, so its callbacks hold a weak observer instead
  /// of a raw back-pointer (teardown protocol).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace freeflow::core
