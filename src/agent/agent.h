// The per-host FreeFlow network agent (paper §3.2): brokers shared-memory
// channels between local containers, and relays inter-host container
// traffic over agent-to-agent trunks (RDMA when the NICs allow it, DPDK or
// kernel TCP otherwise). Containers never touch the physical NIC.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "agent/channel.h"
#include "agent/relay.h"
#include "agent/trunk.h"
#include "common/rng.h"
#include "dpdk/pmd.h"
#include "sim/event_loop.h"
#include "shm/region.h"
#include "orchestrator/network_orchestrator.h"
#include "rdma/device.h"
#include "tcpstack/modes.h"
#include "tcpstack/network.h"
#include "telemetry/telemetry.h"

namespace freeflow::agent {

class AgentFabric;

class Agent {
 public:
  /// Invoked when a peer opens a channel toward a local container.
  using IncomingFn = std::function<void(orch::ContainerId src, ChannelPtr)>;
  using EstablishFn = std::function<void(Result<ChannelPtr>)>;

  Agent(AgentFabric& fabric, fabric::Host& host);
  /// Cancels the lane-health monitor and detaches the NIC drop hook.
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// The core library registers each local container here.
  void register_container(orch::ContainerId id, IncomingFn on_incoming);
  void unregister_container(orch::ContainerId id);

  /// Opens a channel from local container `src` to container `dst` using
  /// the orchestrator-chosen `transport`. Asynchronous: trunk setup and the
  /// cross-agent handshake ride the control plane.
  void establish(orch::ContainerId src, orch::ContainerId dst,
                 orch::Transport transport, EstablishFn done);

  [[nodiscard]] fabric::Host& host() noexcept { return host_; }
  [[nodiscard]] sim::UsageAccount& account() noexcept { return account_; }
  [[nodiscard]] AgentFabric& fabric() noexcept { return fabric_; }

  /// Lane-relay-internal: fragments `message` into relay records and pushes
  /// them down the trunk toward `peer_host`. Routing fields are passed by
  /// value so the relay outlives the endpoint it was wired for.
  void relay_outbound(orch::ContainerId src, orch::ContainerId dst,
                      fabric::HostId peer_host, std::uint64_t channel_id,
                      orch::Transport transport, Message&& message);

  /// Trunk-internal: a record arrived from a peer agent.
  void dispatch_record(Buffer&& record);

  /// Channel-teardown: forgets the endpoint and its reassembly state. The
  /// registry only ever holds weak references — the conduit owns the
  /// endpoint — so this is bookkeeping, not destruction.
  void release_channel(std::uint64_t channel_id);

  /// Live channel count (weak entries pruned); teardown-test introspection.
  [[nodiscard]] std::size_t endpoint_count();

  /// True when the trunk toward `peer` can absorb more records (the
  /// channel-level writable() signal ANDs this in).
  [[nodiscard]] bool trunk_writable(fabric::HostId peer, orch::Transport transport) const;

  /// A trunk drained: re-signal writability on every endpoint.
  void notify_space();

  [[nodiscard]] std::uint64_t records_relayed() const noexcept { return records_relayed_; }

  // ---- fault tolerance --------------------------------------------------
  /// Freezes the agent process: inbound records and outbound relays buffer
  /// instead of flowing, and no heartbeats are sent (so a long pause looks
  /// like agent death to peers). Resume replays the buffers in order.
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const noexcept { return paused_; }

  /// Reports the loss of the lane toward (`peer`, `transport`) to the
  /// orchestrator once, then retires this agent's half and the peer agent's
  /// mirror half, failing every channel endpoint riding either (conduits
  /// then fail over). A no-op when this agent holds no trunk under the key.
  void declare_lane_failed(fabric::HostId peer, orch::Transport transport);
  [[nodiscard]] std::uint64_t lanes_failed() const noexcept {
    return ctr_lanes_failed_->value();
  }

  /// The host's RDMA engine (created on first use). Exposed so per_stream_qp
  /// sockets can carve their RC QPs (src/stream) out of the same NIC the
  /// agent trunks ride — TSoR-style sockets-over-RDMA.
  rdma::RdmaDevice& rdma_device();

 private:
  friend class AgentFabric;

  struct TrunkKey {
    fabric::HostId peer;
    orch::Transport transport;
    auto operator<=>(const TrunkKey&) const = default;
  };

  /// One attempt's completion: the built trunk, or why it failed. The
  /// shared_ptr (not a raw Trunk*) lets the retry driver adopt-or-retire the
  /// result after checking the attempt is still the live generation.
  using SetupDoneFn = std::function<void(Result<std::shared_ptr<Trunk>>)>;

  void establish_shm(orch::ContainerId src, orch::ContainerId dst, EstablishFn done);
  void establish_remote(orch::ContainerId src, orch::ContainerId dst,
                        fabric::HostId dst_host, orch::Transport transport,
                        EstablishFn done);
  /// Gets or builds the trunk to `peer`; `ready` fires when usable (or with
  /// the terminal error once the retry budget is spent). Opposite-direction
  /// and repeated requests for the same key join the in-flight setup as
  /// waiters — one establishment per (host pair, transport) at a time.
  void with_trunk(fabric::HostId peer, orch::Transport transport,
                  std::function<void(Result<Trunk*>)> ready);
  /// One handshake attempt each; establishment/retry is driven by
  /// start_setup_attempt / on_setup_result. The kernel-bypass transports
  /// (rdma, dpdk) share one two-sided control round trip; TCP dials.
  void setup_bypass_trunk(const TrunkKey& key, SetupDoneFn done);
  void setup_tcp_trunk(fabric::HostId peer, SetupDoneFn done);
  /// A fresh, unconnected half-trunk of a bypass transport toward `peer`.
  std::shared_ptr<Trunk> make_bypass_trunk(fabric::HostId peer, orch::Transport transport);
  /// True while `trunk` is still the one registered under `key`: a lane
  /// declared dead mid-handshake retired it.
  [[nodiscard]] bool holds(const TrunkKey& key, const std::shared_ptr<Trunk>& trunk) const;

  /// Launches the next attempt for the key's in-flight setup (arming the
  /// per-attempt watchdog), and the attempt's single completion point: a
  /// stale generation is ignored, success establishes the trunk and fires
  /// the waiters, a retryable failure schedules backoff, anything else (or
  /// a spent budget) fails the waiters terminally.
  void start_setup_attempt(const TrunkKey& key);
  void on_setup_result(const TrunkKey& key, std::uint64_t gen,
                       Result<std::shared_ptr<Trunk>> result);
  /// Converts an external event (lane death mid-handshake) into a failure
  /// of the key's current attempt. No-op without an in-flight setup.
  void fail_setup_attempt(const TrunkKey& key, Status error);

  dpdk::DpdkPort& dpdk_port();

  /// Single point of trunk registration: wires keyed record/drain callbacks
  /// and, once `established`, starts the lane's rx clock and (re)arms the
  /// health monitor. Idempotent-or-merge, never clobber: if a different
  /// trunk already holds the key, the incumbent wins and the newcomer goes
  /// to the graveyard. Returns the surviving trunk.
  std::shared_ptr<Trunk> adopt_trunk(const TrunkKey& key, std::shared_ptr<Trunk> trunk,
                                     bool established);
  /// Moves the key's trunk (pending or established) to the graveyard and
  /// fails the endpoints riding it. Local bookkeeping only: no lane-death
  /// count and no failed setup attempt (retire_lane adds those), no mirror
  /// and no orchestrator report (declare_lane_failed adds those).
  void retire_trunk_half(const TrunkKey& key);
  /// One half of a lane death, on either agent: counts it, retires the
  /// key's trunk half and fails a setup riding it. No-op without a trunk.
  void retire_lane(const TrunkKey& key);
  /// Retires the key's trunk only if it never established (a failed
  /// attempt's half-built half-trunk).
  void abandon_pending_trunk(const TrunkKey& key);
  /// Moves a trunk to the graveyard (see retired_trunks_).
  void bury(std::shared_ptr<Trunk> trunk);
  /// Marks rx activity on a monitored lane (no-op for retired lanes).
  void note_lane_rx(const TrunkKey& key);
  void arm_monitor();
  void monitor_tick();
  void send_heartbeat(const TrunkKey& key);
  /// Prunes expired entries from endpoints_ and appends the live endpoints
  /// (only those riding the `lane` key's trunk, when given) to `out`. A
  /// snapshot: acting on an endpoint may re-enter release_channel.
  void collect_live_endpoints(std::vector<std::shared_ptr<RemoteChannelEndpoint>>& out,
                              const TrunkKey* lane = nullptr);

 public:
  /// The host's /dev/shm model. Each co-located channel holds one region:
  /// the permission and budget record for its two lanes, unlinked when the
  /// channel closes.
  [[nodiscard]] shm::RegionRegistry& shm_registry() noexcept { return shm_registry_; }

 private:

  /// Peer-agent request: create the B-side endpoint for a channel.
  void accept_channel(orch::ContainerId src, orch::ContainerId dst,
                      std::uint64_t channel_id, orch::Transport transport,
                      fabric::HostId src_host, std::function<void(Status)> reply);

  std::shared_ptr<shm::ShmLane> make_lane(sim::UsageAccount* sender,
                                          sim::UsageAccount* receiver);
  /// Builds and registers the endpoint of local container `self` for a
  /// channel to `peer` on `peer_host`, with the outbound relay hung on its
  /// container->agent lane.
  std::shared_ptr<RemoteChannelEndpoint> open_endpoint(orch::ContainerId self,
                                                       orch::ContainerId peer,
                                                       fabric::HostId peer_host,
                                                       std::uint64_t channel_id,
                                                       orch::Transport transport);
  sim::UsageAccount* container_account(orch::ContainerId id);

  AgentFabric& fabric_;
  fabric::Host& host_;
  sim::UsageAccount account_;

  std::unordered_map<orch::ContainerId, IncomingFn> containers_;
  /// Every trunk the agent knows by key — pending halves mid-handshake
  /// included (so an opposite-direction setup can find and join them).
  /// "Established" is tracked by lane_last_rx_ membership: only established
  /// lanes are heartbeat-monitored, so a slow handshake with backoff is
  /// never declared dead by its own agent.
  std::map<TrunkKey, std::shared_ptr<Trunk>> trunks_;

  /// In-flight establishment per key: the waiters to fire, the retry
  /// budget's position, and the generation stamp that invalidates late
  /// callbacks from abandoned attempts.
  struct TrunkSetup {
    std::vector<std::function<void(Result<Trunk*>)>> waiters;
    int attempt = 0;          ///< attempts started (1-based once running)
    std::uint64_t gen = 0;    ///< bumped at attempt start and on failure
    SimTime started_at = 0;   ///< first attempt's start (latency histogram)
    Status last_error;
    sim::EventHandle watchdog;
    sim::EventHandle backoff;
  };
  std::map<TrunkKey, TrunkSetup> setups_;
  /// Weak: the conduit (via its ChannelPtr) owns the endpoint; this map is
  /// only the inbound-record routing table, so agent registration can never
  /// keep a closed channel alive (ownership stays a DAG).
  std::unordered_map<std::uint64_t, std::weak_ptr<RemoteChannelEndpoint>> endpoints_;
  /// notify_space's snapshot storage, empty between calls.
  std::vector<std::shared_ptr<RemoteChannelEndpoint>> space_snapshot_;

  /// Strong co-ownership of each channel's container->agent lane. The relay
  /// hook lives on this lane, and records already queued when the conduit
  /// destroys its endpoint — the closing bye among them — must still drain
  /// to the trunk. Dropped once the channel is released AND the lane is
  /// empty (release_channel, or the relay hook after the last record).
  std::unordered_map<std::uint64_t, std::shared_ptr<shm::ShmLane>> outbound_lanes_;

  /// Erases the channel's outbound lane if it is released and drained.
  void drop_drained_lane(std::uint64_t channel_id);

  /// Reassembly of fragmented inbound messages: (channel, msg_seq) -> state.
  struct Reassembly {
    Buffer data;
    std::size_t received = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Reassembly> rx_;

  std::unique_ptr<rdma::RdmaDevice> rdma_device_;
  std::unique_ptr<dpdk::DpdkPort> dpdk_port_;
  shm::RegionRegistry shm_registry_;
  std::uint64_t records_relayed_ = 0;
  std::uint64_t next_msg_seq_ = 1;

  // ---- lane health ------------------------------------------------------
  /// Last time any record (heartbeats included) arrived on each live lane.
  std::map<TrunkKey, SimTime> lane_last_rx_;
  /// Failed and losing trunks are retired here, not freed: a retired half
  /// keeps a connected QP or TCP connection that may still deliver. No
  /// scheduled event holds a raw pointer to a trunk (DESIGN §8).
  std::vector<std::shared_ptr<Trunk>> retired_trunks_;
  sim::EventHandle monitor_;
  bool monitor_armed_ = false;

  /// Deterministic per-agent jitter source for retry backoff.
  Rng retry_rng_;

  // Telemetry (wired in the ctor from the cluster hub; the registry-owned
  // metrics safely outlive this agent).
  telemetry::Counter* ctr_heartbeats_ = nullptr;
  telemetry::Counter* ctr_lanes_failed_ = nullptr;
  telemetry::Gauge* gauge_graveyard_ = nullptr;
  telemetry::Counter* ctr_setup_retries_ = nullptr;
  telemetry::Counter* ctr_setup_races_ = nullptr;
  telemetry::Counter* ctr_trunks_retired_ = nullptr;
  Histogram* hist_setup_latency_ = nullptr;

  // ---- pause (fault injection) ------------------------------------------
  bool paused_ = false;
  std::vector<Buffer> paused_rx_;
  struct PausedRelay {
    orch::ContainerId src;
    orch::ContainerId dst;
    fabric::HostId peer_host;
    std::uint64_t channel_id;
    orch::Transport transport;
    Message message;
  };
  std::vector<PausedRelay> paused_tx_;

  /// Liveness token for callbacks registered on longer-lived objects (the
  /// NIC drop hook, deferred lane-failure declarations).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Deployment-wide agent wiring: one agent per host, the shared underlay
/// TCP network for TCP trunks, and channel-id allocation.
class AgentFabric {
 public:
  AgentFabric(orch::NetworkOrchestrator& orchestrator, AgentConfig config = {});

  AgentFabric(const AgentFabric&) = delete;
  AgentFabric& operator=(const AgentFabric&) = delete;

  /// Gets (or starts) the agent on `host`.
  Agent& agent_on(fabric::HostId host);

  [[nodiscard]] orch::NetworkOrchestrator& orchestrator() noexcept { return orchestrator_; }
  [[nodiscard]] const AgentConfig& config() const noexcept { return config_; }
  [[nodiscard]] fabric::Cluster& cluster() noexcept;
  [[nodiscard]] sim::EventLoop& loop() noexcept;
  [[nodiscard]] tcp::TcpNetwork& underlay() noexcept { return underlay_net_; }

  [[nodiscard]] std::uint64_t next_channel_id() noexcept { return next_channel_id_++; }

  /// The host-network IP an agent listens on (host mode): 192.168.0.(id+1).
  [[nodiscard]] static tcp::Ipv4Addr agent_ip(fabric::HostId host) noexcept {
    return tcp::Ipv4Addr(192, 168, 0, static_cast<std::uint8_t>(host + 1));
  }
  [[nodiscard]] static fabric::HostId host_of_agent_ip(tcp::Ipv4Addr ip) noexcept {
    return (ip.value() & 0xFF) - 1;
  }

 private:
  orch::NetworkOrchestrator& orchestrator_;
  AgentConfig config_;
  tcp::HostModeBuilder underlay_builder_;
  tcp::TcpNetwork underlay_net_;
  std::unordered_map<fabric::HostId, std::unique_ptr<Agent>> agents_;
  std::uint64_t next_channel_id_ = 1;
};

}  // namespace freeflow::agent
