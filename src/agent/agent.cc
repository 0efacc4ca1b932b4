#include "agent/agent.h"

#include <algorithm>

#include "common/logging.h"
#include "fabric/control.h"

namespace freeflow::agent {

namespace {
constexpr std::uint32_t k_ctrl_bytes = 160;
/// In-flight records per RDMA trunk.
constexpr std::uint32_t k_rdma_slots = 32;
/// Agent-to-agent TCP service port.
constexpr std::uint16_t k_trunk_tcp_port = 7777;
/// Lane health monitoring: every interval the agent heartbeats each remote
/// trunk and declares a lane dead after k_heartbeat_timeout_ns of rx
/// silence. The monitor runs as a maintenance event
/// (EventLoop::schedule_maintenance), so it never keeps an idle loop alive.
/// The timeout rides out benign multi-millisecond stalls (e.g. a
/// paused-not-dead peer agent) while still detecting real lane death within
/// ~10 ms of virtual time.
constexpr SimDuration k_heartbeat_interval_ns = k_millisecond;
constexpr SimDuration k_heartbeat_timeout_ns = 10 * k_millisecond;
/// Base seed for the per-agent backoff-jitter Rng (xored with the host id,
/// so agents jitter independently yet the whole run stays reproducible).
constexpr std::uint64_t k_trunk_retry_seed = 0x7EE7F10017ULL;
}  // namespace

// ---------------------------------------------------------------- AgentFabric

AgentFabric::AgentFabric(orch::NetworkOrchestrator& orchestrator, AgentConfig config)
    : orchestrator_(orchestrator),
      config_(config),
      underlay_builder_(cluster().cost_model()),
      underlay_net_(cluster().loop(), cluster().cost_model(), underlay_builder_) {}

fabric::Cluster& AgentFabric::cluster() noexcept {
  return orchestrator_.cluster_orch().cluster();
}

sim::EventLoop& AgentFabric::loop() noexcept { return cluster().loop(); }

Agent& AgentFabric::agent_on(fabric::HostId host) {
  auto it = agents_.find(host);
  if (it != agents_.end()) return *it->second;
  fabric::Host& h = cluster().host(host);
  const Status bound = underlay_builder_.addresses().add(agent_ip(host), h, nullptr);
  FF_CHECK(bound.is_ok());
  auto agent = std::make_unique<Agent>(*this, h);
  Agent& ref = *agent;
  agents_.emplace(host, std::move(agent));
  return ref;
}

// ---------------------------------------------------------------------- Agent

Agent::Agent(AgentFabric& fabric, fabric::Host& host)
    : fabric_(fabric), host_(host), account_("agent@" + host.name()) {
  fabric::install_control_rx(host_);
  tcp::WireHop::install_rx(host_);

  auto& metrics = fabric_.cluster().telemetry().metrics();
  const std::string prefix = "agent/" + std::to_string(host_.id()) + "/";
  ctr_heartbeats_ = &metrics.counter(prefix + "heartbeats_sent");
  ctr_lanes_failed_ = &metrics.counter(prefix + "lanes_failed");
  gauge_graveyard_ = &metrics.gauge(prefix + "graveyard");
  ctr_setup_retries_ = &metrics.counter(prefix + "trunk/setup_retries");
  ctr_setup_races_ = &metrics.counter(prefix + "trunk/setup_races_resolved");
  ctr_trunks_retired_ = &metrics.counter(prefix + "trunk/retired");
  hist_setup_latency_ = &metrics.histogram(prefix + "trunk/setup_latency_ns");

  retry_rng_.reseed(k_trunk_retry_seed ^
                    (0x9E3779B97F4A7C15ULL * (host_.id() + 1)));

  // TCP trunk service: peer agents connect here when NICs lack bypass.
  // Under the single-dialer rule only the lower host id dials, so an
  // inbound connection always lands on the pair's higher id — where any
  // local trunk for the key is either the conn-less pending half of our own
  // in-flight setup (attach and complete it) or a fully established trunk
  // whose dialer abandoned its old connection and re-dialed (freshest
  // connection wins).
  const tcp::Endpoint ep{AgentFabric::agent_ip(host_.id()), k_trunk_tcp_port};
  const Status listening =
      fabric_.underlay().listen(ep, [this](tcp::TcpConnection::Ptr conn) {
        const fabric::HostId peer =
            AgentFabric::host_of_agent_ip(conn->flow().remote.ip);
        const TrunkKey key{peer, orch::Transport::tcp_host};
        if (auto sit = setups_.find(key); sit != setups_.end()) {
          auto tit = trunks_.find(key);
          if (tit != trunks_.end()) {
            auto pending = std::static_pointer_cast<TcpTrunk>(tit->second);
            if (!pending->connected()) {
              pending->attach(std::move(conn));
              on_setup_result(key, sit->second.gen,
                              std::static_pointer_cast<Trunk>(pending));
            }
            return;  // duplicate SYN against a live setup: drop it
          }
          // Setup in backoff (no pending half right now): fall through and
          // adopt passively; the next attempt finds the established trunk.
        }
        if (trunks_.contains(key)) retire_trunk_half(key);
        auto trunk = std::make_shared<TcpTrunk>();
        trunk->attach(std::move(conn));
        adopt_trunk(key, std::move(trunk), /*established=*/true);
        if (auto sit = setups_.find(key); sit != setups_.end()) {
          on_setup_result(key, sit->second.gen, trunks_[key]);
        }
      });
  FF_CHECK(listening.is_ok());

  // Send-error-driven lane failure: a packet the sick NIC drops indicts that
  // transport's lanes immediately, well before any heartbeat times out. The
  // declaration is deferred one event — the drop fires mid-send, deep inside
  // trunk machinery that must not be retired under its own feet. Kernel TCP
  // frames are exempt (the stack retransmits through transient loss), and a
  // full link outage is the orchestrator's call, not ours.
  std::weak_ptr<bool> alive = alive_;
  host_.nic().set_on_drop([this, alive](fabric::PacketKind kind) {
    if (alive.expired()) return;
    orch::Transport transport;
    switch (kind) {
      case fabric::PacketKind::rdma_chunk:
        transport = orch::Transport::rdma;
        break;
      case fabric::PacketKind::dpdk_frame:
        transport = orch::Transport::dpdk;
        break;
      default:
        return;
    }
    host_.loop().schedule(0, [this, alive, transport]() {
      if (alive.expired()) return;
      std::vector<fabric::HostId> peers;
      for (const auto& [key, trunk] : trunks_) {
        if (key.transport == transport) peers.push_back(key.peer);
      }
      for (const fabric::HostId peer : peers) declare_lane_failed(peer, transport);
    });
  });
}

Agent::~Agent() {
  monitor_.cancel();
  for (auto& [key, setup] : setups_) {
    setup.watchdog.cancel();
    setup.backoff.cancel();
  }
  host_.nic().set_on_drop(nullptr);
}

void Agent::register_container(orch::ContainerId id, IncomingFn on_incoming) {
  containers_[id] = std::move(on_incoming);
}

void Agent::unregister_container(orch::ContainerId id) { containers_.erase(id); }

sim::UsageAccount* Agent::container_account(orch::ContainerId id) {
  auto c = fabric_.orchestrator().cluster_orch().container(id);
  return c == nullptr ? nullptr : &c->account();
}

std::shared_ptr<shm::ShmLane> Agent::make_lane(sim::UsageAccount* sender,
                                               sim::UsageAccount* receiver) {
  auto lane = std::make_shared<shm::ShmLane>(host_, fabric_.config().lane_ring_bytes);
  lane->set_sender_account(sender);
  lane->set_receiver_account(receiver);
  return lane;
}

void Agent::establish(orch::ContainerId src, orch::ContainerId dst,
                      orch::Transport transport, EstablishFn done) {
  auto& norch = fabric_.orchestrator();
  auto s = norch.cluster_orch().container(src);
  auto d = norch.cluster_orch().container(dst);
  if (s == nullptr || d == nullptr) {
    done(not_found("unknown container in channel request"));
    return;
  }
  // Enforcement point: isolation may only be traded among trusting
  // containers, whatever the caller asked for.
  if (!norch.trusted(*s, *d)) {
    done(permission_denied("containers " + s->name() + " and " + d->name() +
                           " do not trust each other"));
    return;
  }
  if (transport == orch::Transport::tcp_overlay) {
    done(invalid_argument("overlay traffic does not go through agents"));
    return;
  }
  if (transport == orch::Transport::shm) {
    if (d->host() != host_.id() || s->host() != host_.id()) {
      done(failed_precondition("shm requires co-located containers"));
      return;
    }
    establish_shm(src, dst, std::move(done));
    return;
  }
  establish_remote(src, dst, d->host(), transport, std::move(done));
}

void Agent::establish_shm(orch::ContainerId src, orch::ContainerId dst,
                          EstablishFn done) {
  auto it = containers_.find(dst);
  if (it == containers_.end()) {
    done(unavailable("destination container not registered with agent"));
    return;
  }
  // Model the POSIX shm segment: created under the source tenant, with the
  // destination tenant explicitly allow-listed (the mechanical form of
  // "isolation is traded only among trusting containers").
  auto& norch2 = fabric_.orchestrator();
  auto src_c = norch2.cluster_orch().container(src);
  auto dst_c = norch2.cluster_orch().container(dst);
  auto region = shm_registry_.create(src_c->tenant(),
                                     2 * fabric_.config().lane_ring_bytes);
  if (!region.is_ok()) {
    done(region.status());
    return;
  }
  (*region)->allow(dst_c->tenant());
  auto attached = shm_registry_.attach((*region)->id(), dst_c->tenant());
  FF_CHECK(attached.is_ok());

  auto lane_ab = make_lane(container_account(src), container_account(dst));
  auto lane_ba = make_lane(container_account(dst), container_account(src));
  auto ep_a = std::make_shared<ShmChannelEndpoint>(lane_ab, lane_ba);
  auto ep_b = std::make_shared<ShmChannelEndpoint>(lane_ba, lane_ab);
  ep_a->hold_region(*region, shm_registry_);
  ep_b->hold_region(*region, shm_registry_);

  // Local brokering costs one control round within the host.
  host_.loop().schedule(2 * k_microsecond,
                        [this, src, dst, ep_a, ep_b, done = std::move(done)]() {
                          auto cit = containers_.find(dst);
                          if (cit == containers_.end()) {
                            done(unavailable("destination vanished during setup"));
                            return;
                          }
                          cit->second(src, ep_b);
                          done(ChannelPtr(ep_a));
                        });
}

void Agent::establish_remote(orch::ContainerId src, orch::ContainerId dst,
                             fabric::HostId dst_host, orch::Transport transport,
                             EstablishFn done) {
  Agent& peer = fabric_.agent_on(dst_host);  // ensure the peer agent runs
  (void)peer;
  with_trunk(dst_host, transport,
             [this, src, dst, dst_host, transport,
              done = std::move(done)](Result<Trunk*> trunk) mutable {
    if (!trunk.is_ok()) {
      done(trunk.status());
      return;
    }
    const std::uint64_t id = fabric_.next_channel_id();
    Agent* peer_agent = &fabric_.agent_on(dst_host);
    const fabric::HostId self_host = host_.id();

    fabric::send_control(
        host_, dst_host, k_ctrl_bytes,
        [this, peer_agent, src, dst, id, transport, self_host,
         done = std::move(done)]() mutable {
          peer_agent->accept_channel(
              src, dst, id, transport, self_host,
              [this, peer_agent, src, dst, id, transport, self_host,
               done = std::move(done)](Status st) mutable {
                fabric::send_control(
                    peer_agent->host(), self_host, k_ctrl_bytes,
                    [this, st, src, dst, id, transport,
                     dst_host = peer_agent->host().id(),
                     done = std::move(done)]() mutable {
                      if (!st.is_ok()) {
                        done(st);
                        return;
                      }
                      done(ChannelPtr(open_endpoint(src, dst, dst_host, id, transport)));
                    });
              });
        });
  });
}

void Agent::accept_channel(orch::ContainerId src, orch::ContainerId dst,
                           std::uint64_t channel_id, orch::Transport transport,
                           fabric::HostId src_host,
                           std::function<void(Status)> reply) {
  auto it = containers_.find(dst);
  if (it == containers_.end()) {
    reply(unavailable("destination container not registered with agent"));
    return;
  }
  // For trunked transports the B-side trunk was created during trunk setup
  // (rdma/dpdk) or at TCP accept; relay_outbound finds it by key.
  it->second(src, open_endpoint(dst, src, src_host, channel_id, transport));
  reply(ok_status());
}

std::shared_ptr<RemoteChannelEndpoint> Agent::open_endpoint(orch::ContainerId self,
                                                            orch::ContainerId peer,
                                                            fabric::HostId peer_host,
                                                            std::uint64_t channel_id,
                                                            orch::Transport transport) {
  auto to_agent = make_lane(container_account(self), &account_);
  auto from_agent = make_lane(&account_, container_account(self));
  auto ep = std::make_shared<RemoteChannelEndpoint>(*this, peer_host, channel_id,
                                                    transport, to_agent, from_agent);
  // The relay hook captures routing fields by value plus the agent itself —
  // never the endpoint or the lane — so records queued in the lane (the
  // closing bye included) still relay after the endpoint is destroyed. The
  // agent co-owns the lane (outbound_lanes_) to keep those queued records
  // alive; the hook hands back that ownership after the final record drains.
  outbound_lanes_[channel_id] = to_agent;
  to_agent->set_receiver([this, self, peer, peer_host, channel_id,
                          transport](Message&& msg) {
    relay_outbound(self, peer, peer_host, channel_id, transport, std::move(msg));
    drop_drained_lane(channel_id);
  });
  endpoints_.emplace(channel_id, ep);
  return ep;
}

// ------------------------------------------------------------------- trunks

void Agent::with_trunk(fabric::HostId peer, orch::Transport transport,
                       std::function<void(Result<Trunk*>)> ready) {
  const TrunkKey key{peer, transport};
  if (auto sit = setups_.find(key); sit != setups_.end()) {
    sit->second.waiters.push_back(std::move(ready));  // join the in-flight setup
    return;
  }
  if (auto it = trunks_.find(key); it != trunks_.end()) {
    ready(it->second.get());
    return;
  }
  TrunkSetup& setup = setups_[key];
  setup.waiters.push_back(std::move(ready));
  setup.started_at = host_.loop().now();
  start_setup_attempt(key);
}

void Agent::start_setup_attempt(const TrunkKey& key) {
  auto it = setups_.find(key);
  FF_CHECK(it != setups_.end());
  TrunkSetup& setup = it->second;
  ++setup.attempt;
  const std::uint64_t gen = ++setup.gen;
  // An opposite-direction handshake may have established the lane while we
  // were backing off; completing with it is this attempt's success.
  if (auto t = trunks_.find(key); t != trunks_.end() && lane_last_rx_.contains(key)) {
    on_setup_result(key, gen, t->second);
    return;
  }
  const RetryPolicy& policy = fabric_.config().trunk_retry;
  if (policy.attempt_timeout_ns > 0) {
    setup.watchdog = host_.loop().schedule_cancellable(
        policy.attempt_timeout_ns, [this, key, gen]() {
          on_setup_result(key, gen, timed_out("trunk setup attempt timed out"));
        });
  }
  auto done = [this, key, gen](Result<std::shared_ptr<Trunk>> result) {
    on_setup_result(key, gen, std::move(result));
  };
  switch (key.transport) {
    case orch::Transport::rdma:
    case orch::Transport::dpdk:
      setup_bypass_trunk(key, std::move(done));
      break;
    case orch::Transport::tcp_host:
      setup_tcp_trunk(key.peer, std::move(done));
      break;
    default:
      on_setup_result(key, gen, invalid_argument("transport has no trunk"));
  }
}

void Agent::on_setup_result(const TrunkKey& key, std::uint64_t gen,
                            Result<std::shared_ptr<Trunk>> result) {
  auto it = setups_.find(key);
  if (it == setups_.end() || it->second.gen != gen) {
    // A straggler from an abandoned attempt (watchdog fired, lane was
    // declared dead, or a fresher attempt superseded it). Its trunk — if it
    // even built one — was already retired when the attempt was abandoned;
    // adopting anything now would wire a zombie, so drop it on the floor.
    return;
  }
  TrunkSetup& setup = it->second;
  setup.watchdog.cancel();
  setup.backoff.cancel();
  if (result.is_ok()) {
    std::shared_ptr<Trunk> trunk =
        adopt_trunk(key, std::move(result.value()), /*established=*/true);
    hist_setup_latency_->record(host_.loop().now() - setup.started_at);
    auto waiters = std::move(setup.waiters);
    setups_.erase(it);
    for (auto& cb : waiters) cb(trunk.get());
    return;
  }
  setup.last_error = result.status();
  ++setup.gen;  // invalidate every other callback still in flight for this attempt
  abandon_pending_trunk(key);
  const RetryPolicy& policy = fabric_.config().trunk_retry;
  if (!RetryPolicy::retryable(setup.last_error) ||
      setup.attempt >= policy.max_attempts) {
    Status terminal(setup.last_error.code(),
                    "trunk setup failed after " + std::to_string(setup.attempt) +
                        " attempt(s): " + setup.last_error.message());
    auto waiters = std::move(setup.waiters);
    setups_.erase(it);
    for (auto& cb : waiters) cb(terminal);
    return;
  }
  ctr_setup_retries_->inc();
  const SimDuration delay = policy.backoff_for(setup.attempt, retry_rng_);
  FF_LOG(info, "agent") << host_.name() << ": trunk setup to host " << key.peer
                        << " over " << orch::transport_name(key.transport)
                        << " failed (" << setup.last_error << "), attempt "
                        << setup.attempt << "/" << policy.max_attempts
                        << ", retrying in " << delay << "ns";
  setup.backoff = host_.loop().schedule_cancellable(
      delay, [this, key]() { start_setup_attempt(key); });
}

void Agent::fail_setup_attempt(const TrunkKey& key, Status error) {
  auto it = setups_.find(key);
  if (it == setups_.end()) return;
  on_setup_result(key, it->second.gen, std::move(error));
}

rdma::RdmaDevice& Agent::rdma_device() {
  if (rdma_device_ == nullptr) {
    rdma_device_ = std::make_unique<rdma::RdmaDevice>(host_);
  }
  return *rdma_device_;
}

dpdk::DpdkPort& Agent::dpdk_port() {
  if (dpdk_port_ == nullptr) {
    dpdk_port_ = std::make_unique<dpdk::DpdkPort>(host_);
    // The port is shared by every DPDK trunk, so rx activity is credited to
    // the lane by the frame's source host rather than per-trunk callbacks.
    dpdk_port_->set_on_message([this](fabric::HostId src, Buffer&& record) {
      note_lane_rx(TrunkKey{src, orch::Transport::dpdk});
      dispatch_record(std::move(record));
    });
    dpdk_port_->set_on_tx_space([this]() { notify_space(); });
  }
  return *dpdk_port_;
}

std::shared_ptr<Trunk> Agent::adopt_trunk(const TrunkKey& key,
                                          std::shared_ptr<Trunk> trunk,
                                          bool established) {
  auto it = trunks_.find(key);
  if (it != trunks_.end() && it->second != trunk) {
    // Never clobber: the incumbent (an opposite-direction setup's half, or
    // a fresher attempt's pending trunk) wins; the newcomer is retired.
    ctr_setup_races_->inc();
    bury(std::move(trunk));
    trunk = it->second;
  } else if (it == trunks_.end()) {
    trunk->set_on_record([this, key](Buffer&& r) {
      note_lane_rx(key);
      dispatch_record(std::move(r));
    });
    trunk->set_on_drained([this]() { notify_space(); });
    trunks_[key] = trunk;
  }
  if (established && !lane_last_rx_.contains(key)) {
    lane_last_rx_[key] = host_.loop().now();
    arm_monitor();
  }
  return trunk;
}

void Agent::bury(std::shared_ptr<Trunk> trunk) {
  // Graveyard, not free: a retired half keeps a connected QP or TCP
  // connection whose peer may still deliver records on it.
  retired_trunks_.push_back(std::move(trunk));
  ctr_trunks_retired_->inc();
  gauge_graveyard_->set(static_cast<std::int64_t>(retired_trunks_.size()));
}

void Agent::retire_trunk_half(const TrunkKey& key) {
  auto it = trunks_.find(key);
  if (it == trunks_.end()) return;
  bury(std::move(it->second));
  trunks_.erase(it);
  lane_last_rx_.erase(key);
  std::vector<std::shared_ptr<RemoteChannelEndpoint>> victims;
  collect_live_endpoints(victims, &key);
  for (auto& ep : victims) ep->fail();
}

bool Agent::holds(const TrunkKey& key, const std::shared_ptr<Trunk>& trunk) const {
  auto it = trunks_.find(key);
  return it != trunks_.end() && it->second == trunk;
}

void Agent::abandon_pending_trunk(const TrunkKey& key) {
  if (lane_last_rx_.contains(key)) return;  // established: not an abandoned half
  retire_trunk_half(key);
}

void Agent::note_lane_rx(const TrunkKey& key) {
  auto it = lane_last_rx_.find(key);
  if (it != lane_last_rx_.end()) it->second = host_.loop().now();
}

namespace {
/// Ok when `host`'s NIC can carry a bypass trunk of `transport`; `side`
/// ("local" or "peer") names it in the refusal.
Status check_nic(const fabric::Host& host, orch::Transport transport, const char* side) {
  const auto& caps = host.nic().capabilities();
  if (transport == orch::Transport::rdma && !caps.rdma) {
    return failed_precondition(std::string(side) + " NIC is not RDMA-capable");
  }
  if (transport == orch::Transport::dpdk && !caps.dpdk) {
    return failed_precondition(std::string(side) + " NIC does not support DPDK");
  }
  return ok_status();
}

/// Connects an RDMA half-trunk's QP to the peer's and starts the trunk,
/// unless an earlier control message of the same handshake already did.
void connect_once(RdmaTrunk& trunk, fabric::HostId peer, rdma::QpNum peer_qp) {
  if (trunk.qp()->state() == rdma::QpState::ready) return;
  FF_CHECK(trunk.qp()->connect(peer, peer_qp).is_ok());
  trunk.start();
}
}  // namespace

std::shared_ptr<Trunk> Agent::make_bypass_trunk(fabric::HostId peer,
                                                orch::Transport transport) {
  if (transport == orch::Transport::dpdk) {
    dpdk_port().start();
    return std::make_shared<DpdkTrunk>(dpdk_port(), peer);
  }
  const auto& cfg = fabric_.config();
  return std::make_shared<RdmaTrunk>(rdma_device(), account_, cfg.zero_copy,
                                     cfg.fragment_bytes + RelayHeader::k_size,
                                     k_rdma_slots);
}

void Agent::setup_bypass_trunk(const TrunkKey& key, SetupDoneFn done) {
  if (Status nic = check_nic(host_, key.transport, "local"); !nic.is_ok()) {
    done(std::move(nic));
    return;
  }
  const bool is_rdma = key.transport == orch::Transport::rdma;
  auto trunk = make_bypass_trunk(key.peer, key.transport);
  // Pending adoption: the half-trunk goes into the map *before* the
  // handshake leaves, so an opposite-direction setup arriving mid-flight
  // finds and joins it instead of building a rival (sends queue safely —
  // an RDMA trunk's pump no-ops until the QP is ready).
  adopt_trunk(key, trunk, /*established=*/false);

  Agent* peer_agent = &fabric_.agent_on(key.peer);
  const fabric::HostId self_host = host_.id();
  const rdma::QpNum my_qp = is_rdma ? static_cast<RdmaTrunk&>(*trunk).qp()->num() : 0;

  fabric::send_control(host_, key.peer, k_ctrl_bytes,
                       [this, key, peer_agent, trunk, self_host, my_qp, is_rdma, done]() {
    if (Status nic = check_nic(peer_agent->host(), key.transport, "peer"); !nic.is_ok()) {
      fabric::send_control(peer_agent->host(), self_host, k_ctrl_bytes,
                           [nic, done]() { done(nic); });
      return;
    }
    // Peer side: get-or-create its half toward us. Finding a pending half
    // here IS the bidirectional race — the peer's own setup is in flight
    // toward us — and both handshakes converge on the same two halves (an
    // RDMA side connects its QP at most once, whichever control message
    // lands first).
    const TrunkKey peer_key{self_host, key.transport};
    std::shared_ptr<Trunk> peer_trunk;
    if (auto it = peer_agent->trunks_.find(peer_key); it != peer_agent->trunks_.end()) {
      peer_trunk = it->second;
      auto* half = is_rdma ? static_cast<RdmaTrunk*>(peer_trunk.get()) : nullptr;
      if (half != nullptr && half->qp()->state() == rdma::QpState::ready &&
          half->qp()->remote_qp() != my_qp) {
        // Stale half: its QP is wired to a QP we already abandoned (an
        // earlier attempt that timed out). A connected QP cannot be
        // re-pointed, so replace the half outright.
        peer_agent->retire_trunk_half(peer_key);
        peer_trunk = nullptr;
      } else if (peer_agent->setups_.contains(peer_key)) {
        peer_agent->ctr_setup_races_->inc();
      }
    }
    if (peer_trunk == nullptr) {
      peer_trunk = peer_agent->make_bypass_trunk(self_host, key.transport);
      // Passive half: established right away — if we die before finishing,
      // the peer's heartbeat monitor reaps it.
      peer_agent->adopt_trunk(peer_key, peer_trunk, /*established=*/true);
    }
    rdma::QpNum peer_qp = 0;
    if (is_rdma) {
      auto& half = static_cast<RdmaTrunk&>(*peer_trunk);
      connect_once(half, self_host, my_qp);
      peer_qp = half.qp()->num();
    }
    fabric::send_control(peer_agent->host(), self_host, k_ctrl_bytes,
                         [this, key, trunk, peer_agent, peer_key, peer_trunk, peer_qp,
                          is_rdma, done]() {
      // The lane can die while this handshake is in flight: whichever side
      // was declared dead retired its half, so an identity mismatch on
      // either end fails the attempt (the retry driver backs off and tries
      // again; wiring a zombie would be worse).
      if (!peer_agent->holds(peer_key, peer_trunk) || !holds(key, trunk)) {
        done(unavailable(std::string(orch::transport_name(key.transport)) +
                         " lane died during trunk setup"));
        return;
      }
      if (is_rdma) connect_once(static_cast<RdmaTrunk&>(*trunk), key.peer, peer_qp);
      done(trunk);
    });
  });
}

void Agent::setup_tcp_trunk(fabric::HostId peer, SetupDoneFn done) {
  const TrunkKey key{peer, orch::Transport::tcp_host};
  Agent* peer_agent = &fabric_.agent_on(peer);  // peer must be listening
  auto trunk = std::make_shared<TcpTrunk>();
  adopt_trunk(key, trunk, /*established=*/false);
  if (host_.id() < peer) {
    // Single-dialer rule: the lower host id owns the connection. The
    // higher side never dials, so simultaneous setups can no longer cross
    // two connections (each side attaching its own dial while the rival
    // accept is dropped).
    const tcp::Endpoint local{AgentFabric::agent_ip(host_.id()), 0};
    const tcp::Endpoint remote{AgentFabric::agent_ip(peer), k_trunk_tcp_port};
    fabric_.underlay().connect(local, remote,
                               [this, key, trunk, done](Result<tcp::TcpConnection::Ptr> conn) {
      if (!conn.is_ok()) {
        done(conn.status());
        return;
      }
      if (!holds(key, trunk)) {
        done(unavailable("tcp lane died during trunk setup"));
        return;
      }
      trunk->attach(std::move(conn.value()));
      done(std::static_pointer_cast<Trunk>(trunk));
    });
    return;
  }
  // Higher host id: ask the peer (the connection owner) to dial us; our
  // listener attaches the inbound connection to the pending half above and
  // completes this setup (see the listen handler in the ctor). The peer
  // joins its own in-flight setup if one is already running — that is the
  // serialization point for the bidirectional TCP race.
  const fabric::HostId self_host = host_.id();
  fabric::send_control(host_, peer, k_ctrl_bytes, [peer_agent, self_host]() {
    peer_agent->with_trunk(self_host, orch::Transport::tcp_host,
                           [](Result<Trunk*>) {});
  });
}

// -------------------------------------------------------------------- relay

void Agent::drop_drained_lane(std::uint64_t channel_id) {
  // Keep the lane while its endpoint is still registered, or while queued
  // records remain. Erasing from inside the lane's own delivery is safe:
  // the rx job pins the lane for the remainder of the running callback.
  if (endpoints_.contains(channel_id)) return;
  auto it = outbound_lanes_.find(channel_id);
  if (it != outbound_lanes_.end() && it->second->empty()) {
    outbound_lanes_.erase(it);
  }
}

void Agent::relay_outbound(orch::ContainerId src, orch::ContainerId dst,
                           fabric::HostId peer_host, std::uint64_t channel_id,
                           orch::Transport transport, Message&& message) {
  // `message` is the one the container put on its lane, handed over whole:
  // its lane space went back to the container at delivery, while a paused
  // agent parks the message and a trunk with a backlog queues fragments.
  // Each fragment goes to the trunk as views of the message's head and body.
  if (paused_) {
    paused_tx_.push_back(
        {src, dst, peer_host, channel_id, transport, std::move(message)});
    return;
  }
  const TrunkKey key{peer_host, transport};
  auto it = trunks_.find(key);
  if (it == trunks_.end()) {
    FF_LOG(warn, "agent") << "no trunk for channel " << channel_id
                          << "; message dropped (peer migrated?)";
    return;
  }
  Trunk& trunk = *it->second;
  // Records inherit the source container's tenant so the shared trunk's
  // packets land in the right per-tenant NIC queue.
  const auto owner = fabric_.orchestrator().cluster_orch().container(src);
  const std::uint32_t tenant = owner != nullptr ? owner->tenant() : 0;
  const std::size_t frag = fabric_.config().fragment_bytes;
  const ByteSpan head = message.head();
  const ByteSpan body = message.body().view();
  const std::size_t total = message.size();
  const std::uint64_t seq = next_msg_seq_++;
  // The bytes [from, to) of head-then-body that fall in `part`, which
  // starts at byte `base` of the message.
  auto cut = [](ByteSpan part, std::size_t base, std::size_t from, std::size_t to) {
    const std::size_t lo = std::clamp(from, base, base + part.size()) - base;
    const std::size_t hi = std::clamp(to, base, base + part.size()) - base;
    return part.subspan(lo, hi - lo);
  };
  std::size_t offset = 0;
  do {
    const std::size_t end = offset + std::min(frag, total - offset);
    RelayHeader header;
    header.src_container = src;
    header.dst_container = dst;
    header.channel = channel_id;
    header.msg_seq = seq;
    header.total_len = static_cast<std::uint32_t>(total);
    header.frag_offset = static_cast<std::uint32_t>(offset);
    trunk.send(header, cut(head, 0, offset, end), cut(body, head.size(), offset, end),
               tenant);
    ++records_relayed_;
    offset = end;
  } while (offset < total);
}

bool Agent::trunk_writable(fabric::HostId peer, orch::Transport transport) const {
  auto it = trunks_.find(TrunkKey{peer, transport});
  if (it == trunks_.end()) return true;
  return !it->second->congested();
}

void Agent::notify_space() {
  // Snapshot the live endpoints first: a poke may close a channel, which
  // re-enters release_channel and mutates the map mid-iteration otherwise.
  // The snapshot's storage is reused across calls; it is moved out for the
  // duration, so a re-entrant call works on a vector of its own.
  std::vector<std::shared_ptr<RemoteChannelEndpoint>> live = std::move(space_snapshot_);
  collect_live_endpoints(live);
  for (auto& ep : live) {
    if (!ep->closed()) ep->poke_space();
  }
  live.clear();
  space_snapshot_ = std::move(live);
}

// ------------------------------------------------------------- lane health

void Agent::arm_monitor() {
  if (monitor_armed_) return;
  monitor_armed_ = true;
  // Maintenance event: periodic housekeeping must not keep an otherwise
  // idle loop alive (run() quiesces past it) — this is what lets
  // heartbeats always run.
  monitor_ = host_.loop().schedule_maintenance(k_heartbeat_interval_ns,
                                               [this]() { monitor_tick(); });
}

void Agent::monitor_tick() {
  if (lane_last_rx_.empty()) {
    monitor_armed_ = false;  // disarmed; the next adopt_trunk re-arms
    return;
  }
  if (!paused_) {
    const SimTime now = host_.loop().now();
    std::vector<TrunkKey> dead;
    for (const auto& [key, last_rx] : lane_last_rx_) {
      if (now - last_rx > k_heartbeat_timeout_ns) {
        dead.push_back(key);
      } else {
        send_heartbeat(key);
      }
    }
    for (const TrunkKey& key : dead) declare_lane_failed(key.peer, key.transport);
  }
  monitor_ = host_.loop().schedule_maintenance(k_heartbeat_interval_ns,
                                               [this]() { monitor_tick(); });
}

void Agent::send_heartbeat(const TrunkKey& key) {
  auto it = trunks_.find(key);
  if (it == trunks_.end()) return;
  RelayHeader header;  // channel 0: dropped by the peer after clocking rx
  header.channel = 0;
  header.msg_seq = next_msg_seq_++;
  it->second->send(header, {}, {});
  ctr_heartbeats_->inc();
}

void Agent::declare_lane_failed(fabric::HostId peer, orch::Transport transport) {
  const TrunkKey key{peer, transport};
  if (!trunks_.contains(key)) return;
  // Report first: it flushes the cached decisions riding the lane, so each
  // conduit the retirements below fail re-decides once, from its failure
  // hook, against a cache that no longer holds the dead lane's answer.
  fabric_.orchestrator().report_lane_failure(host_.id(), peer, transport);
  retire_lane(key);
  // A trunk is a pair: the mirror half on the peer agent is equally dead
  // (its QP would error, its connection reset). Retiring both sides keeps
  // trunk state symmetric, so a later re-establish builds a fresh pair
  // instead of half-wiring onto a corpse.
  fabric_.agent_on(peer).retire_lane(TrunkKey{host_.id(), transport});
}

void Agent::retire_lane(const TrunkKey& key) {
  if (!trunks_.contains(key)) return;
  ctr_lanes_failed_->inc();
  FF_LOG(info, "agent") << host_.name() << ": lane to host " << key.peer << " over "
                        << orch::transport_name(key.transport) << " declared dead";
  retire_trunk_half(key);
  // A setup riding this lane (the trunk died mid-handshake) turns into one
  // failed attempt: the retry driver backs off and re-establishes instead
  // of leaving the waiters with a permanent `unavailable`.
  fail_setup_attempt(key, unavailable("lane died during trunk setup"));
}

void Agent::collect_live_endpoints(
    std::vector<std::shared_ptr<RemoteChannelEndpoint>>& out, const TrunkKey* lane) {
  out.reserve(out.size() + endpoints_.size());
  for (auto it = endpoints_.begin(); it != endpoints_.end();) {
    auto ep = it->second.lock();
    if (ep == nullptr) {
      it = endpoints_.erase(it);
      continue;
    }
    if (lane == nullptr ||
        (ep->peer_host() == lane->peer && ep->transport() == lane->transport)) {
      out.push_back(std::move(ep));
    }
    ++it;
  }
}

void Agent::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  FF_LOG(info, "agent") << host_.name() << (paused ? ": paused" : ": resumed");
  if (paused_) return;
  // Nothing was lost while frozen, but every lane looks silent; reset the rx
  // clocks so the monitor doesn't declare the whole fabric dead on resume.
  const SimTime now = host_.loop().now();
  for (auto& [key, last_rx] : lane_last_rx_) last_rx = now;
  auto rx = std::move(paused_rx_);
  paused_rx_.clear();
  for (Buffer& record : rx) dispatch_record(std::move(record));
  auto tx = std::move(paused_tx_);
  paused_tx_.clear();
  for (PausedRelay& p : tx) {
    relay_outbound(p.src, p.dst, p.peer_host, p.channel_id, p.transport,
                   std::move(p.message));
  }
}

void Agent::release_channel(std::uint64_t channel_id) {
  endpoints_.erase(channel_id);
  for (auto it = rx_.begin(); it != rx_.end();) {
    it = it->first.first == channel_id ? rx_.erase(it) : std::next(it);
  }
  drop_drained_lane(channel_id);
}

std::size_t Agent::endpoint_count() {
  std::vector<std::shared_ptr<RemoteChannelEndpoint>> live;
  collect_live_endpoints(live);
  return live.size();
}

void Agent::dispatch_record(Buffer&& record) {
  if (paused_) {
    paused_rx_.push_back(std::move(record));
    return;
  }
  auto parsed = parse_record(record.view());
  if (!parsed.is_ok()) {
    FF_LOG(warn, "agent") << "malformed relay record: " << parsed.status();
    return;
  }
  const RelayHeader& h = parsed->header;
  // Channel 0 is reserved for agent-to-agent heartbeats: the trunk callback
  // already refreshed the lane's rx clock, which was the entire message.
  if (h.channel == 0) return;
  FF_LOG(debug, "agent") << "rx record ch=" << h.channel << " seq=" << h.msg_seq
                         << " off=" << h.frag_offset << " frag=" << parsed->fragment.size()
                         << " total=" << h.total_len;
  auto it = endpoints_.find(h.channel);
  std::shared_ptr<RemoteChannelEndpoint> endpoint;
  if (it != endpoints_.end()) endpoint = it->second.lock();
  if (endpoint == nullptr) {
    if (it != endpoints_.end()) endpoints_.erase(it);
    FF_LOG(debug, "agent") << "record for unknown channel " << h.channel << " dropped";
    return;
  }

  if (h.frag_offset == 0 && parsed->fragment.size() == h.total_len) {
    // The whole message in one record: hand it on, headless, with the
    // relay header consumed in place.
    record.consume_front(RelayHeader::k_size);
    endpoint->deliver_inbound(Message(std::move(record)));
    return;
  }
  // Fragments of one message arrive exactly once each and tile it, so the
  // slot is only delivered once every byte has been written.
  auto& slot = rx_[{h.channel, h.msg_seq}];
  if (slot.data.size() != h.total_len) slot.data = Buffer::for_overwrite(h.total_len);
  if (!parsed->fragment.empty()) {
    std::memcpy(slot.data.data() + h.frag_offset, parsed->fragment.data(),
                parsed->fragment.size());
  }
  slot.received += parsed->fragment.size();
  if (slot.received >= h.total_len) {
    Buffer whole = std::move(slot.data);
    rx_.erase({h.channel, h.msg_seq});
    endpoint->deliver_inbound(Message(std::move(whole)));
  }
}

}  // namespace freeflow::agent
