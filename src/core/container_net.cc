#include "core/container_net.h"

#include "common/logging.h"
#include "core/freeflow.h"
#include "shm/channel.h"
#include "stream/rc_channel.h"
#include "stream/tcp_channel.h"

namespace freeflow::core {

namespace {
/// The rebind that must be the first message on a fresh channel: it hands
/// the channel to conduit `token` at the peer's router.
void send_rebind(agent::Channel& channel, std::uint64_t token) {
  WireHeader h;
  h.type = VMsg::rebind;
  h.token = token;
  channel.send(Message(encode_header(h)));
}

/// The answers to a connect request (cm_connect or sock_connect).
VMsg accept_of(VMsg request) {
  return request == VMsg::cm_connect ? VMsg::cm_accept : VMsg::sock_accept;
}
VMsg reject_of(VMsg request) {
  return request == VMsg::cm_connect ? VMsg::cm_reject : VMsg::sock_reject;
}
}  // namespace

ContainerNet::ContainerNet(FreeFlow& ff, orch::ContainerPtr container)
    : ff_(ff), container_(std::move(container)) {}

ContainerNet::~ContainerNet() {
  close_all_conduits();
  // The teardown hooks no longer reach this object: release by hand.
  for (auto& [token, st] : stream_qps_) {
    if (st.offered != nullptr) st.offered->close();
  }
  for (auto& [raw, channel] : pending_incoming_) channel->close();
  pending_incoming_.clear();
}

void ContainerNet::adopt_conduit(const ConduitPtr& conduit) {
  conduits_.emplace(conduit->token(), conduit);
  auto self = weak_from_this();
  conduit->set_on_teardown([self, token = conduit->token()]() {
    auto net = self.lock();
    if (net == nullptr) return;
    net->conduits_.erase(token);
    net->drop_stream_qp(token);
  });
  // Transport failure (lane declared dead by the agent): the initiator
  // re-decides and splices on a fallback channel; the passive side waits
  // for the initiator's rebind to arrive over the new transport.
  conduit->set_on_transport_failed([self, weak_conduit = ConduitPtr::weak_type(conduit)]() {
    auto net = self.lock();
    auto c = weak_conduit.lock();
    if (net == nullptr || c == nullptr) return;
    // Drop cached decisions for this pair before re-deciding: the hook runs
    // before the agent's lane-failure report reaches the control plane, so
    // the push-flush hasn't landed yet. The reverse index makes this
    // O(affected entries), not a cache sweep.
    auto& selector = net->ff_.selector_on(net->container_->host());
    selector.invalidate(net->id());
    selector.invalidate(c->peer());
    if (c->initiator()) net->refit_conduit(c);
  });
}

void ContainerNet::adopt_stream_qp(const ConduitPtr& conduit) {
  stream_qps_.emplace(conduit->token(), StreamQp{});
  // Registered with the first per_stream_qp connection, so a relayed-only
  // deployment's registry carries no stream series.
  auto& metrics = telemetry().metrics();
  metrics.counter("stream/upgrades");
  metrics.counter("stream/fallbacks");
  auto self = weak_from_this();
  conduit->set_on_handshake([self, weak_conduit = ConduitPtr::weak_type(conduit)](
                                const WireHeader& h) {
    auto net = self.lock();
    auto c = weak_conduit.lock();
    if (net != nullptr && c != nullptr) net->handle_handshake(c, h);
  });
}

void ContainerNet::drop_stream_qp(std::uint64_t token) {
  auto it = stream_qps_.find(token);
  if (it == stream_qps_.end()) return;
  StreamQp st = std::move(it->second);
  stream_qps_.erase(it);
  if (st.offered != nullptr) st.offered->close();
  if (auto answered = st.answered.lock();
      answered != nullptr && pending_incoming_.erase(answered.get()) != 0) {
    answered->close();
  }
}

telemetry::Telemetry& ContainerNet::telemetry() {
  return ff_.orchestrator().cluster_orch().cluster().telemetry();
}

void ContainerNet::close_all_conduits() {
  std::vector<ConduitPtr> snapshot;
  snapshot.reserve(conduits_.size());
  for (auto& [token, conduit] : conduits_) snapshot.push_back(conduit);
  // Hard close, not the bye-ack handshake: this runs from the destructor and
  // container stop, where nothing will pump the drain to completion — a
  // conduit parked in `closing_` would strand its channel graph forever.
  for (auto& conduit : snapshot) conduit->force_close(CloseReason::app_close);
  conduits_.clear();
}

fabric::Host& ContainerNet::current_host() {
  return ff_.orchestrator().cluster_orch().cluster().host(container_->host());
}

sim::EventLoop& ContainerNet::loop() { return ff_.loop(); }

void ContainerNet::charge_post() {
  fabric::Host& host = current_host();
  host.cpu().submit(host.cost_model().rdma_post_ns, nullptr, &container_->account());
}

void ContainerNet::register_with_agent() {
  auto self = weak_from_this();
  ff_.agents().agent_on(container_->host())
      .register_container(id(), [self](orch::ContainerId src, agent::ChannelPtr ch) {
        if (auto net = self.lock()) net->on_incoming_channel(src, std::move(ch));
      });
}

// ---------------------------------------------------------------- verbs API

rdma::MrPtr ContainerNet::reg_mr(std::size_t length) {
  const std::uint32_t mr_id = next_mr_++;
  auto mr = std::make_shared<rdma::MemoryRegion>(mr_id, mr_id, length);
  mrs_.add(mr_id, mr);
  return mr;
}

rdma::MrPtr ContainerNet::mr(std::uint32_t mr_id) const { return mrs_.find(mr_id); }

std::size_t ContainerNet::max_verbs_payload() const {
  return shm::ShmLane::max_payload(ff_.agents().config().lane_ring_bytes) -
         WireHeader::k_size;
}

rdma::CqPtr ContainerNet::create_cq(std::size_t capacity) {
  return std::make_shared<rdma::CompletionQueue>(capacity);
}

Status ContainerNet::listen_qp(std::uint16_t port, QpAcceptFn on_accept) {
  auto accept = [this, on_accept = std::move(on_accept)](const ConduitPtr& conduit) {
    auto qp = std::make_shared<VirtualQp>(*this, conduit, create_cq(), create_cq());
    qp->bind();
    on_accept(qp);
  };
  if (!listeners_.emplace(ListenKey{VMsg::cm_connect, port}, std::move(accept)).second) {
    return already_exists("QP service port in use");
  }
  return ok_status();
}

Status ContainerNet::sock_listen(std::uint16_t port, SockAcceptFn on_accept) {
  const ListenKey key{VMsg::sock_connect, port};
  auto accept = [this, on_accept = std::move(on_accept)](const ConduitPtr& conduit) {
    auto sock = std::make_shared<FlowSocket>(*this, conduit);
    sock->bind();
    on_accept(sock);
  };
  if (!listeners_.emplace(key, std::move(accept)).second) {
    return already_exists("socket port in use");
  }
  auto self = weak_from_this();
  const Status bound = ff_.fallback_net().listen(
      tcp::Endpoint{ip(), port}, [self](tcp::TcpConnection::Ptr conn) {
        if (auto net = self.lock()) net->on_incoming_conn(std::move(conn));
      });
  if (!bound.is_ok()) listeners_.erase(key);
  return bound;
}

// ---------------------------------------------------------- channel opening

void ContainerNet::open_channel_for(ConduitPtr conduit, bool rebinding,
                                    std::function<void(Status)> done) {
  // Concurrent re-binds race (health flaps faster than channel setup): the
  // conduit's generation stamps this attempt, and a stale winner abandons
  // its freshly built channel instead of overriding a newer decision.
  const std::uint64_t gen = conduit->generation();
  ff_.selector_on(container_->host())
      .decide(id(), conduit->peer(),
              [this, conduit, rebinding, gen,
               done = std::move(done)](Result<orch::TransportDecision> d) mutable {
    if (!d.is_ok()) {
      done(d.status());
      return;
    }
    if (d->transport == orch::Transport::tcp_overlay) {
      // No trust: FreeFlow refuses to pierce isolation; such pairs use the
      // plain overlay network instead of the library's fast channels.
      done(permission_denied("peers do not trust each other; use overlay TCP"));
      return;
    }
    ff_.agents().agent_on(container_->host())
        .establish(id(), conduit->peer(), d->transport,
                   [conduit, rebinding, gen,
                    done = std::move(done)](Result<agent::ChannelPtr> ch) mutable {
      if (!ch.is_ok()) {
        done(ch.status());
        return;
      }
      if (conduit->closed() || (rebinding && conduit->generation() != gen)) {
        (*ch)->close();
        done(aborted("conduit re-bound again before channel setup finished"));
        return;
      }
      if (rebinding) send_rebind(**ch, conduit->token());
      conduit->attach_channel(std::move(ch.value()));
      done(ok_status());
    });
  });
}

void ContainerNet::connect_qp(tcp::Ipv4Addr peer_ip, std::uint16_t port,
                              rdma::CqPtr send_cq, rdma::CqPtr recv_cq,
                              QpConnectFn done) {
  connect_conduit(peer_ip, port, VMsg::cm_connect, SockPath::relayed,
                  [this, send_cq, recv_cq, done = std::move(done)](Result<ConduitPtr> c) {
    if (!c.is_ok()) {
      done(c.status());
      return;
    }
    auto qp = std::make_shared<VirtualQp>(*this, *c, send_cq, recv_cq);
    qp->bind();
    done(qp);
  });
}

void ContainerNet::sock_connect(tcp::Ipv4Addr peer_ip, std::uint16_t port,
                                SockConnectFn done, SockPath path) {
  connect_conduit(peer_ip, port, VMsg::sock_connect, path,
                  [this, done = std::move(done)](Result<ConduitPtr> c) {
    if (!c.is_ok()) {
      done(c.status());
      return;
    }
    auto sock = std::make_shared<FlowSocket>(*this, *c);
    sock->bind();
    done(sock);
  });
}

void ContainerNet::connect_conduit(tcp::Ipv4Addr peer_ip, std::uint16_t port,
                                   VMsg request, SockPath path, ConduitConnectFn done) {
  auto peer = ff_.orchestrator().resolve_ip(peer_ip);
  if (!peer.is_ok()) {
    loop().schedule(0, [done = std::move(done), s = peer.status()]() { done(s); });
    return;
  }
  auto conduit = std::make_shared<Conduit>(ff_.next_token(), id(), *peer, peer_ip, port,
                                           /*initiator=*/true, telemetry(), loop());
  // Owned by conduits_ from the start; the handshake handler below may
  // capture the conduit freely — close() unhooks it, so no cycle survives.
  adopt_conduit(conduit);
  auto attached = [this, conduit, port, request, path,
                   done = std::move(done)](Status st) mutable {
    if (!st.is_ok()) {
      conduit->close();
      done(st);
      return;
    }
    // Await the accept or the reject.
    conduit->set_on_message([conduit, request, done = std::move(done)](
                                const WireHeader& h, Buffer&&) mutable {
      if (h.type == accept_of(request)) {
        done(conduit);
      } else {
        conduit->close();
        done(connection_refused(request == VMsg::cm_connect
                                    ? "peer rejected QP on port"
                                    : "peer rejected socket on port"));
      }
    });
    WireHeader h;
    h.type = request;
    h.port = port;
    h.token = conduit->token();
    conduit->send(h);
    // Live on the fallback: offer an RC QP right behind the connect, before
    // the application holds a socket to fill the connection with.
    if (path == SockPath::per_stream_qp) refit_conduit(conduit);
  };
  if (path == SockPath::relayed) {
    open_channel_for(conduit, /*rebinding=*/false, std::move(attached));
    return;
  }
  adopt_stream_qp(conduit);
  auto self = weak_from_this();
  dial_fallback(tcp::Endpoint{peer_ip, port}, 0,
                [self, conduit, attached = std::move(attached)](
                    Result<tcp::TcpConnection::Ptr> r) mutable {
    auto net = self.lock();
    if (net == nullptr || conduit->closed()) {
      if (r.is_ok()) (*r)->close();
      return;
    }
    if (r.is_ok()) {
      conduit->attach_channel(
          stream::TcpFallbackChannel::make(std::move(r.value())));
    }
    attached(r.status());
  });
}

// ---------------------------------------------------------- incoming side

void ContainerNet::on_incoming_channel(orch::ContainerId src, agent::ChannelPtr channel) {
  // Tap the first message to route the channel (setup vs rebind). The tap
  // captures only a raw key — pending_incoming_ owns the channel, so the
  // callback never keeps its own channel alive (no self-cycle).
  auto self = weak_from_this();
  auto raw = channel.get();
  pending_incoming_.emplace(raw, std::move(channel));
  raw->set_on_message([self, src, raw](Message&& message) {
    auto net = self.lock();
    if (net == nullptr) return;
    auto parsed = parse_message(std::move(message));
    if (!parsed.is_ok()) {
      FF_LOG(warn, "core") << "bad first message on incoming channel";
      return;
    }
    net->handle_first_message(src, raw, parsed->header);
  });
}

void ContainerNet::on_incoming_conn(tcp::TcpConnection::Ptr conn) {
  auto src = ff_.orchestrator().resolve_ip(conn->flow().remote.ip);
  if (!src.is_ok()) {
    conn->close();
    return;
  }
  on_incoming_channel(*src, stream::TcpFallbackChannel::make(std::move(conn)));
}

void ContainerNet::handle_first_message(orch::ContainerId src, agent::Channel* raw,
                                        const WireHeader& header) {
  auto pit = pending_incoming_.find(raw);
  if (pit == pending_incoming_.end()) return;  // already routed or torn down
  agent::ChannelPtr channel = std::move(pit->second);
  pending_incoming_.erase(pit);
  switch (header.type) {
    case VMsg::cm_connect:
    case VMsg::sock_connect: {
      auto lit = listeners_.find(ListenKey{header.type, header.port});
      WireHeader reply;
      reply.token = header.token;
      if (lit == listeners_.end()) {
        reply.type = reject_of(header.type);
        channel->send(Message(encode_header(reply)));
        channel->close();  // the reply is already in the lane; unhook and drop
        return;
      }
      auto c = ff_.orchestrator().cluster_orch().container(src);
      auto conduit = std::make_shared<Conduit>(
          header.token, id(), src, c ? c->ip() : tcp::Ipv4Addr{}, header.port,
          /*initiator=*/false, telemetry(), loop());
      // Only the fallback listener hands out tcp_overlay channels: the peer
      // connected on the per_stream_qp path.
      const bool per_stream_qp = channel->transport() == orch::Transport::tcp_overlay;
      // The routing tap consumed the peer's first sequenced message.
      conduit->sync_rx(header.seq);
      conduit->attach_channel(std::move(channel));
      adopt_conduit(conduit);
      if (per_stream_qp) adopt_stream_qp(conduit);
      reply.type = accept_of(header.type);
      conduit->send(reply);
      lit->second(conduit);  // builds the QP or socket, hands it over
      return;
    }
    case VMsg::rebind: {
      auto it = conduits_.find(header.token);
      if (it == conduits_.end()) {
        FF_LOG(warn, "core") << "rebind for unknown conduit " << header.token;
        channel->close();
        return;
      }
      // A conduit a planned move took off the wire re-attaches only through
      // the move's resume (which unpauses first): a channel built toward the
      // placement it left must not attach. Nor may a QP answered on an
      // attach that a detach (failover, capture) has voided.
      const StreamQp* sq = find_stream_qp(header.token);
      const bool voided_answer = sq != nullptr && sq->answered.lock().get() == raw &&
                                 sq->answered_generation != it->second->generation();
      if ((it->second->paused() && !it->second->live()) || voided_answer) {
        channel->close();
        return;
      }
      it->second->attach_channel(std::move(channel));
      return;
    }
    case VMsg::bye: {
      // Peer opened a channel and tore it down before it was routed.
      // Acknowledge so the peer's close handshake drains immediately.
      WireHeader reply;
      reply.type = VMsg::bye_ack;
      reply.token = header.token;
      channel->send(Message(encode_header(reply)));
      channel->close();
      return;
    }
    default:
      FF_LOG(warn, "core") << "unexpected first message type "
                           << static_cast<int>(header.type);
      channel->close();
  }
}

// -------------------------------------------------------------- migration

void ContainerNet::handle_self_stopped() {
  ff_.agents().agent_on(container_->host()).unregister_container(id());
  // The container's IP may be handed out again: free its fallback ports.
  for (const auto& [key, on_accept] : listeners_) {
    if (key.first == VMsg::sock_connect) {
      ff_.fallback_net().close_listener(tcp::Endpoint{ip(), key.second});
    }
  }
  close_all_conduits();
  for (auto& [raw, channel] : pending_incoming_) channel->close();
  pending_incoming_.clear();
}

void ContainerNet::handle_peer_stopped(orch::ContainerId peer, CloseReason reason) {
  // Snapshot: close() fires the teardown hook, which erases from conduits_.
  std::vector<ConduitPtr> victims;
  for (auto& [token, conduit] : conduits_) {
    if (conduit->peer() == peer) victims.push_back(conduit);
  }
  // No handshake: the peer is gone; waiting for its bye_ack would only
  // stall teardown until the drain timeout and mislabel the reason.
  for (auto& conduit : victims) conduit->close_with(reason, /*handshake=*/false);
}

void ContainerNet::handle_health_event(fabric::HostId host) {
  std::vector<ConduitPtr> snapshot;
  snapshot.reserve(conduits_.size());
  for (auto& [token, conduit] : conduits_) snapshot.push_back(conduit);
  for (auto& conduit : snapshot) {
    if (conduit->closed() || conduit->closing()) continue;
    // Paused conduits belong to a planned move until its resume: a
    // health-driven refit here would race its quiesce and capture.
    if (conduit->paused()) continue;
    auto peer_loc = ff_.orchestrator().locate(conduit->peer());
    if (!peer_loc.is_ok()) continue;
    const bool touches =
        peer_loc->host == host || container_->host() == host;
    if (!touches) continue;
    // No invalidate here: the control plane's health-diff flush already
    // dropped exactly the affected entries (and only those — a co-located
    // shm pair rides out its host's RDMA death) before this callback ran.
    // Only the initiator re-dials; the passive side splices on the rebind.
    if (conduit->initiator()) refit_conduit(conduit);
  }
}

void ContainerNet::refit_conduit(const ConduitPtr& conduit) {
  if (conduit->paused()) return;  // a planned move owns it
  const bool per_stream_qp = stream_qps_.contains(conduit->token());
  // A per_stream_qp conduit that never attached has its first dial still in
  // flight; a rebind-first dial racing it would confuse the peer's router.
  if (per_stream_qp && !conduit->live() && conduit->rebinds() == 0) return;
  auto self = weak_from_this();
  ff_.selector_on(container_->host()).decide(id(), conduit->peer(),
                        [self, conduit, per_stream_qp](Result<orch::TransportDecision> d) {
    auto net = self.lock();
    if (net == nullptr) return;
    if (conduit->closed() || conduit->closing()) return;
    if (per_stream_qp) {
      if (conduit->paused()) return;
      // It rides exactly two transports: its own RC QP when the selector
      // grants rdma, the overlay-TCP fallback for any other answer
      // (tcp_overlay included: an untrusted pair simply never upgrades).
      const bool want_rdma = d.is_ok() && d->transport == orch::Transport::rdma;
      if (!conduit->live()) {
        net->rebind_on_fallback(conduit, /*upgrade_after=*/want_rdma);
      } else if (want_rdma && conduit->transport() != orch::Transport::rdma) {
        if (auto offer = net->make_offer(conduit)) conduit->send_control(*offer);
      } else if (!want_rdma && conduit->transport() == orch::Transport::rdma) {
        // The QP lost its grant (NIC death, policy change): break, then
        // re-make on a fresh fallback connection. The retained window
        // replays everything the dead QP swallowed.
        conduit->mark_stale();
        net->rebind_on_fallback(conduit, /*upgrade_after=*/false);
      }
      return;
    }
    if (!d.is_ok()) return;
    if (conduit->live() && conduit->transport() == d->transport) return;
    conduit->mark_stale();
    net->open_channel_for(conduit, /*rebinding=*/true, [](Status st) {
      if (!st.is_ok()) {
        // Leave the conduit stale rather than killing it: sends queue, and
        // the next health event (e.g. link recovery) retries the splice.
        FF_LOG(warn, "core") << "failover re-bind failed (will retry on next "
                                "health event): " << st;
      }
    });
  });
}

void ContainerNet::rebind_conduit(const ConduitPtr& conduit, const char* after) {
  if (stream_qps_.contains(conduit->token())) {
    refit_conduit(conduit);
    return;
  }
  open_channel_for(conduit, /*rebinding=*/true, [after](Status st) {
    if (!st.is_ok()) {
      FF_LOG(warn, "core") << "re-bind after " << after << " failed: " << st;
    }
  });
}

std::vector<ContainerNet::ConnectionInfo> ContainerNet::connections() const {
  std::vector<ConnectionInfo> out;
  out.reserve(conduits_.size());
  for (const auto& [token, c] : conduits_) {
    if (c->closed()) continue;
    out.push_back(ConnectionInfo{c->token(), c->peer(), c->peer_ip(), c->transport(),
                                 c->initiator(), c->messages_sent(),
                                 c->messages_received(), c->rebinds(),
                                 c->retransmits(), c->blackout_ns(),
                                 c->live(), c->writable(), c->retained_count(),
                                 c->queued_count(), c->channel_writable(),
                                 c->migrations_completed(), c->last_blackout_ns(),
                                 c->last_migration_reason()});
  }
  return out;
}

bool ContainerNet::has_conduit_to(orch::ContainerId peer) const {
  for (const auto& [token, c] : conduits_) {
    if (c->peer() == peer) return true;
  }
  return false;
}

ConduitPtr ContainerNet::find_conduit(std::uint64_t token) const {
  auto it = conduits_.find(token);
  return it == conduits_.end() ? nullptr : it->second;
}

void ContainerNet::freeze_conduits(orch::ContainerId moving) {
  for (auto& [token, conduit] : conduits_) {
    if (moving != id() && conduit->peer() != moving) continue;
    if (conduit->closed() || conduit->closing()) continue;
    conduit->mark_stale();
  }
  // Every conduit is off the wire, so nothing routes here meanwhile.
  if (moving == id()) ff_.agents().agent_on(container_->host()).unregister_container(id());
}

void ContainerNet::thaw_conduits(orch::ContainerId moved) {
  const bool self_moved = moved == id();
  if (self_moved) register_with_agent();
  for (auto& [token, conduit] : conduits_) {
    if (!self_moved && conduit->peer() != moved) continue;
    conduit->mark_stale();
    conduit->unpause();
  }
}

void ContainerNet::rebind_conduits(orch::ContainerId moved) {
  const bool self_moved = moved == id();
  for (auto& [token, conduit] : conduits_) {
    if (!self_moved && conduit->peer() != moved) continue;
    if (conduit->initiator()) rebind_conduit(conduit, self_moved ? "self-move" : "peer-move");
  }
}

// ------------------------------------------------------ per_stream_qp path

void ContainerNet::dial_fallback(
    tcp::Endpoint remote, int attempt,
    std::function<void(Result<tcp::TcpConnection::Ptr>)> cb) {
  constexpr int k_dial_attempts = 12;
  constexpr SimDuration k_dial_backoff0 = 100 * k_microsecond;
  auto self = weak_from_this();
  ff_.fallback_net().connect(
      tcp::Endpoint{ip(), 0}, remote,
      [self, remote, attempt, cb = std::move(cb)](
          Result<tcp::TcpConnection::Ptr> r) mutable {
        auto net = self.lock();
        if (net == nullptr) {
          if (r.is_ok()) (*r)->close();
          return;
        }
        if (!r.is_ok() && attempt + 1 < k_dial_attempts) {
          const SimDuration delay = std::min<SimDuration>(
              k_dial_backoff0 << attempt, 5 * k_millisecond);
          net->loop().schedule(delay, [self, remote, attempt, cb = std::move(cb)]() mutable {
            if (auto n = self.lock()) n->dial_fallback(remote, attempt + 1, std::move(cb));
          });
          return;
        }
        cb(std::move(r));
      });
}

ContainerNet::StreamQp* ContainerNet::find_stream_qp(std::uint64_t token) {
  auto it = stream_qps_.find(token);
  return it == stream_qps_.end() ? nullptr : &it->second;
}

void ContainerNet::rebind_on_fallback(const ConduitPtr& conduit, bool upgrade_after) {
  StreamQp* st = find_stream_qp(conduit->token());
  if (st == nullptr) return;
  // An offered QP belongs to the path being replaced.
  if (st->offered != nullptr) {
    st->offered->close();
    st->offered = nullptr;
  }
  if (st->dialing) return;
  st->dialing = true;
  const std::uint64_t gen = conduit->generation();
  auto self = weak_from_this();
  dial_fallback(tcp::Endpoint{conduit->peer_ip(), conduit->service_port()}, 0,
                [self, conduit, gen, upgrade_after](Result<tcp::TcpConnection::Ptr> r) {
    auto net = self.lock();
    StreamQp* dialed = net == nullptr ? nullptr : net->find_stream_qp(conduit->token());
    if (dialed != nullptr) dialed->dialing = false;
    if (dialed == nullptr || conduit->paused()) {
      if (r.is_ok()) (*r)->close();  // closed, or a planned move owns it
      return;
    }
    if (!r.is_ok()) {
      // Leave the conduit stale: sends queue, and the next health event
      // retries (as refit_conduit's relayed failure path does).
      FF_LOG(warn, "core") << "fallback dial failed (will retry on next health "
                              "event): " << r.status();
      return;
    }
    if (conduit->generation() != gen) {
      // A newer detach won the race; re-decide with fresh state.
      (*r)->close();
      net->refit_conduit(conduit);
      return;
    }
    auto channel = stream::TcpFallbackChannel::make(std::move(r.value()));
    send_rebind(*channel, conduit->token());
    // The offer rides right behind it: ahead of the retained-window replay
    // and of the send buffer the application fills once it may send again.
    if (upgrade_after) {
      if (auto offer = net->make_offer(conduit)) {
        channel->send(Message(encode_header(*offer)));
      }
    }
    conduit->attach_channel(std::move(channel));
    net->note_splice("stream/fallbacks", "stream_fallback", conduit->token());
  });
}

std::shared_ptr<stream::RcStreamChannel> ContainerNet::make_rc_channel() {
  return stream::RcStreamChannel::make(
      ff_.agents().agent_on(container_->host()).rdma_device(), &container_->account(),
      container_->tenant());
}

std::optional<WireHeader> ContainerNet::make_offer(const ConduitPtr& conduit) {
  StreamQp* found = find_stream_qp(conduit->token());
  if (found == nullptr) return std::nullopt;
  StreamQp& st = *found;
  // One offer per attach: a detach since (failover, migration capture)
  // bumped the generation and voided the old one.
  if (st.offered != nullptr) {
    if (st.offered_generation == conduit->generation()) return std::nullopt;
    st.offered->close();
  }
  st.offered = make_rc_channel();
  st.offered_generation = conduit->generation();
  WireHeader h;
  h.type = VMsg::rc_offer;
  h.token = conduit->token();
  h.id = st.offered->qp_num();
  h.offset = container_->host();
  return h;
}

void ContainerNet::handle_handshake(const ConduitPtr& conduit, const WireHeader& h) {
  StreamQp* found = find_stream_qp(conduit->token());
  if (found == nullptr) return;
  StreamQp& st = *found;
  if (h.type == VMsg::rc_offer) {
    // Passive side: connect a fresh QP to the offer and answer with it. The
    // initiator switches first; this QP reaches the conduit through the
    // router when the initiator's rebind arrives on it.
    auto channel = make_rc_channel();
    const Status connected = channel->connect(static_cast<fabric::HostId>(h.offset),
                                              static_cast<rdma::QpNum>(h.id));
    if (!connected.is_ok()) {
      FF_LOG(warn, "core") << "rc_offer connect failed: " << connected;
      channel->close();
      return;
    }
    // A newer offer supersedes an answered QP still awaiting its rebind.
    if (auto old = st.answered.lock();
        old != nullptr && pending_incoming_.erase(old.get()) != 0) {
      old->close();
    }
    st.answered = channel;
    st.answered_generation = conduit->generation();
    on_incoming_channel(conduit->peer(), channel);
    // Make-before-break: the initiator closes its TCP side right after
    // switching; that FIN is expected, not a transport failure.
    if (auto tcp = std::dynamic_pointer_cast<stream::TcpFallbackChannel>(conduit->channel())) {
      tcp->expect_close();
    }
    WireHeader reply;
    reply.type = VMsg::rc_answer;
    reply.id = channel->qp_num();
    reply.offset = container_->host();
    reply.mr = static_cast<std::uint32_t>(h.id);
    conduit->send_control(reply);
    return;
  }
  // rc_answer, initiator side: splice only onto the offer it echoes, made
  // on the channel still attached. Anything else answers a superseded offer.
  if (st.offered == nullptr || st.offered->qp_num() != h.mr ||
      st.offered_generation != conduit->generation()) {
    return;
  }
  auto channel = std::move(st.offered);
  const Status connected = channel->connect(static_cast<fabric::HostId>(h.offset),
                                            static_cast<rdma::QpNum>(h.id));
  if (!connected.is_ok()) {
    FF_LOG(warn, "core") << "rc_answer connect failed: " << connected;
    channel->close();
    return;
  }
  // The rebind is the first message on the QP, ahead of the retained-window
  // replay the attach triggers: the peer's router hands the QP to its
  // conduit before any data arrives on it.
  send_rebind(*channel, conduit->token());
  conduit->attach_channel(std::move(channel));  // closes the TCP side
  note_splice("stream/upgrades", "stream_upgrade", conduit->token());
}

void ContainerNet::note_splice(const char* counter, const char* instant,
                               std::uint64_t token) {
  telemetry().metrics().counter(counter).inc();
  telemetry().tracer().instant("stream", instant, id(), static_cast<std::uint32_t>(token));
}

}  // namespace freeflow::core
