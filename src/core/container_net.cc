#include "core/container_net.h"

#include "common/logging.h"
#include "core/freeflow.h"
#include "shm/spsc_ring.h"

namespace freeflow::core {

ContainerNet::ContainerNet(FreeFlow& ff, orch::ContainerPtr container)
    : ff_(ff), container_(std::move(container)) {}

ContainerNet::~ContainerNet() {
  close_all_conduits();
  for (auto& [raw, channel] : pending_incoming_) channel->close();
  pending_incoming_.clear();
}

void ContainerNet::adopt_conduit(const ConduitPtr& conduit) {
  conduits_.emplace(conduit->token(), conduit);
  auto self = weak_from_this();
  conduit->set_on_teardown([self, token = conduit->token()]() {
    if (auto net = self.lock()) net->conduits_.erase(token);
  });
  conduit->set_loop(&loop());
  conduit->set_drain_timeout(current_host().cost_model().close_drain_timeout_ns);
  conduit->set_telemetry(&ff_.orchestrator().cluster_orch().cluster().telemetry());
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

void ContainerNet::adopt_stream_conduit(const ConduitPtr& conduit, StreamHooks hooks) {
  adopt_conduit(conduit);
  stream_hooks_.emplace(conduit->token(), std::move(hooks));
  // Replace the plain teardown hook: also release the adapter's state.
  auto self = weak_from_this();
  conduit->set_on_teardown([self, token = conduit->token()]() {
    auto net = self.lock();
    if (net == nullptr) return;
    net->conduits_.erase(token);
    auto it = net->stream_hooks_.find(token);
    if (it == net->stream_hooks_.end()) return;
    // Extract first: the adapter's teardown may re-enter conduit maps.
    auto stream_hooks = std::move(it->second);
    net->stream_hooks_.erase(it);
    if (stream_hooks.teardown) stream_hooks.teardown();
  });
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
  mrs_.emplace(mr_id, mr);
  return mr;
}

rdma::MrPtr ContainerNet::mr(std::uint32_t mr_id) const {
  auto it = mrs_.find(mr_id);
  return it == mrs_.end() ? nullptr : it->second;
}

std::size_t ContainerNet::max_verbs_payload() const {
  return shm::SpscRing::max_payload(ff_.agents().config().lane_ring_bytes) -
         WireHeader::k_size;
}

rdma::CqPtr ContainerNet::create_cq(std::size_t capacity) {
  return std::make_shared<rdma::CompletionQueue>(capacity);
}

Status ContainerNet::listen_qp(std::uint16_t port, QpAcceptFn on_accept) {
  auto [it, inserted] = qp_listeners_.emplace(port, std::move(on_accept));
  (void)it;
  if (!inserted) return already_exists("QP service port in use");
  return ok_status();
}

Status ContainerNet::sock_listen(std::uint16_t port, SockAcceptFn on_accept) {
  auto [it, inserted] = sock_listeners_.emplace(port, std::move(on_accept));
  (void)it;
  if (!inserted) return already_exists("socket port in use");
  return ok_status();
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
      if (rebinding) {
        WireHeader h;
        h.type = VMsg::rebind;
        h.token = conduit->token();
        // The rebind must be the first message on the fresh channel.
        (*ch)->send(encode_header(h));
      }
      conduit->attach_channel(std::move(ch.value()));
      done(ok_status());
    });
  });
}

void ContainerNet::connect_qp(tcp::Ipv4Addr peer_ip, std::uint16_t port,
                              rdma::CqPtr send_cq, rdma::CqPtr recv_cq,
                              QpConnectFn done) {
  auto peer = ff_.orchestrator().resolve_ip(peer_ip);
  if (!peer.is_ok()) {
    loop().schedule(0, [done = std::move(done), s = peer.status()]() { done(s); });
    return;
  }
  auto conduit = std::make_shared<Conduit>(ff_.next_token(), id(), *peer, peer_ip,
                                           port, /*initiator=*/true);
  // Owned by conduits_ from the start; the handshake handler below may
  // capture the conduit freely — close() unhooks it, so no cycle survives.
  adopt_conduit(conduit);
  open_channel_for(conduit, /*rebinding=*/false,
                   [this, conduit, port, send_cq, recv_cq,
                    done = std::move(done)](Status st) mutable {
    if (!st.is_ok()) {
      conduit->close();
      done(st);
      return;
    }
    // Await cm_accept / cm_reject.
    conduit->set_on_message([this, conduit, send_cq, recv_cq,
                             done = std::move(done)](const WireHeader& h, Buffer&&) mutable {
      if (h.type == VMsg::cm_accept) {
        auto qp = std::make_shared<VirtualQp>(*this, conduit, send_cq, recv_cq);
        qp->bind();
        done(qp);
      } else {
        conduit->close();
        done(connection_refused("peer rejected QP on port"));
      }
    });
    WireHeader h;
    h.type = VMsg::cm_connect;
    h.port = port;
    h.token = conduit->token();
    conduit->send(h);
  });
}

void ContainerNet::sock_connect(tcp::Ipv4Addr peer_ip, std::uint16_t port,
                                SockConnectFn done) {
  auto peer = ff_.orchestrator().resolve_ip(peer_ip);
  if (!peer.is_ok()) {
    loop().schedule(0, [done = std::move(done), s = peer.status()]() { done(s); });
    return;
  }
  auto conduit = std::make_shared<Conduit>(ff_.next_token(), id(), *peer, peer_ip,
                                           port, /*initiator=*/true);
  adopt_conduit(conduit);
  open_channel_for(conduit, /*rebinding=*/false,
                   [this, conduit, port, done = std::move(done)](Status st) mutable {
    if (!st.is_ok()) {
      conduit->close();
      done(st);
      return;
    }
    conduit->set_on_message([this, conduit,
                             done = std::move(done)](const WireHeader& h, Buffer&&) mutable {
      if (h.type == VMsg::sock_accept) {
        auto sock = std::make_shared<FlowSocket>(*this, conduit);
        sock->bind();
        done(sock);
      } else {
        conduit->close();
        done(connection_refused("peer rejected socket on port"));
      }
    });
    WireHeader h;
    h.type = VMsg::sock_connect;
    h.port = port;
    h.token = conduit->token();
    conduit->send(h);
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
  raw->set_on_message([self, src, raw](Buffer&& message) {
    auto net = self.lock();
    if (net == nullptr) return;
    auto parsed = parse_message(message.view());
    if (!parsed.is_ok()) {
      FF_LOG(warn, "core") << "bad first message on incoming channel";
      return;
    }
    net->handle_first_message(src, raw, parsed->header);
  });
}

void ContainerNet::handle_first_message(orch::ContainerId src, agent::Channel* raw,
                                        const WireHeader& header) {
  auto pit = pending_incoming_.find(raw);
  if (pit == pending_incoming_.end()) return;  // already routed or torn down
  agent::ChannelPtr channel = std::move(pit->second);
  pending_incoming_.erase(pit);
  switch (header.type) {
    case VMsg::cm_connect: {
      auto lit = qp_listeners_.find(header.port);
      WireHeader reply;
      reply.token = header.token;
      if (lit == qp_listeners_.end()) {
        reply.type = VMsg::cm_reject;
        channel->send(encode_header(reply));
        channel->close();  // the reply is already in the lane; unhook and drop
        return;
      }
      auto c = ff_.orchestrator().cluster_orch().container(src);
      auto conduit = std::make_shared<Conduit>(
          header.token, id(), src, c ? c->ip() : tcp::Ipv4Addr{}, header.port,
          /*initiator=*/false);
      // The routing tap consumed the peer's first sequenced message.
      conduit->sync_rx(header.seq);
      conduit->attach_channel(std::move(channel));
      auto qp = std::make_shared<VirtualQp>(*this, conduit, create_cq(), create_cq());
      qp->bind();
      adopt_conduit(conduit);
      reply.type = VMsg::cm_accept;
      conduit->send(reply);
      lit->second(qp);
      return;
    }
    case VMsg::sock_connect: {
      auto lit = sock_listeners_.find(header.port);
      WireHeader reply;
      reply.token = header.token;
      if (lit == sock_listeners_.end()) {
        reply.type = VMsg::sock_reject;
        channel->send(encode_header(reply));
        channel->close();
        return;
      }
      auto c = ff_.orchestrator().cluster_orch().container(src);
      auto conduit = std::make_shared<Conduit>(
          header.token, id(), src, c ? c->ip() : tcp::Ipv4Addr{}, header.port,
          /*initiator=*/false);
      conduit->sync_rx(header.seq);
      conduit->attach_channel(std::move(channel));
      auto sock = std::make_shared<FlowSocket>(*this, conduit);
      sock->bind();
      adopt_conduit(conduit);
      reply.type = VMsg::sock_accept;
      conduit->send(reply);
      lit->second(sock);
      return;
    }
    case VMsg::rebind: {
      auto it = conduits_.find(header.token);
      if (it == conduits_.end()) {
        FF_LOG(warn, "core") << "rebind for unknown conduit " << header.token;
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
      channel->send(encode_header(reply));
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
    // Paused/migrating conduits belong to the migration coordinator: a
    // health-driven refit here would race its capture/restore protocol.
    if (conduit->paused() || conduit->migrating()) continue;
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
  if (conduit->paused() || conduit->migrating()) return;  // coordinator owns it
  // Stream-adapter conduits pick their own transports (they fall back to
  // overlay TCP where open_channel_for refuses, and upgrade to per-stream
  // RC QPs): health events and lane failures route to the adapter instead.
  if (auto it = stream_hooks_.find(conduit->token()); it != stream_hooks_.end()) {
    if (it->second.refit) it->second.refit(conduit);
    return;
  }
  auto self = weak_from_this();
  ff_.selector_on(container_->host()).decide(id(), conduit->peer(),
                        [self, conduit](Result<orch::TransportDecision> d) {
    auto net = self.lock();
    if (net == nullptr || !d.is_ok()) return;
    if (conduit->closed() || conduit->closing()) return;
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

void ContainerNet::handle_self_moved() {
  register_with_agent();
  for (auto& [token, conduit] : conduits_) {
    conduit->mark_stale();
    if (!conduit->initiator()) continue;
    if (auto it = stream_hooks_.find(token); it != stream_hooks_.end()) {
      if (it->second.refit) it->second.refit(conduit);
      continue;
    }
    open_channel_for(conduit, /*rebinding=*/true, [](Status st) {
      if (!st.is_ok()) {
        FF_LOG(warn, "core") << "re-bind after self-move failed: " << st;
      }
    });
  }
}

// ------------------------------------------------- planned migration hooks

ConduitPtr ContainerNet::find_conduit(std::uint64_t token) const {
  auto it = conduits_.find(token);
  return it == conduits_.end() ? nullptr : it->second;
}

void ContainerNet::quiesce_stream_state(std::uint64_t token) {
  if (auto it = stream_hooks_.find(token); it != stream_hooks_.end()) {
    if (it->second.quiesce) it->second.quiesce();
  }
}

void ContainerNet::resume_migrated_conduit(const ConduitPtr& conduit) {
  if (conduit->closed() || conduit->closing()) return;
  if (auto it = stream_hooks_.find(conduit->token()); it != stream_hooks_.end()) {
    if (it->second.refit) it->second.refit(conduit);
    return;
  }
  open_channel_for(conduit, /*rebinding=*/true, [](Status st) {
    if (!st.is_ok()) {
      FF_LOG(warn, "core") << "re-bind after planned migration failed: " << st;
    }
  });
}

void ContainerNet::freeze_all_conduits() {
  for (auto& [token, conduit] : conduits_) {
    if (conduit->closed() || conduit->closing() || conduit->migrating()) continue;
    conduit->mark_stale();
  }
}

void ContainerNet::freeze_conduits_to(orch::ContainerId peer) {
  for (auto& [token, conduit] : conduits_) {
    if (conduit->peer() != peer) continue;
    if (conduit->closed() || conduit->closing() || conduit->migrating()) continue;
    conduit->mark_stale();
  }
}

void ContainerNet::handle_peer_moved(orch::ContainerId peer) {
  for (auto& [token, conduit] : conduits_) {
    if (conduit->peer() != peer) continue;
    conduit->mark_stale();
    if (!conduit->initiator()) continue;
    if (auto it = stream_hooks_.find(token); it != stream_hooks_.end()) {
      if (it->second.refit) it->second.refit(conduit);
      continue;
    }
    open_channel_for(conduit, /*rebinding=*/true, [](Status st) {
      if (!st.is_ok()) {
        FF_LOG(warn, "core") << "re-bind after peer-move failed: " << st;
      }
    });
  }
}

}  // namespace freeflow::core
