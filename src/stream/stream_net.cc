#include "stream/stream_net.h"

#include "common/logging.h"
#include "core/freeflow.h"

namespace freeflow::stream {

namespace {
std::uint32_t trace_tid(std::uint64_t token) {
  return static_cast<std::uint32_t>(token);
}
}  // namespace

StreamNet::StreamNet(core::ContainerNetPtr net) : net_(std::move(net)) {
  auto& metrics = telemetry().metrics();
  ctr_upgrades_ = &metrics.counter("stream/upgrades");
  ctr_fallbacks_ = &metrics.counter("stream/fallbacks");
}

std::shared_ptr<StreamNet> StreamNet::make(core::ContainerNetPtr net) {
  return std::shared_ptr<StreamNet>(new StreamNet(std::move(net)));
}

StreamNet::~StreamNet() {
  for (auto& [port, fn] : listeners_) {
    (void)fn;
    ff().fallback_net().close_listener({net_->ip(), port});
  }
  for (auto& [raw, channel] : pending_incoming_) {
    (void)raw;
    channel->close();
  }
  for (auto& [token, channel] : pending_upgrade_) {
    (void)token;
    channel->close();
  }
  for (auto& [token, channel] : pending_rc_) {
    (void)token;
    channel->close();
  }
}

telemetry::Telemetry& StreamNet::telemetry() {
  return ff().orchestrator().cluster_orch().cluster().telemetry();
}

void StreamNet::dial(tcp::Endpoint local, tcp::Endpoint remote, int attempt,
                     DialFn cb) {
  constexpr int k_dial_attempts = 12;
  constexpr SimDuration k_dial_backoff0 = 100 * k_microsecond;
  std::weak_ptr<StreamNet> self = weak_from_this();
  ff().fallback_net().connect(
      local, remote,
      [self, local, remote, attempt, cb = std::move(cb)](
          Result<tcp::TcpConnection::Ptr> r) mutable {
        auto net = self.lock();
        if (net == nullptr) {
          if (r.is_ok()) (*r)->close();
          return;
        }
        if (!r.is_ok() && attempt + 1 < k_dial_attempts) {
          const SimDuration delay = std::min<SimDuration>(
              k_dial_backoff0 << attempt, 5 * k_millisecond);
          net->net_->loop().schedule(
              delay, [self, local, remote, attempt, cb = std::move(cb)]() mutable {
                if (auto n = self.lock()) n->dial(local, remote, attempt + 1, std::move(cb));
              });
          return;
        }
        cb(std::move(r));
      });
}

// ------------------------------------------------------------ socket surface

Status StreamNet::listen(std::uint16_t port, AcceptFn on_accept) {
  auto [it, inserted] = listeners_.emplace(port, std::move(on_accept));
  (void)it;
  if (!inserted) return already_exists("stream port in use");
  std::weak_ptr<StreamNet> self = weak_from_this();
  const Status bound = ff().fallback_net().listen(
      tcp::Endpoint{net_->ip(), port}, [self](tcp::TcpConnection::Ptr conn) {
        if (auto net = self.lock()) net->on_incoming_conn(std::move(conn));
      });
  if (!bound.is_ok()) listeners_.erase(port);
  return bound;
}

void StreamNet::connect(tcp::Ipv4Addr peer_ip, std::uint16_t port, ConnectFn done) {
  auto peer = ff().orchestrator().resolve_ip(peer_ip);
  if (!peer.is_ok()) {
    net_->loop().schedule(0, [done = std::move(done), s = peer.status()]() { done(s); });
    return;
  }
  auto conduit = std::make_shared<core::Conduit>(ff().next_token(), net_->id(), *peer,
                                                 peer_ip, port, /*initiator=*/true);
  adopt(conduit);

  // `done` has two possible firing sites (dial failure, peer's verdict);
  // the shared once-wrapper guarantees exactly one wins.
  auto done_once = std::make_shared<ConnectFn>(std::move(done));
  auto fire = [done_once](Result<StreamSocketPtr> r) {
    if (*done_once == nullptr) return;
    auto cb = std::move(*done_once);
    *done_once = nullptr;
    cb(std::move(r));
  };

  std::weak_ptr<StreamNet> self = weak_from_this();
  // Await sock_accept / sock_reject over the fallback connection.
  conduit->set_on_message([self, conduit, fire](const core::WireHeader& h, Buffer&&) {
    auto net = self.lock();
    if (net == nullptr) return;
    if (h.type == core::VMsg::sock_accept) {
      auto sock = net->make_socket(conduit);
      fire(sock);
      // The stream is live on the fallback path; upgrade to RDMA now if the
      // selector allows it.
      net->refit(conduit);
    } else {
      conduit->close();
      fire(connection_refused("peer rejected stream on port"));
    }
  });
  core::WireHeader h;
  h.type = core::VMsg::sock_connect;
  h.port = port;
  h.token = conduit->token();
  conduit->send(h);  // queued: the routing (first) frame once the dial lands

  dial(tcp::Endpoint{net_->ip(), 0}, tcp::Endpoint{peer_ip, port}, 0,
      [self, conduit, fire](Result<tcp::TcpConnection::Ptr> r) {
        auto net = self.lock();
        if (net == nullptr || conduit->closed()) {
          if (r.is_ok()) (*r)->close();
          return;
        }
        if (!r.is_ok()) {
          conduit->close();
          fire(r.status());
          return;
        }
        auto channel = TcpFallbackChannel::make(conduit->peer(), std::move(r.value()));
        conduit->attach_channel(channel);  // drains the queued sock_connect
        net->attached_tcp_[conduit->token()] = channel;
      });
}

void StreamNet::on_incoming_conn(tcp::TcpConnection::Ptr conn) {
  auto src = ff().orchestrator().resolve_ip(conn->flow().remote.ip);
  if (!src.is_ok()) {
    conn->close();
    return;
  }
  // Tap the first frame to route the connection (setup vs rebind); the map
  // owns the channel, the tap captures only a raw key (no self-cycle).
  auto channel = TcpFallbackChannel::make(*src, std::move(conn));
  auto raw = channel.get();
  pending_incoming_.emplace(raw, std::move(channel));
  std::weak_ptr<StreamNet> self = weak_from_this();
  raw->set_on_message([self, raw](Buffer&& message) {
    if (auto net = self.lock()) net->handle_first_message(raw, message);
  });
}

void StreamNet::handle_first_message(agent::Channel* raw, const Buffer& message) {
  auto pit = pending_incoming_.find(raw);
  if (pit == pending_incoming_.end()) return;  // already routed or torn down
  TcpFallbackChannelPtr channel = std::move(pit->second);
  pending_incoming_.erase(pit);

  auto parsed = core::parse_message(message.view());
  if (!parsed.is_ok()) {
    FF_LOG(warn, "stream") << "bad first frame on incoming stream connection";
    channel->close();
    return;
  }
  const core::WireHeader& header = parsed->header;
  switch (header.type) {
    case core::VMsg::sock_connect: {
      auto lit = listeners_.find(header.port);
      core::WireHeader reply;
      reply.token = header.token;
      if (lit == listeners_.end()) {
        reply.type = core::VMsg::sock_reject;
        channel->send(core::encode_header(reply));
        channel->close();
        return;
      }
      auto c = ff().orchestrator().cluster_orch().container(channel->peer());
      auto conduit = std::make_shared<core::Conduit>(
          header.token, net_->id(), channel->peer(), c ? c->ip() : tcp::Ipv4Addr{},
          header.port, /*initiator=*/false);
      // The routing tap consumed the peer's first sequenced message.
      conduit->sync_rx(header.seq);
      conduit->attach_channel(channel);
      attached_tcp_[header.token] = channel;
      adopt(conduit);
      auto sock = make_socket(conduit);
      reply.type = core::VMsg::sock_accept;
      conduit->send(reply);
      lit->second(sock);
      return;
    }
    case core::VMsg::rebind: {
      auto it = conduits_.find(header.token);
      if (it == conduits_.end()) {
        FF_LOG(warn, "stream") << "rebind for unknown stream " << header.token;
        channel->close();
        return;
      }
      it->second->attach_channel(channel);
      attached_tcp_[header.token] = channel;
      ++fallbacks_;
      ctr_fallbacks_->inc();
      telemetry().tracer().instant("stream", "stream_fallback", net_->id(),
                                   trace_tid(header.token));
      return;
    }
    case core::VMsg::bye: {
      // Peer opened a connection and tore the stream down before it routed.
      core::WireHeader reply;
      reply.type = core::VMsg::bye_ack;
      reply.token = header.token;
      channel->send(core::encode_header(reply));
      channel->close();
      return;
    }
    default:
      FF_LOG(warn, "stream") << "unexpected first frame type "
                             << static_cast<int>(header.type);
      channel->close();
  }
}

// --------------------------------------------------------------- plumbing

StreamSocketPtr StreamNet::make_socket(const core::ConduitPtr& conduit) {
  auto& metrics = telemetry().metrics();
  const std::string prefix = "stream/" + std::to_string(conduit->token()) + "/c" +
                             std::to_string(net_->id());
  auto sock = std::make_shared<StreamSocket>(conduit,
                                             &metrics.counter(prefix + "/bytes_rdma"),
                                             &metrics.counter(prefix + "/bytes_tcp"));
  sock->bind();
  std::weak_ptr<StreamNet> self = weak_from_this();
  std::weak_ptr<core::Conduit> weak_conduit = conduit;
  sock->set_on_control([self, weak_conduit](const core::WireHeader& h) {
    auto net = self.lock();
    auto c = weak_conduit.lock();
    if (net != nullptr && c != nullptr) net->handle_control(c, h);
  });
  return sock;
}

void StreamNet::adopt(const core::ConduitPtr& conduit) {
  conduits_[conduit->token()] = conduit;
  std::weak_ptr<StreamNet> self = weak_from_this();
  core::ContainerNet::StreamHooks hooks;
  hooks.refit = [self](const core::ConduitPtr& c) {
    if (auto net = self.lock()) net->refit(c);
  };
  hooks.teardown = [self, token = conduit->token()]() {
    if (auto net = self.lock()) net->drop_stream_state(token);
  };
  hooks.quiesce = [self, token = conduit->token()]() {
    if (auto net = self.lock()) net->quiesce_stream(token);
  };
  net_->adopt_stream_conduit(conduit, std::move(hooks));
}

void StreamNet::quiesce_stream(std::uint64_t token) {
  // Planned migration is about to capture this stream's conduit: any
  // half-built upgrade QP or in-flight fallback dial belongs to the
  // pre-move placement and must not attach mid-capture. The post-restore
  // refit re-dials (and re-upgrades) against the new placement.
  dialing_.erase(token);
  if (auto it = pending_upgrade_.find(token); it != pending_upgrade_.end()) {
    it->second->close();
    pending_upgrade_.erase(it);
  }
  if (auto it = pending_rc_.find(token); it != pending_rc_.end()) {
    it->second->close();
    pending_rc_.erase(it);
  }
}

void StreamNet::drop_stream_state(std::uint64_t token) {
  conduits_.erase(token);
  attached_tcp_.erase(token);
  dialing_.erase(token);
  if (auto it = pending_upgrade_.find(token); it != pending_upgrade_.end()) {
    it->second->close();
    pending_upgrade_.erase(it);
  }
  if (auto it = pending_rc_.find(token); it != pending_rc_.end()) {
    it->second->close();
    pending_rc_.erase(it);
  }
}

// ------------------------------------------------------- transport policy

void StreamNet::refit(const core::ConduitPtr& conduit) {
  if (conduit->closed() || conduit->closing()) return;
  // Under a planned migration the coordinator owns the conduit: no dial or
  // upgrade may attach a pre-move channel mid-capture.
  if (conduit->paused() || conduit->migrating()) return;
  // Never attached yet: the initial dial is still in flight — a rebind-first
  // fallback dial would confuse the peer's routing tap. Let it land.
  if (!conduit->live() && conduit->rebinds() == 0) return;
  std::weak_ptr<StreamNet> self = weak_from_this();
  ff().selector_on(net_->container()->host())
      .decide(net_->id(), conduit->peer(),
              [self, conduit](Result<orch::TransportDecision> d) {
    auto net = self.lock();
    if (net == nullptr) return;
    if (conduit->closed() || conduit->closing()) return;
    if (conduit->paused() || conduit->migrating()) return;
    // The adapter rides exactly two transports: a per-stream RC QP when the
    // selector grants rdma, the overlay-TCP fallback for everything else
    // (including tcp_overlay itself — no-trust pairs simply never upgrade).
    const bool want_rdma = d.is_ok() && d->transport == orch::Transport::rdma;
    if (!conduit->live()) {
      net->dial_fallback(conduit, /*upgrade_after=*/want_rdma);
      return;
    }
    if (want_rdma && conduit->transport() != orch::Transport::rdma) {
      net->start_upgrade(conduit);
      return;
    }
    if (!want_rdma && conduit->transport() == orch::Transport::rdma) {
      // The RC path lost its grant (NIC death, policy change): break, then
      // re-make on a fresh fallback connection. The retained window replays
      // everything the dead QP swallowed.
      conduit->mark_stale();
      net->dial_fallback(conduit, /*upgrade_after=*/false);
    }
  });
}

void StreamNet::dial_fallback(const core::ConduitPtr& conduit, bool upgrade_after) {
  const std::uint64_t token = conduit->token();
  // A pending upgrade QP is for the path that just died; drop it.
  if (auto it = pending_upgrade_.find(token); it != pending_upgrade_.end()) {
    it->second->close();
    pending_upgrade_.erase(it);
  }
  if (!dialing_.insert(token).second) return;  // one dial in flight per stream
  const std::uint64_t gen = conduit->generation();
  std::weak_ptr<StreamNet> self = weak_from_this();
  dial(tcp::Endpoint{net_->ip(), 0},
      tcp::Endpoint{conduit->peer_ip(), conduit->service_port()}, 0,
      [self, conduit, token, gen, upgrade_after](Result<tcp::TcpConnection::Ptr> r) {
        auto net = self.lock();
        if (net == nullptr) {
          if (r.is_ok()) (*r)->close();
          return;
        }
        net->dialing_.erase(token);
        if (conduit->closed() || conduit->paused() || conduit->migrating()) {
          if (r.is_ok()) (*r)->close();
          return;
        }
        if (!r.is_ok()) {
          // Leave the conduit stale: sends queue, and the next health event
          // retries (mirrors ContainerNet::refit_conduit's failure path).
          FF_LOG(warn, "stream") << "stream fallback dial failed (will retry "
                                    "on next health event): " << r.status();
          return;
        }
        if (conduit->generation() != gen) {
          // A newer detach won the race; re-decide with fresh state.
          (*r)->close();
          net->refit(conduit);
          return;
        }
        auto channel = TcpFallbackChannel::make(conduit->peer(), std::move(r.value()));
        core::WireHeader h;
        h.type = core::VMsg::rebind;
        h.token = token;
        // The rebind must be the first frame on the fresh connection.
        channel->send(core::encode_header(h));
        conduit->attach_channel(channel);
        net->attached_tcp_[token] = channel;
        ++net->fallbacks_;
        net->ctr_fallbacks_->inc();
        net->telemetry().tracer().instant("stream", "stream_fallback",
                                          net->net_->id(), trace_tid(token));
        if (upgrade_after) net->refit(conduit);
      });
}

// ---------------------------------------------------------- RC upgrade path

void StreamNet::start_upgrade(const core::ConduitPtr& conduit) {
  const std::uint64_t token = conduit->token();
  if (pending_upgrade_.contains(token)) return;
  auto& agent = ff().agents().agent_on(net_->container()->host());
  auto channel = std::make_shared<RcStreamChannel>(
      agent.rdma_device(), &net_->container()->account(), conduit->peer(),
      net_->container()->tenant());
  channel->start();
  pending_upgrade_.emplace(token, channel);
  core::WireHeader h;
  h.type = core::VMsg::rc_offer;
  h.token = token;
  h.id = channel->qp_num();
  h.offset = net_->container()->host();
  conduit->send(h);
}

void StreamNet::handle_control(const core::ConduitPtr& conduit,
                               const core::WireHeader& h) {
  const std::uint64_t token = conduit->token();
  switch (h.type) {
    case core::VMsg::rc_offer: {
      // Passive side: build + connect our QP, tap it for rc_switch, and
      // answer. The initiator switches first; we splice on its rc_switch.
      auto& agent = ff().agents().agent_on(net_->container()->host());
      auto channel = std::make_shared<RcStreamChannel>(
          agent.rdma_device(), &net_->container()->account(), conduit->peer(),
          net_->container()->tenant());
      channel->start();
      const Status connected =
          channel->connect(static_cast<fabric::HostId>(h.offset),
                           static_cast<rdma::QpNum>(h.id));
      if (!connected.is_ok()) {
        FF_LOG(warn, "stream") << "rc_offer connect failed: " << connected;
        channel->close();
        return;
      }
      std::weak_ptr<StreamNet> self = weak_from_this();
      channel->set_on_message([self, token](Buffer&& message) {
        if (auto net = self.lock()) net->handle_rc_first_message(token, message);
      });
      if (auto it = pending_rc_.find(token); it != pending_rc_.end()) {
        it->second->close();  // superseded by the fresh offer
        it->second = channel;
      } else {
        pending_rc_.emplace(token, channel);
      }
      // Make-before-break: the initiator will close its TCP side right
      // after switching; that FIN is expected, not a transport failure.
      if (auto it = attached_tcp_.find(token); it != attached_tcp_.end()) {
        if (auto tcp_channel = it->second.lock()) tcp_channel->expect_close();
      }
      core::WireHeader reply;
      reply.type = core::VMsg::rc_answer;
      reply.token = token;
      reply.id = channel->qp_num();
      reply.offset = net_->container()->host();
      conduit->send(reply);
      return;
    }
    case core::VMsg::rc_answer: {
      // Initiator side: the peer's QP is connected and tapping; switch.
      auto it = pending_upgrade_.find(token);
      if (it == pending_upgrade_.end()) return;  // upgrade superseded by failover
      auto channel = std::move(it->second);
      pending_upgrade_.erase(it);
      const Status connected =
          channel->connect(static_cast<fabric::HostId>(h.offset),
                           static_cast<rdma::QpNum>(h.id));
      if (!connected.is_ok()) {
        FF_LOG(warn, "stream") << "rc_answer connect failed: " << connected;
        channel->close();
        return;
      }
      // rc_switch must be the first message on the QP: it precedes the
      // retained-window replay the attach below triggers, so the peer's tap
      // routes the channel before any data arrives on it.
      core::WireHeader sw;
      sw.type = core::VMsg::rc_switch;
      sw.token = token;
      channel->send(core::encode_header(sw));
      conduit->attach_channel(channel);  // closes the TCP side (peer expects it)
      attached_tcp_.erase(token);
      ++upgrades_;
      ctr_upgrades_->inc();
      telemetry().tracer().instant("stream", "stream_upgrade", net_->id(),
                                   trace_tid(token));
      return;
    }
    default:
      return;
  }
}

void StreamNet::handle_rc_first_message(std::uint64_t token, const Buffer& message) {
  auto parsed = core::parse_message(message.view());
  if (!parsed.is_ok() || parsed->header.type != core::VMsg::rc_switch) {
    FF_LOG(warn, "stream") << "unexpected first message on stream RC channel"
                           << " token=" << token << " size=" << message.size();
    return;
  }
  auto it = pending_rc_.find(token);
  if (it == pending_rc_.end()) return;
  auto channel = std::move(it->second);
  pending_rc_.erase(it);
  auto cit = conduits_.find(token);
  if (cit == conduits_.end() || cit->second->closed()) {
    channel->close();
    return;
  }
  cit->second->attach_channel(channel);  // closes our (already quiet) TCP side
  attached_tcp_.erase(token);
  ++upgrades_;
  ctr_upgrades_->inc();
  telemetry().tracer().instant("stream", "stream_upgrade", net_->id(),
                               trace_tid(token));
}

}  // namespace freeflow::stream
