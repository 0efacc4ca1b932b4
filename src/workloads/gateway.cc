#include "workloads/gateway.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.h"
#include "core/freeflow.h"

namespace freeflow::workloads {

namespace {
constexpr std::size_t k_req_header = 8 + 4;   // req_id + resp_bytes
constexpr std::size_t k_resp_header = 8;      // req_id
constexpr std::size_t k_min_backends = 1;
constexpr double k_shrink_queue_depth = 1.0;
constexpr SimDuration k_scale_period = 2 * k_millisecond;
}  // namespace

// ------------------------------------------------------------ GatewayBackend

Status GatewayBackend::start(std::uint16_t port) {
  return net_->sock_listen(port,
                           [this](core::FlowSocketPtr sock) { serve(std::move(sock)); });
}

void GatewayBackend::serve(core::FlowSocketPtr sock) {
  auto stream = std::make_shared<SocketStream>(std::move(sock));
  // The parser is owned by the on_data closure chain (KvServer idiom).
  auto rs = std::make_shared<std::unique_ptr<RecordStream>>();
  *rs = std::make_unique<RecordStream>(stream, [this, stream, rs](ByteSpan record) {
    if (record.size() < k_req_header) return;
    std::uint64_t req_id = 0;
    std::uint32_t resp_bytes = 0;
    std::memcpy(&req_id, record.data(), 8);
    std::memcpy(&resp_bytes, record.data() + 8, 4);

    auto respond = [this, rs, req_id, resp_bytes]() {
      ++served_;
      std::array<std::byte, k_resp_header> head;
      std::memcpy(head.data(), &req_id, 8);
      Buffer body = Buffer::for_overwrite(resp_bytes);
      fill_pattern(body.mutable_view(), req_id);
      auto parser = (*rs).get();
      if (parser != nullptr) (void)parser->send_record(head, body.view());
    };
    if (service_ns_ <= 0) {
      respond();
      return;
    }
    // One serial worker: each request queues behind the one in service.
    const SimTime now = net_->loop().now();
    const SimTime done = std::max(now, busy_until_) + service_ns_;
    busy_until_ = done;
    std::weak_ptr<bool> alive = alive_;
    net_->loop().schedule(done - now, [alive, respond = std::move(respond)]() {
      if (alive.expired()) return;
      respond();
    });
  });
}

// ------------------------------------------------------------------- Gateway

Gateway::Gateway(core::ContainerNetPtr net, GatewayConfig cfg)
    : net_(std::move(net)), cfg_(cfg) {
  auto& metrics = net_->freeflow().orchestrator().cluster_orch().cluster()
                      .telemetry().metrics();
  const std::string prefix = "gateway/" + net_->name() + "/";
  g_pool_ = &metrics.gauge(prefix + "pool_size");
  g_queue_depth_ = &metrics.gauge(prefix + "queue_depth");
  ctr_scale_ups_ = &metrics.counter(prefix + "scale_ups");
  ctr_scale_downs_ = &metrics.counter(prefix + "scale_downs");
}

Gateway::~Gateway() {
  *alive_ = false;
  // Snapshot: closing a socket fires close paths that mutate sessions_.
  std::vector<SessionPtr> open;
  open.reserve(sessions_.size());
  for (auto& [ptr, s] : sessions_) open.push_back(s);
  for (auto& s : open) {
    if (s->client_sock && s->client_sock->is_open()) s->client_sock->close();
    if (s->backend_sock && s->backend_sock->is_open()) s->backend_sock->close();
  }
}

void Gateway::set_pool_hooks(SpawnFn spawn, RetireFn retire) {
  spawn_ = std::move(spawn);
  retire_ = std::move(retire);
}

void Gateway::add_backend(core::ContainerNetPtr backend) {
  auto slot = std::make_shared<BackendSlot>();
  slot->net = std::move(backend);
  backends_.push_back(std::move(slot));
  update_gauges();
}

Status Gateway::start() {
  const Status s = net_->sock_listen(
      cfg_.listen_port,
      [this](core::FlowSocketPtr sock) { accept_client(std::move(sock)); });
  if (!s.is_ok()) return s;
  arm_scaler();
  return ok_status();
}

std::size_t Gateway::pool_size() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : backends_) {
    if (!slot->draining) ++n;
  }
  return n;
}

std::size_t Gateway::total_queue_depth() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : backends_) n += slot->queue_depth;
  return n;
}

Gateway::SlotPtr Gateway::route_new_flow() {
  // Fewest flows wins; reverse scan so the freshest backend takes ties —
  // a scale-up starts absorbing new flows the moment it lands.
  SlotPtr best;
  for (auto it = backends_.rbegin(); it != backends_.rend(); ++it) {
    if ((*it)->draining) continue;
    if (best == nullptr || (*it)->flows < best->flows) best = *it;
  }
  return best;
}

void Gateway::accept_client(core::FlowSocketPtr sock) {
  SlotPtr slot = route_new_flow();
  if (slot == nullptr) {
    sock->close();  // no capacity: refuse the flow
    return;
  }
  ++slot->flows;

  auto session = std::make_shared<Session>();
  session->backend = slot;
  session->client_sock = sock;
  sessions_.emplace(session.get(), session);

  std::weak_ptr<bool> alive = alive_;
  auto client_stream = std::make_shared<SocketStream>(sock);
  session->client_rs = std::make_unique<RecordStream>(
      client_stream, [this, alive, session](ByteSpan record) {
        if (alive.expired()) return;
        on_client_record(session, record);
      });
  sock->set_on_close([this, alive, session](core::CloseReason) {
    if (alive.expired()) return;
    close_session(session);
  });

  net_->sock_connect(
      slot->net->ip(), cfg_.backend_port,
      [this, alive, session](Result<core::FlowSocketPtr> dialed) {
        if (alive.expired()) return;
        if (session->closed) {
          if (dialed.is_ok()) (*dialed)->close();
          return;
        }
        if (!dialed.is_ok()) {
          close_session(session);
          return;
        }
        session->backend_sock = *dialed;
        auto backend_stream = std::make_shared<SocketStream>(*dialed);
        session->backend_rs = std::make_unique<RecordStream>(
            backend_stream, [this, alive, session](ByteSpan record) {
              if (alive.expired()) return;
              on_backend_record(session, record);
            });
        session->backend_sock->set_on_close([this, alive, session](core::CloseReason) {
          if (alive.expired()) return;
          close_session(session);
        });
        while (!session->pending.empty()) {
          (void)session->backend_rs->send_record(session->pending.front().view());
          session->pending.pop_front();
        }
      });
}

void Gateway::on_client_record(const SessionPtr& s, ByteSpan record) {
  if (s->closed) return;
  ++s->backend->queue_depth;
  ++s->in_flight;
  if (s->backend_rs != nullptr) {
    (void)s->backend_rs->send_record(record);
  } else {
    s->pending.emplace_back(record.data(), record.size());
  }
  update_gauges();
}

void Gateway::on_backend_record(const SessionPtr& s, ByteSpan record) {
  if (s->closed) return;
  if (s->in_flight > 0) {
    --s->in_flight;
    if (s->backend->queue_depth > 0) --s->backend->queue_depth;
  }
  (void)s->client_rs->send_record(record);
  update_gauges();
}

void Gateway::close_session(const SessionPtr& s) {
  if (s->closed) return;
  s->closed = true;
  SlotPtr slot = s->backend;
  if (slot->flows > 0) --slot->flows;
  // A flow that dies with requests in flight takes its queue share with it.
  slot->queue_depth -= std::min(slot->queue_depth, s->in_flight);
  s->in_flight = 0;
  s->pending.clear();
  if (s->client_sock && s->client_sock->is_open()) s->client_sock->close();
  if (s->backend_sock && s->backend_sock->is_open()) s->backend_sock->close();
  sessions_.erase(s.get());
  maybe_retire(slot);
  update_gauges();
}

void Gateway::arm_scaler() {
  std::weak_ptr<bool> alive = alive_;
  net_->loop().schedule(k_scale_period, [this, alive]() {
    if (alive.expired()) return;
    scale_tick();
    arm_scaler();
  });
}

void Gateway::scale_tick() {
  std::size_t active = 0;
  std::size_t depth = 0;
  for (const auto& slot : backends_) {
    if (slot->draining) continue;
    ++active;
    depth += slot->queue_depth;
  }
  const double avg = active == 0 ? 0.0 : static_cast<double>(depth) /
                                             static_cast<double>(active);
  if ((active < k_min_backends || avg > cfg_.grow_queue_depth) &&
      active < cfg_.max_backends && spawn_ != nullptr) {
    core::ContainerNetPtr fresh = spawn_();
    if (fresh != nullptr) {
      add_backend(std::move(fresh));
      ctr_scale_ups_->inc();
      FF_LOG(info, "gateway") << net_->name() << " scaled up to "
                              << pool_size() << " backends";
    }
  } else if (avg < k_shrink_queue_depth && active > k_min_backends) {
    // Drain the least-loaded backend: no new flows, retire when empty.
    SlotPtr victim;
    for (const auto& slot : backends_) {
      if (slot->draining) continue;
      if (victim == nullptr || slot->flows < victim->flows) victim = slot;
    }
    if (victim != nullptr) {
      victim->draining = true;
      ctr_scale_downs_->inc();
      FF_LOG(info, "gateway") << net_->name() << " draining backend "
                              << victim->net->name();
      maybe_retire(victim);
    }
  }
  update_gauges();
}

void Gateway::maybe_retire(const SlotPtr& slot) {
  if (!slot->draining || slot->flows != 0 || slot->queue_depth != 0) return;
  std::erase(backends_, slot);
  if (retire_ != nullptr) retire_(slot->net->id());
}

void Gateway::update_gauges() {
  g_pool_->set(static_cast<std::int64_t>(pool_size()));
  g_queue_depth_->set(static_cast<std::int64_t>(total_queue_depth()));
}

// ------------------------------------------------------------- GatewayClient

GatewayClient::GatewayClient(core::ContainerNetPtr net, tcp::Ipv4Addr gateway_ip,
                             std::uint16_t port, std::size_t req_bytes,
                             std::size_t resp_bytes, int pipeline)
    : net_(std::move(net)),
      gateway_ip_(gateway_ip),
      port_(port),
      req_bytes_(req_bytes),
      resp_bytes_(resp_bytes),
      pipeline_(pipeline) {}

GatewayClient::~GatewayClient() {
  *alive_ = false;
  if (sock_ && sock_->is_open()) sock_->close();
}

void GatewayClient::start() {
  running_ = true;
  std::weak_ptr<bool> alive = alive_;
  net_->sock_connect(gateway_ip_, port_,
                     [this, alive](Result<core::FlowSocketPtr> dialed) {
                       if (alive.expired()) return;
                       if (!dialed.is_ok()) {
                         failed_ = true;
                         running_ = false;
                         return;
                       }
                       sock_ = *dialed;
                       auto stream = std::make_shared<SocketStream>(sock_);
                       rs_ = std::make_unique<RecordStream>(
                           stream, [this, alive](ByteSpan record) {
                             if (alive.expired()) return;
                             on_record(record);
                           });
                       sock_->set_on_close([this, alive](core::CloseReason) {
                         if (alive.expired()) return;
                         running_ = false;
                       });
                       for (int i = 0; i < pipeline_; ++i) issue();
                     });
}

void GatewayClient::issue() {
  if (!running_ || rs_ == nullptr) return;
  const std::uint64_t id = next_req_++;
  const std::size_t payload = req_bytes_ > k_req_header ? req_bytes_ - k_req_header : 0;
  const auto resp = static_cast<std::uint32_t>(resp_bytes_);
  std::array<std::byte, k_req_header> head;
  std::memcpy(head.data(), &id, 8);
  std::memcpy(head.data() + 8, &resp, 4);
  Buffer body = Buffer::for_overwrite(payload);
  fill_pattern(body.mutable_view(), id);
  started_[id] = net_->loop().now();
  (void)rs_->send_record(head, body.view());
}

void GatewayClient::on_record(ByteSpan record) {
  if (record.size() < k_resp_header) return;
  std::uint64_t id = 0;
  std::memcpy(&id, record.data(), 8);
  auto it = started_.find(id);
  if (it == started_.end()) return;
  latency_.record(net_->loop().now() - it->second);
  started_.erase(it);
  ++completed_;
  response_bytes_ += record.size();
  if (running_) issue();
}

}  // namespace freeflow::workloads
