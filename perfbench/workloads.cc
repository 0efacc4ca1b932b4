// The three workloads. Each is closed loop in one thread: a client sends its
// next request only when an earlier one has completed.
//
//   rpc   16 flows on 4 RDMA hosts (8 co-located -> shm, 8 cross -> rdma),
//         pipeline depth 4, requests of 64-512 B echoed. Per-message cost.
//   bulk  8 flows over mixed NICs (shm, rdma, dpdk, tcp_host and one
//         untrusted pair on overlay TCP), depth 2, 64 KiB-1 MiB echoed.
//         Per-byte cost.
//   churn 4 slots; one op connects to a seeded server, echoes 4 x 1 KiB and
//         closes; every other op also deploys, attaches and then stops a
//         fresh client container. Control-path cost.
#include <algorithm>

#include "harness.h"
#include "tcpstack/network.h"

namespace perfbench {

namespace ff = freeflow;
using ff::Status;
using ff::core::FlowSocketPtr;
using ff::fabric::HostId;
using ff::fabric::NicCapabilities;

namespace {

constexpr std::uint16_t k_port = 9000;
constexpr SimDuration k_setup_limit = 60 * ff::k_second;

ff::orch::ContainerPtr deploy(Harness& h, World& w, const std::string& name,
                              ff::orch::TenantId tenant, HostId host) {
  ff::orch::ContainerSpec spec;
  spec.name = name;
  spec.tenant = tenant;
  spec.pinned_host = host;
  Span s(h.tracer, k_api_deploy);
  auto c = w.corch->deploy(spec);
  if (!c.is_ok()) {
    h.fail("deploy " + name + ": " + c.status().message());
    return nullptr;
  }
  return *c;
}

ff::core::ContainerNetPtr attach(Harness& h, World& w, const ff::orch::ContainerPtr& c) {
  if (c == nullptr) return nullptr;
  Span s(h.tracer, k_api_attach);
  auto net = w.ff->attach(c->id());
  if (!net.is_ok()) {
    h.fail("attach " + c->name() + ": " + net.status().message());
    return nullptr;
  }
  return *net;
}

void stop(Harness& h, World& w, const ff::orch::ContainerPtr& c) {
  if (c == nullptr) return;
  Span s(h.tracer, k_api_stop);
  const auto st = w.corch->stop(c->id());
  if (!st.is_ok()) h.fail("stop " + c->name() + ": " + st.message());
}

std::int64_t async_start(const Harness& h) {
  return h.tracer.enabled() ? mono_now_ns() : -1;
}

// ------------------------------------------------------------------- echo

struct FlowSpec {
  HostId client_host;
  HostId server_host;
  Path planned;
};

struct EchoShape {
  std::vector<NicCapabilities> hosts;
  std::vector<FlowSpec> flows;
  std::uint32_t min_bytes;
  std::uint32_t max_bytes;
  int depth;
};

EchoShape rpc_shape() {
  EchoShape s;
  s.hosts.assign(4, NicCapabilities{});
  for (HostId i = 0; i < 16; ++i) {
    const HostId c = i % 4;
    if (i < 8) {
      s.flows.push_back({c, c, Path::shm});
    } else {
      s.flows.push_back({c, (c + (i < 12 ? 3 : 1)) % 4, Path::rdma});
    }
  }
  s.min_bytes = 64;
  s.max_bytes = 512;
  s.depth = 4;
  return s;
}

EchoShape bulk_shape() {
  EchoShape s;
  const NicCapabilities full{};
  const NicCapabilities dpdk_only{.rdma = false, .dpdk = true};
  const NicCapabilities plain{.rdma = false, .dpdk = false};
  s.hosts = {full, full, dpdk_only, dpdk_only, plain, plain};
  s.flows = {
      {0, 0, Path::shm},      {2, 2, Path::shm},      {0, 1, Path::rdma},
      {1, 0, Path::rdma},     {2, 3, Path::dpdk},     {0, 3, Path::dpdk},
      {4, 5, Path::tcp_host}, {1, 5, Path::overlay_tcp},
  };
  s.min_bytes = 64 * 1024;
  s.max_bytes = 1024 * 1024;
  s.depth = 2;
  return s;
}

class EchoWorkload final : public Workload {
 public:
  EchoWorkload(Harness& h, std::uint64_t seed, EchoShape shape)
      : h_(h), shape_(std::move(shape)), world_(shape_.hosts) {
    for (std::size_t i = 0; i < shape_.flows.size(); ++i) {
      flows_.push_back(std::make_unique<Flow>(i, seed, shape_));
    }
  }

  World& world() override { return world_; }

  void start() override {
    for (auto& f : flows_) {
      const FlowSpec& spec = shape_.flows[f->id];
      const bool untrusted = spec.planned == Path::overlay_tcp;
      f->client = deploy(h_, world_, "c" + std::to_string(f->id), untrusted ? 2 : 1,
                         spec.client_host);
      f->server = deploy(h_, world_, "s" + std::to_string(f->id), untrusted ? 3 : 1,
                         spec.server_host);
      f->cnet = attach(h_, world_, f->client);
      f->snet = attach(h_, world_, f->server);
    }
    if (h_.failures() != 0) return;
    // Overlay routes converge before the untrusted pair dials.
    world_.loop().run();
    // One connection at a time, so each sock_connect span holds only its
    // own establishment work.
    for (auto& f : flows_) {
      const std::size_t before = connected_;
      connect(*f);
      if (!h_.run_until([&] { return connected_ > before; }, k_setup_limit)) {
        h_.fail("echo: connection " + std::to_string(f->id) + " did not complete");
        return;
      }
    }
    for (auto& f : flows_) {
      for (int d = 0; d < shape_.depth; ++d) send_request(*f);
    }
  }

  void finish() override {
    std::size_t to_close = 0;
    for (auto& f : flows_) {
      if (f->csock) {
        ++to_close;
        Span s(h_.tracer, k_api_close);
        f->csock->close();
      } else if (f->ctcp) {
        ++to_close;
        Span s(h_.tracer, k_api_close);
        f->ctcp->close();
      }
    }
    const bool closed = h_.run_until(
        [&] {
          std::size_t n = closed_;
          for (auto& f : flows_) {
            if (f->ctcp && f->ctcp->state() == ff::tcp::ConnState::closed) ++n;
          }
          return n == to_close;
        },
        k_setup_limit);
    if (!closed) h_.fail("echo: orderly close did not complete");
    for (auto& f : flows_) {
      stop(h_, world_, f->client);
      stop(h_, world_, f->server);
    }
    world_.loop().run_for(10 * ff::k_millisecond);
  }

 private:
  struct Flow {
    Flow(std::size_t i, std::uint64_t seed, const EchoShape& shape)
        : id(i),
          tmpl(make_template(seed, i, shape.max_bytes)),
          sizes(size_seed(seed, i)),
          server_sizes(size_seed(seed, i)),
          check(&tmpl) {}

    static std::uint64_t size_seed(std::uint64_t seed, std::size_t i) {
      return seed ^ (0xA5A5A5A5ULL + i * 0x1000193ULL);
    }

    std::size_t id;
    std::vector<std::byte> tmpl;
    InputRng sizes;
    /// The server's copy of the size sequence: it maps echoed bytes to the
    /// request they belong to (span ids) without parsing the stream.
    InputRng server_sizes;
    std::uint64_t server_seq = 0;
    std::uint64_t server_left = 0;
    EchoCheck check;
    std::uint64_t next_seq = 1;
    ff::orch::ContainerPtr client, server;
    ff::core::ContainerNetPtr cnet, snet;
    FlowSocketPtr csock, ssock;
    ff::tcp::TcpConnection::Ptr ctcp, stcp;
  };

  static std::uint64_t request_id(const Flow& f, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(f.id + 1) << 40) | seq;
  }

  /// Request id of the first of `n` bytes the server is about to echo.
  std::uint64_t server_request(Flow& f, std::size_t n) {
    const std::uint64_t id = request_id(f, f.server_seq + (f.server_left == 0 ? 1 : 0));
    while (n > 0) {
      if (f.server_left == 0) {
        ++f.server_seq;
        f.server_left = f.server_sizes.between(shape_.min_bytes, shape_.max_bytes);
      }
      const std::uint64_t k = std::min<std::uint64_t>(n, f.server_left);
      f.server_left -= k;
      n -= k;
    }
    return id;
  }

  void connect(Flow& f) {
    const FlowSpec& spec = shape_.flows[f.id];
    if (spec.planned == Path::overlay_tcp) {
      connect_overlay(f);
      return;
    }
    Flow* fp = &f;
    Status listening = f.snet->sock_listen(k_port, [this, fp](FlowSocketPtr s) {
      fp->ssock = s;
      s->set_on_data([this, fp](Buffer&& b) {
        const std::uint64_t req = server_request(*fp, b.size());
        Span rx(h_.tracer, k_harness_rx, req);
        h_.note_payload(b.size());
        Span tx(h_.tracer, k_api_send, req);
        const Status st = fp->ssock->send(std::move(b));
        if (!st.is_ok()) h_.fail("server send: " + st.message());
      });
    });
    if (!listening.is_ok()) h_.fail("listen: " + listening.message());
    h_.note_connect();
    const std::int64_t t0 = async_start(h_);
    f.cnet->sock_connect(f.server->ip(), k_port,
                         [this, fp, t0, planned = spec.planned](ff::Result<FlowSocketPtr> r) {
      h_.tracer.record_async(k_api_connect, request_id(*fp, 0), t0);
      Span ctl(h_.tracer, k_harness_ctl, request_id(*fp, 0));
      ++connected_;
      if (!r.is_ok()) {
        h_.fail("connect flow " + std::to_string(fp->id) + ": " + r.status().message());
        return;
      }
      fp->csock = *r;
      if (path_of(fp->csock->transport()) != planned) {
        h_.fail("flow " + std::to_string(fp->id) + " rides " +
                path_name(path_of(fp->csock->transport())) + ", planned " +
                path_name(planned));
      }
      fp->csock->set_on_data([this, fp](Buffer&& b) { on_echo(*fp, b.view()); });
      fp->csock->set_on_close([this, fp](ff::core::CloseReason why) {
        ++closed_;
        if (why != ff::core::CloseReason::app_close) {
          h_.fail("flow " + std::to_string(fp->id) + " closed: " +
                  ff::core::close_reason_name(why));
        }
      });
    });
  }

  /// The untrusted pair: FreeFlow must refuse it (the selector withholds
  /// every fast path across tenants), so the application falls back to
  /// plain overlay TCP.
  void connect_overlay(Flow& f) {
    Flow* fp = &f;
    h_.note_connect();
    f.cnet->sock_connect(f.server->ip(), k_port, [this, fp](ff::Result<FlowSocketPtr> r) {
      if (r.is_ok() || r.status().code() != ff::Errc::permission_denied) {
        h_.fail("untrusted pair was not refused by FreeFlow");
        ++connected_;
        return;
      }
      dial_overlay(*fp);
    });
  }

  void dial_overlay(Flow& f) {
    if (overlay_net_ == nullptr) {
      overlay_net_ = std::make_unique<ff::tcp::TcpNetwork>(
          world_.loop(), world_.cluster->cost_model(), world_.overlay->path_builder());
    }
    Flow* fp = &f;
    const ff::tcp::Endpoint server_ep{f.server->ip(), k_port};
    const Status listening =
        overlay_net_->listen(server_ep, [this, fp](ff::tcp::TcpConnection::Ptr c) {
          fp->stcp = c;
          // Close our half once the client's FIN arrives (outside the
          // connection's own callback).
          c->set_on_close([this, fp]() {
            world_.loop().schedule(0, [fp]() { fp->stcp->close(); });
          });
          c->set_on_data([this, fp](Buffer&& b) {
            const std::uint64_t req = server_request(*fp, b.size());
            Span rx(h_.tracer, k_harness_rx, req);
            h_.note_payload(b.size());
            Span tx(h_.tracer, k_api_send, req);
            const Status st = fp->stcp->send(std::move(b));
            if (!st.is_ok()) h_.fail("overlay server send: " + st.message());
          });
        });
    if (!listening.is_ok()) h_.fail("overlay listen: " + listening.message());
    const std::int64_t t0 = async_start(h_);
    overlay_net_->connect({f.client->ip(), 0}, server_ep,
                          [this, fp, t0](ff::Result<ff::tcp::TcpConnection::Ptr> r) {
      h_.tracer.record_async(k_api_connect, request_id(*fp, 0), t0);
      ++connected_;
      if (!r.is_ok()) {
        h_.fail("overlay connect: " + r.status().message());
        return;
      }
      fp->ctcp = *r;
      fp->ctcp->set_on_data([this, fp](Buffer&& b) { on_echo(*fp, b.view()); });
    });
  }

  void send_request(Flow& f) {
    if (!h_.may_start()) return;
    h_.note_started();
    const auto len = static_cast<std::uint32_t>(
        f.sizes.between(shape_.min_bytes, shape_.max_bytes));
    Buffer req = f.check.make_request(static_cast<std::uint32_t>(f.id), f.next_seq, len,
                                      world_.loop().now());
    h_.note_payload(len);
    Span tx(h_.tracer, k_api_send, request_id(f, f.next_seq));
    ++f.next_seq;
    const Status st = f.csock ? f.csock->send(std::move(req)) : f.ctcp->send(std::move(req));
    if (!st.is_ok()) h_.fail("client send: " + st.message());
  }

  void on_echo(Flow& f, ByteSpan bytes) {
    Span rx(h_.tracer, k_harness_rx, request_id(f, f.check.front_seq()));
    const Path planned = shape_.flows[f.id].planned;
    const bool ok = f.check.consume(bytes, [&](const EchoCheck::Pending& p) {
      h_.note_echo(planned, p.hdr.len, p.sent_at);
      h_.op_completed();
      send_request(f);
    });
    if (!ok) h_.fail("flow " + std::to_string(f.id) + ": echoed bytes differ");
  }

  Harness& h_;
  EchoShape shape_;
  World world_;
  std::unique_ptr<ff::tcp::TcpNetwork> overlay_net_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::size_t connected_ = 0;
  std::size_t closed_ = 0;
};

// ------------------------------------------------------------------ churn

class ChurnWorkload final : public Workload {
 public:
  static constexpr int k_hosts = 4;
  static constexpr int k_slots = 4;
  static constexpr int k_echoes = 4;
  static constexpr std::uint32_t k_echo_bytes = 1024;

  ChurnWorkload(Harness& h, std::uint64_t seed)
      : h_(h), seed_(seed), world_(std::vector<NicCapabilities>(k_hosts)) {
    for (int i = 0; i < k_slots; ++i) {
      slots_.push_back(std::make_unique<Slot>(i, seed));
    }
  }

  World& world() override { return world_; }

  void start() override {
    for (int i = 0; i < k_hosts; ++i) {
      servers_.push_back(deploy(h_, world_, "srv" + std::to_string(i), 1,
                                static_cast<HostId>(i)));
      auto net = attach(h_, world_, servers_.back());
      if (net == nullptr) return;
      const Status st = net->sock_listen(k_port, [this](FlowSocketPtr s) { accept(s); });
      if (!st.is_ok()) h_.fail("listen: " + st.message());
    }
    for (auto& s : slots_) {
      s->home = deploy(h_, world_, "home" + std::to_string(s->id), 1,
                       static_cast<HostId>(s->id % k_hosts));
      s->home_net = attach(h_, world_, s->home);
    }
    if (h_.failures() != 0) return;
    for (auto& s : slots_) start_op(*s);
  }

  void finish() override {
    for (auto& s : slots_) stop(h_, world_, s->home);
    for (auto& c : servers_) stop(h_, world_, c);
    world_.loop().run_for(10 * ff::k_millisecond);
  }

 private:
  struct Slot {
    Slot(int i, std::uint64_t seed) : id(i), tmpl(make_template(seed, 100 + i, k_echo_bytes)),
                                      check(&tmpl) {}
    int id;
    std::vector<std::byte> tmpl;
    EchoCheck check;
    ff::orch::ContainerPtr home;
    ff::core::ContainerNetPtr home_net;
    // Current operation.
    std::uint64_t op = 0;
    ff::orch::ContainerPtr fresh;
    ff::core::ContainerNetPtr fresh_net;
    FlowSocketPtr sock;
    Path planned = Path::shm;
    int echoes = 0;
  };

  void accept(const FlowSocketPtr& s) {
    ff::core::FlowSocket* raw = s.get();
    accepted_[raw] = s;
    s->set_on_data([this, raw](Buffer&& b) {
      // Each 1 KiB echo arrives whole; its header names the op.
      MsgHeader hdr{};
      if (b.size() >= k_header) std::memcpy(&hdr, b.data(), k_header);
      Span rx(h_.tracer, k_harness_rx, hdr.seq >> 4);
      h_.note_payload(b.size());
      Span tx(h_.tracer, k_api_send, hdr.seq >> 4);
      const Status st = raw->send(std::move(b));
      if (!st.is_ok()) h_.fail("server send: " + st.message());
    });
    s->set_on_close([this, raw](ff::core::CloseReason why) {
      if (why != ff::core::CloseReason::peer_bye) {
        h_.fail(std::string("server side closed: ") + ff::core::close_reason_name(why));
      }
      auto it = accepted_.find(raw);
      h_.defer_release(std::move(it->second));
      accepted_.erase(it);
    });
  }

  void start_op(Slot& s) {
    if (!h_.may_start()) return;
    h_.note_started();
    s.op = h_.started();
    s.echoes = 0;
    // Inputs for op n depend only on (seed, n). The server sits at a seeded
    // host offset from the client; each block of 4 ops uses every offset
    // once, so exactly a quarter of the connections are co-located (shm).
    const std::uint64_t block = (s.op - 1) / k_hosts;
    InputRng block_rng(seed_ * 0x9E3779B97F4A7C15ULL + block);
    HostId offsets[k_hosts] = {0, 1, 2, 3};
    for (int i = k_hosts - 1; i > 0; --i) {
      std::swap(offsets[i], offsets[block_rng.next() % static_cast<std::uint64_t>(i + 1)]);
    }
    const HostId offset = offsets[(s.op - 1) % k_hosts];
    InputRng op_rng(seed_ * 0xD1B54A32D192ED03ULL + s.op);
    const auto fresh_host = static_cast<HostId>(op_rng.next() % k_hosts);
    ff::core::ContainerNetPtr net = s.home_net;
    HostId client_host = s.home->host();
    if (s.op % 2 == 0) {
      s.fresh = deploy(h_, world_, "op" + std::to_string(s.op), 1, fresh_host);
      s.fresh_net = attach(h_, world_, s.fresh);
      if (s.fresh_net == nullptr) return;
      net = s.fresh_net;
      client_host = fresh_host;
    }
    const HostId server = (client_host + offset) % k_hosts;
    s.planned = offset == 0 ? Path::shm : Path::rdma;
    h_.note_connect();
    Slot* sp = &s;
    const std::int64_t t0 = async_start(h_);
    Span call(h_.tracer, k_harness_ctl, s.op);
    net->sock_connect(servers_[static_cast<std::size_t>(server)]->ip(), k_port,
                      [this, sp, t0](ff::Result<FlowSocketPtr> r) {
      h_.tracer.record_async(k_api_connect, sp->op, t0);
      Span ctl(h_.tracer, k_harness_ctl, sp->op);
      if (!r.is_ok()) {
        h_.fail("churn connect: " + r.status().message());
        return;
      }
      sp->sock = *r;
      if (path_of(sp->sock->transport()) != sp->planned) {
        h_.fail(std::string("churn op rides ") + path_name(path_of(sp->sock->transport())) +
                ", planned " + path_name(sp->planned));
      }
      sp->sock->set_on_data([this, sp](Buffer&& b) { on_echo(*sp, b.view()); });
      sp->sock->set_on_close([this, sp](ff::core::CloseReason why) { on_closed(*sp, why); });
      send_echo(*sp);
    });
  }

  void send_echo(Slot& s) {
    const std::uint64_t seq = (s.op << 4) | static_cast<std::uint64_t>(s.echoes);
    Buffer req = s.check.make_request(static_cast<std::uint32_t>(s.id), seq, k_echo_bytes,
                                      world_.loop().now());
    h_.note_payload(k_echo_bytes);
    Span tx(h_.tracer, k_api_send, s.op);
    const Status st = s.sock->send(std::move(req));
    if (!st.is_ok()) h_.fail("churn send: " + st.message());
  }

  void on_echo(Slot& s, ByteSpan bytes) {
    Span rx(h_.tracer, k_harness_rx, s.op);
    const bool ok = s.check.consume(bytes, [&](const EchoCheck::Pending& p) {
      h_.note_echo(s.planned, p.hdr.len, p.sent_at);
      if (++s.echoes < k_echoes) {
        send_echo(s);
      } else {
        Span c(h_.tracer, k_api_close, s.op);
        s.sock->close();
      }
    });
    if (!ok) h_.fail("churn: echoed bytes differ");
  }

  void on_closed(Slot& s, ff::core::CloseReason why) {
    Span ctl(h_.tracer, k_harness_ctl, s.op);
    if (why != ff::core::CloseReason::app_close) {
      h_.fail(std::string("churn client closed: ") + ff::core::close_reason_name(why));
    }
    h_.defer_release(std::move(s.sock));
    Slot* sp = &s;
    // Leave the socket's callback before touching the container's life.
    world_.loop().schedule(0, [this, sp]() {
      Span next(h_.tracer, k_harness_ctl, sp->op);
      if (sp->fresh != nullptr) {
        stop(h_, world_, sp->fresh);
        sp->fresh.reset();
        sp->fresh_net.reset();
      }
      h_.op_completed();
      start_op(*sp);
    });
  }

  Harness& h_;
  std::uint64_t seed_;
  World world_;
  std::vector<ff::orch::ContainerPtr> servers_;
  std::unordered_map<ff::core::FlowSocket*, FlowSocketPtr> accepted_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace

bool workload_shape(const std::string& name, WorkloadShape* out) {
  // Rates are sized so one --seconds is about one CPU-second on the tuning
  // machine. Sensitivities are the exponents that made repeated runs there
  // agree best (about 50 runs per workload; see NOTES.md).
  if (name == "rpc") {
    *out = {120'000, 120'000, 2'000, 100 * ff::k_microsecond, 6, 1.1};
  } else if (name == "bulk") {
    *out = {700, 700, 64, ff::k_millisecond, 6, 0.6};
  } else if (name == "churn") {
    // Small epochs: every shm connection leaves its 8 MiB region registered
    // (see NOTES.md), so a long-lived deployment would grow without bound.
    *out = {240, 100, 16, 10 * ff::k_microsecond, 4, 0.5};
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Harness& h,
                                        std::uint64_t seed) {
  if (name == "rpc") return std::make_unique<EchoWorkload>(h, seed, rpc_shape());
  if (name == "bulk") return std::make_unique<EchoWorkload>(h, seed, bulk_shape());
  if (name == "churn") return std::make_unique<ChurnWorkload>(h, seed);
  return nullptr;
}

}  // namespace perfbench
