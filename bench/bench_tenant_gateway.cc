// Multi-tenant API-gateway scenario: two tenants share one gateway host —
// a latency-sensitive tenant (small RPCs) and a bulk-heavy tenant (large
// responses, deep pipelines) — with tenant-3 background container churn and
// scripted NIC degrade / link-flap faults on the churn host. The gateway
// host's NIC arbitrates the tenants with the weighted deficit-round-robin
// scheduler, so the number this bench gates on is the paper's multi-tenancy
// claim in one ratio: the latency tenant's p99 under full bulk contention
// divided by its uncontended p99. Also measured: aggregate goodput across
// both tenants (floor-gated against the committed baseline), autoscaler
// activity, and the shm isolation audit (zero cross-tenant attaches).
#include <map>
#include <memory>

#include "bench_common.h"

#include "common/logging.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "shm/region.h"
#include "workloads/gateway.h"

using namespace freeflow;
using namespace freeflow::bench;
using namespace freeflow::workloads;

namespace {

constexpr orch::TenantId k_lat_tenant = 1;
constexpr orch::TenantId k_bulk_tenant = 2;
constexpr orch::TenantId k_churn_tenant = 3;

constexpr std::uint16_t k_lat_gw_port = 8100;
constexpr std::uint16_t k_bulk_gw_port = 8200;
constexpr std::uint16_t k_lat_be_port = 9100;
constexpr std::uint16_t k_bulk_be_port = 9200;
constexpr std::uint16_t k_churn_port = 7000;

constexpr int k_lat_clients = 4;
constexpr int k_bulk_clients = 4;
constexpr std::size_t k_lat_resp = 4 * 1024;
constexpr std::size_t k_bulk_resp = 256 * 1024;
constexpr int k_bulk_pipeline = 8;

constexpr SimDuration k_uncontended_window = 20 * k_millisecond;
constexpr SimDuration k_contended_window = 40 * k_millisecond;

bool spin(fabric::Cluster& cluster, const std::function<bool()>& pred,
          SimDuration budget) {
  const SimTime deadline = cluster.loop().now() + budget;
  for (;;) {
    if (pred()) return true;
    if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
  }
}

/// One tenant's gateway service: gateway container + autoscaled backends,
/// all on the gateway host so backend channels ride tenant-scoped shm.
struct GatewayService {
  GatewayService(BenchEnv& env, orch::TenantId tenant, const std::string& name,
                 std::uint16_t gw_port, std::uint16_t be_port, GatewayConfig cfg,
                 SimDuration service_ns)
      : env_(env), tenant_(tenant), name_(name), be_port_(be_port),
        service_ns_(service_ns) {
    cfg.listen_port = gw_port;
    cfg.backend_port = be_port;
    gw_container = env_.deploy(name + "-gw", tenant, 0);
    gw_net = env_.ff->attach(gw_container->id()).value();
    gateway = std::make_unique<Gateway>(gw_net, cfg);
    gateway->set_pool_hooks([this]() { return spawn_backend(); },
                            [this](orch::ContainerId id) {
                              (void)env_.cluster_orch->stop(id);
                            });
    gateway->add_backend(spawn_backend());
    FF_CHECK(gateway->start().is_ok());
  }

  core::ContainerNetPtr spawn_backend() {
    const std::string bname = name_ + "-be" + std::to_string(next_backend_++);
    auto c = env_.deploy(bname, tenant_, 0);
    auto net = env_.ff->attach(c->id()).value();
    auto backend = std::make_unique<GatewayBackend>(net, service_ns_);
    FF_CHECK(backend->start(be_port_).is_ok());
    backends.push_back(std::move(backend));
    return net;
  }

  BenchEnv& env_;
  orch::TenantId tenant_;
  std::string name_;
  std::uint16_t be_port_;
  SimDuration service_ns_ = 0;
  int next_backend_ = 0;
  orch::ContainerPtr gw_container;
  core::ContainerNetPtr gw_net;
  std::unique_ptr<Gateway> gateway;
  std::vector<std::unique_ptr<GatewayBackend>> backends;
};

/// A tenant's client fleet on one host, all flows through its gateway.
struct ClientFleet {
  ClientFleet(BenchEnv& env, orch::TenantId tenant, const std::string& prefix,
              fabric::HostId host, int count, tcp::Ipv4Addr gw_ip,
              std::uint16_t gw_port, std::size_t req_bytes, std::size_t resp_bytes,
              int pipeline) {
    for (int i = 0; i < count; ++i) {
      auto c = env.deploy(prefix + std::to_string(i), tenant, host);
      auto net = env.ff->attach(c->id()).value();
      clients.push_back(std::make_unique<GatewayClient>(
          net, gw_ip, gw_port, req_bytes, resp_bytes, pipeline));
    }
  }

  void start() {
    for (auto& c : clients) c->start();
  }
  [[nodiscard]] bool all_connected() const {
    for (const auto& c : clients) {
      if (!c->connected()) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->completed();
    return n;
  }
  [[nodiscard]] std::uint64_t response_bytes() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->response_bytes();
    return n;
  }
  [[nodiscard]] Histogram merged_latency() const {
    Histogram h;
    for (const auto& c : clients) h.merge(c->latency());
    return h;
  }
  void reset_latency() {
    for (auto& c : clients) c->latency().reset();
  }

  std::vector<std::unique_ptr<GatewayClient>> clients;
};

/// Background container churn: short-lived tenant-3 containers on the churn
/// host dial the churn echo service on the gateway host, push a few
/// requests, then stop — continuous deploy/connect/teardown pressure on the
/// control plane while the fault plan batters the churn host's NIC.
struct ChurnDriver {
  ChurnDriver(BenchEnv& env, tcp::Ipv4Addr service_ip, fabric::HostId host)
      : env_(env), service_ip_(service_ip), host_(host) {}

  void run(SimTime until) {
    until_ = until;
    launch();
  }

  void launch() {
    if (env_.loop().now() >= until_) return;
    const int id = next_++;
    auto c = env_.deploy("churn" + std::to_string(id), k_churn_tenant, host_);
    auto net = env_.ff->attach(c->id()).value();
    auto& client = live_[id];
    client = std::make_unique<GatewayClient>(net, service_ip_, k_churn_port, 16 * 1024,
                                             16 * 1024, 1);
    client->start();
    ++launched_;
    // Each churner lives ~2 ms, then its container is stopped outright.
    env_.loop().schedule(2 * k_millisecond, [this, c, id]() {
      live_.at(id)->stop();
      (void)env_.cluster_orch->stop(c->id());
      ++retired_;
      live_.erase(id);
    });
    env_.loop().schedule(1 * k_millisecond, [this]() { launch(); });
  }

  BenchEnv& env_;
  tcp::Ipv4Addr service_ip_;
  fabric::HostId host_;
  SimTime until_ = 0;
  int next_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t retired_ = 0;
  /// Churners not yet retired, owned here rather than by their pending stop
  /// events: a client still live when the run ends is destroyed with this
  /// object, while the stack it closes its socket through is still alive,
  /// instead of when the event loop is torn down after that stack.
  std::map<int, std::unique_ptr<GatewayClient>> live_;
};

}  // namespace

int main(int argc, char** argv) {
  JsonReport report(argc, argv, "tenant_gateway");
  banner("multi-tenant API gateway with per-tenant QoS",
         "multi-tenancy: WDRR NIC scheduling + tenant-scoped shm (paper §3-4)");

  // Hosts: 0 = gateway host (both tenants' gateways + backend pools),
  // 1 = latency-tenant clients, 2 = bulk-tenant clients, 3 = churn host.
  BenchEnv env(4);
  agent::AgentConfig config;
  env.freeflow(config);

  // Per-tenant QoS on every NIC: the latency tenant outweighs bulk 8:1, and
  // the churn tenant is both low-weight and rate-capped to 5 Gbps.
  for (fabric::HostId h = 0; h < 4; ++h) {
    auto& nic = env.cluster.host(h).nic();
    nic.set_tenant_qos(k_lat_tenant, {.weight = 8, .rate_bps = 0.0});
    nic.set_tenant_qos(k_bulk_tenant, {.weight = 1, .rate_bps = 0.0});
    nic.set_tenant_qos(k_churn_tenant, {.weight = 1, .rate_bps = 5e9});
  }

  GatewayConfig lat_cfg;
  lat_cfg.min_backends = 1;
  lat_cfg.max_backends = 3;
  GatewayConfig bulk_cfg;
  bulk_cfg.min_backends = 1;
  bulk_cfg.max_backends = 4;
  bulk_cfg.grow_queue_depth = 6.0;

  // Backend service times: the latency tenant's requests are cheap; the
  // bulk tenant's one initial backend is undersized for 32 pipelined flows,
  // so its queue depth forces the scaler to grow the pool.
  GatewayService lat_svc(env, k_lat_tenant, "lat", k_lat_gw_port, k_lat_be_port,
                         lat_cfg, 2 * k_microsecond);
  GatewayService bulk_svc(env, k_bulk_tenant, "bulk", k_bulk_gw_port,
                          k_bulk_be_port, bulk_cfg, 200 * k_microsecond);

  // Churn echo service (tenant 3) on the gateway host.
  auto churn_svc_c = env.deploy("churn-svc", k_churn_tenant, 0);
  auto churn_svc_net = env.ff->attach(churn_svc_c->id()).value();
  GatewayBackend churn_echo(churn_svc_net);
  FF_CHECK(churn_echo.start(k_churn_port).is_ok());

  // ---- phase 1: uncontended latency baseline ---------------------------
  ClientFleet lat_fleet(env, k_lat_tenant, "latc", 1, k_lat_clients,
                        lat_svc.gw_container->ip(), k_lat_gw_port, 256,
                        k_lat_resp, 1);
  lat_fleet.start();
  FF_CHECK(spin(env.cluster,
                [&]() { return lat_fleet.all_connected() &&
                               lat_fleet.completed() >= 8; },
                10 * k_second));
  lat_fleet.reset_latency();
  env.loop().run_for(k_uncontended_window);
  const Histogram uncontended = lat_fleet.merged_latency();
  const double p99_uncontended_us = static_cast<double>(uncontended.p99()) / 1e3;
  std::printf("uncontended latency tenant: %s\n", uncontended.summary_ns().c_str());

  // ---- phase 2: bulk contention + churn + faults -----------------------
  // Two waves: the first saturates the single bulk backend (its serial
  // queue trips the scaler), the second wave's fresh flows land on the
  // scaled-up backends — the router prefers the emptiest, freshest slot.
  ClientFleet bulk_wave1(env, k_bulk_tenant, "bulkc", 2, k_bulk_clients / 2,
                         bulk_svc.gw_container->ip(), k_bulk_gw_port, 256,
                         k_bulk_resp, k_bulk_pipeline);
  ClientFleet bulk_wave2(env, k_bulk_tenant, "bulkd", 2, k_bulk_clients / 2,
                         bulk_svc.gw_container->ip(), k_bulk_gw_port, 256,
                         k_bulk_resp, k_bulk_pipeline);
  bulk_wave1.start();
  FF_CHECK(spin(env.cluster,
                [&]() { return bulk_wave1.all_connected() &&
                               bulk_wave1.completed() >= 4; },
                10 * k_second));
  env.loop().schedule(8 * k_millisecond, [&]() { bulk_wave2.start(); });
  const auto bulk_completed = [&]() {
    return bulk_wave1.completed() + bulk_wave2.completed();
  };
  const auto bulk_response_bytes = [&]() {
    return bulk_wave1.response_bytes() + bulk_wave2.response_bytes();
  };

  ChurnDriver churn(env, churn_svc_c->ip(), 3);
  churn.run(env.loop().now() + k_contended_window);

  // Faults land on the churn host: a degrade overlapping a link flap, so
  // recovery must restore only its own contribution (the PR-10 injector
  // semantics) while the tenant QoS question is decided on host 0.
  faults::FaultInjector injector(*env.net_orch, env.ff->agents());
  faults::FaultPlan plan;
  const SimTime t0 = env.loop().now();
  plan.degrade(3, t0 + 5 * k_millisecond, 0.4, 15 * k_millisecond);
  plan.link_flap(3, t0 + 22 * k_millisecond, 2 * k_millisecond);
  injector.arm(plan);

  lat_fleet.reset_latency();
  const std::uint64_t lat_bytes0 = lat_fleet.response_bytes();
  const std::uint64_t bulk_bytes0 = bulk_response_bytes();
  const SimTime window_start = env.loop().now();
  env.loop().run_for(k_contended_window);
  const SimDuration window = env.loop().now() - window_start;

  const Histogram contended = lat_fleet.merged_latency();
  const double p99_contended_us = static_cast<double>(contended.p99()) / 1e3;
  const double lat_gbps =
      static_cast<double>(lat_fleet.response_bytes() - lat_bytes0) * 8.0 /
      static_cast<double>(window);
  const double bulk_gbps =
      static_cast<double>(bulk_response_bytes() - bulk_bytes0) * 8.0 /
      static_cast<double>(window);
  std::printf("contended latency tenant:   %s\n", contended.summary_ns().c_str());
  std::printf("goodput: latency %.2f Gbps, bulk %.2f Gbps, aggregate %.2f Gbps\n",
              lat_gbps, bulk_gbps, lat_gbps + bulk_gbps);
  std::printf("bulk pool %zu backends (%llu scale-ups), churn %llu launched\n",
              bulk_svc.gateway->pool_size(),
              static_cast<unsigned long long>(bulk_svc.gateway->scale_ups()),
              static_cast<unsigned long long>(churn.launched_));

  // ---- phase 3: shm isolation audit ------------------------------------
  // Every backend region so far was created tenant-scoped by the gateway
  // host's agent; now provoke one cross-tenant attach and expect denial.
  auto& registry = env.ff->agents().agent_on(0).shm_registry();
  auto probe = registry.create(k_bulk_tenant, 4096);
  FF_CHECK(probe.is_ok());
  auto stolen = registry.attach((*probe)->id(), k_lat_tenant);
  FF_CHECK(!stolen.is_ok());
  FF_CHECK(registry.unlink((*probe)->id()));

  const double p99_ratio =
      p99_uncontended_us > 0 ? p99_contended_us / p99_uncontended_us : 0.0;
  report.add("latency_p99_uncontended_us", p99_uncontended_us);
  report.add("latency_p99_contended_us", p99_contended_us);
  report.add("p99_isolation_ratio", p99_ratio);
  report.add("latency_p50_contended_us", static_cast<double>(contended.p50()) / 1e3);
  report.add("latency_goodput_gbps", lat_gbps);
  report.add("bulk_goodput_gbps", bulk_gbps);
  report.add("aggregate_goodput_gbps", lat_gbps + bulk_gbps);
  report.add("latency_flows", k_lat_clients);
  report.add("bulk_flows", k_bulk_clients);
  report.add("bulk_resp_kb", static_cast<double>(k_bulk_resp) / 1024.0);
  report.add("latency_completed", static_cast<double>(lat_fleet.completed()));
  report.add("bulk_completed", static_cast<double>(bulk_completed()));
  report.add("scale_ups", static_cast<double>(lat_svc.gateway->scale_ups() +
                                              bulk_svc.gateway->scale_ups()));
  report.add("bulk_pool_final", static_cast<double>(bulk_svc.gateway->pool_size()));
  report.add("churn_launched", static_cast<double>(churn.launched_));
  report.add("churn_retired", static_cast<double>(churn.retired_));
  report.add("faults_applied", static_cast<double>(injector.faults_applied()));
  report.add("cross_tenant_attaches", static_cast<double>(registry.foreign_attaches()));
  report.add("denied_attaches", static_cast<double>(registry.denied_attaches()));

  footer();
  return 0;
}
