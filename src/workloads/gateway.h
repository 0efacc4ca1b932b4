// Multi-tenant API-gateway workload: one gateway container fronts an
// autoscaled pool of backend containers. Clients open FreeFlow socket
// streams to the gateway; the gateway routes each new flow to the
// least-loaded backend (fresh containers start empty, so scale-ups absorb
// new flows immediately) and relays length-prefixed request/response
// records both ways. A telemetry-driven scaler grows and shrinks the pool
// on per-backend queue depth. Backends are deployed through the cluster
// orchestrator, so gateway->backend channels ride the normal decide path —
// co-located backends get tenant-scoped shm regions from the host agent's
// RegionRegistry, remote ones the fabric transports.
//
// Protocol: each message is one RecordStream record (common/framing.h:
// a u32 host-order length, then the record), relayed by the gateway as
// it is:
//   request : [u64 req_id][u32 resp_bytes] payload...
//   response: [u64 req_id] + resp_bytes of payload
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "core/container_net.h"
#include "telemetry/metrics.h"
#include "workloads/kv_store.h"
#include "workloads/stream_adapter.h"

namespace freeflow::workloads {

/// Backend service: answers each request with `resp_bytes` of payload.
/// One instance per backend container; serves every accepted stream.
/// `service_ns` models one serial worker per backend — requests queue
/// behind each other, so backend queue depth (what the gateway's scaler
/// watches) grows exactly when the pool is undersized for the offered load.
class GatewayBackend {
 public:
  explicit GatewayBackend(core::ContainerNetPtr net, SimDuration service_ns = 0)
      : net_(std::move(net)), service_ns_(service_ns) {}
  ~GatewayBackend() { *alive_ = false; }

  GatewayBackend(const GatewayBackend&) = delete;
  GatewayBackend& operator=(const GatewayBackend&) = delete;

  Status start(std::uint16_t port);

  [[nodiscard]] core::ContainerNetPtr net() const noexcept { return net_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }

 private:
  void serve(core::FlowSocketPtr sock);

  core::ContainerNetPtr net_;
  SimDuration service_ns_;
  SimTime busy_until_ = 0;
  std::uint64_t served_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// The scaler keeps at least one backend, checks every 2 ms, and drains
/// one backend when mean in-flight requests per active backend drops
/// below 1.
struct GatewayConfig {
  std::uint16_t listen_port = 8080;
  std::uint16_t backend_port = 9090;
  std::size_t max_backends = 8;
  /// Scale up when mean in-flight requests per active backend exceeds this.
  double grow_queue_depth = 8.0;
};

/// The gateway proper: listener, flow router, relay, and pool scaler.
class Gateway {
 public:
  /// Deploys, attaches and starts serving one fresh backend container,
  /// returning its library handle (null on failure). Provided by the
  /// harness so the gateway itself stays orchestrator-agnostic.
  using SpawnFn = std::function<core::ContainerNetPtr()>;
  /// Stops a fully-drained backend container.
  using RetireFn = std::function<void(orch::ContainerId)>;

  Gateway(core::ContainerNetPtr net, GatewayConfig cfg);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  void set_pool_hooks(SpawnFn spawn, RetireFn retire);
  /// Registers an already-running backend (initial pool).
  void add_backend(core::ContainerNetPtr backend);
  /// Starts listening and arms the scaler timer.
  Status start();

  [[nodiscard]] std::size_t pool_size() const noexcept;       ///< non-draining
  [[nodiscard]] std::size_t total_queue_depth() const noexcept;
  [[nodiscard]] std::uint64_t scale_ups() const noexcept { return ctr_scale_ups_->value(); }
  [[nodiscard]] std::uint64_t scale_downs() const noexcept {
    return ctr_scale_downs_->value();
  }

 private:
  /// One pooled backend as the gateway sees it.
  struct BackendSlot {
    core::ContainerNetPtr net;
    std::size_t flows = 0;
    std::size_t queue_depth = 0;  ///< requests forwarded, not yet answered
    bool draining = false;
  };
  using SlotPtr = std::shared_ptr<BackendSlot>;

  /// One client flow riding one backend stream.
  struct Session {
    SlotPtr backend;
    core::FlowSocketPtr client_sock;
    core::FlowSocketPtr backend_sock;
    std::unique_ptr<RecordStream> client_rs;
    std::unique_ptr<RecordStream> backend_rs;
    std::deque<Buffer> pending;  ///< client records before the backend dial lands
    std::size_t in_flight = 0;   ///< this session's share of queue_depth
    bool closed = false;
  };
  using SessionPtr = std::shared_ptr<Session>;

  void accept_client(core::FlowSocketPtr sock);
  void on_client_record(const SessionPtr& s, ByteSpan record);
  void on_backend_record(const SessionPtr& s, ByteSpan record);
  void close_session(const SessionPtr& s);
  [[nodiscard]] SlotPtr route_new_flow();
  void scale_tick();
  void arm_scaler();
  void maybe_retire(const SlotPtr& slot);
  void update_gauges();

  core::ContainerNetPtr net_;
  GatewayConfig cfg_;
  SpawnFn spawn_;
  RetireFn retire_;
  std::vector<SlotPtr> backends_;
  std::unordered_map<Session*, SessionPtr> sessions_;
  telemetry::Gauge* g_pool_ = nullptr;
  telemetry::Gauge* g_queue_depth_ = nullptr;
  telemetry::Counter* ctr_scale_ups_ = nullptr;
  telemetry::Counter* ctr_scale_downs_ = nullptr;
  /// Callbacks registered on sockets/the loop guard on this token; the
  /// sessions they capture stay valid, the gateway itself may not.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Closed-loop client: keeps `pipeline` requests in flight on one flow to
/// the gateway, recording per-request latency.
class GatewayClient {
 public:
  GatewayClient(core::ContainerNetPtr net, tcp::Ipv4Addr gateway_ip,
                std::uint16_t port, std::size_t req_bytes, std::size_t resp_bytes,
                int pipeline = 1);
  ~GatewayClient();

  GatewayClient(const GatewayClient&) = delete;
  GatewayClient& operator=(const GatewayClient&) = delete;

  void start();
  /// Stops issuing new requests; in-flight responses still complete.
  void stop() noexcept { running_ = false; }

  [[nodiscard]] bool connected() const noexcept { return rs_ != nullptr; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t response_bytes() const noexcept { return response_bytes_; }
  [[nodiscard]] Histogram& latency() noexcept { return latency_; }

 private:
  void issue();
  void on_record(ByteSpan record);

  core::ContainerNetPtr net_;
  tcp::Ipv4Addr gateway_ip_;
  std::uint16_t port_;
  std::size_t req_bytes_;
  std::size_t resp_bytes_;
  int pipeline_;
  bool running_ = false;
  bool failed_ = false;
  core::FlowSocketPtr sock_;
  std::unique_ptr<RecordStream> rs_;
  std::uint64_t next_req_ = 1;
  std::unordered_map<std::uint64_t, SimTime> started_;
  std::uint64_t completed_ = 0;
  std::uint64_t response_bytes_ = 0;
  Histogram latency_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace freeflow::workloads
