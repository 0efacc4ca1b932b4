// Failover blackout and goodput dip, one row per failover edge: kill the
// transport a live transfer is riding and measure how long the receiver
// goes silent, what the fallback lane sustains, and whether the conduit
// re-upgrades once the fault heals. shm is excluded — co-located pairs
// have no NIC in the path, so NIC faults cannot sever them.
#include "bench_common.h"

#include "common/logging.h"
#include "faults/fault_injector.h"

using namespace freeflow;
using namespace freeflow::bench;
using namespace freeflow::workloads;

namespace {

bool spin(fabric::Cluster& cluster, const std::function<bool()>& pred,
          SimDuration budget) {
  const SimTime deadline = cluster.loop().now() + budget;
  for (;;) {
    if (pred()) return true;
    if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
  }
}

struct EdgeResult {
  double baseline_gbps = 0;
  double blackout_ms = 0;
  double fallback_gbps = 0;
  bool recovered = false;
  std::uint64_t retransmits = 0;      ///< client-conduit, per its own counter
  double conduit_blackout_ms = 0;     ///< client-conduit detached time
  std::string telemetry_snapshot;     ///< registry JSON at end of edge
};

/// One failover edge: stream over `from`, kill it on host 1, ride `to`,
/// heal, and expect the conduit back on `from`. A non-empty `trace_path`
/// exports the edge's Chrome trace (fault markers + failover spans).
EdgeResult run_edge(const char* label, fabric::NicCapabilities caps,
                    orch::Transport from, orch::Transport to,
                    faults::FaultKind kill, faults::FaultKind heal,
                    const std::string& trace_path = {}) {
  constexpr SimDuration k_window = 10 * k_millisecond;
  EdgeResult r;
  FreeFlowRig rig(/*inter_host=*/true, {}, caps);
  auto& cluster = rig.env.cluster;
  faults::FaultInjector injector(*rig.env.net_orch, rig.env.ff->agents());

  core::FlowSocketPtr client, server;
  std::uint64_t received = 0;
  SimTime last_rx = 0;
  SimDuration max_gap = 0;  // longest rx silence while the gap tracker is armed
  bool track_gaps = false;
  FF_CHECK(rig.net_b->sock_listen(5000, [&](core::FlowSocketPtr s) {
    server = s;
    s->set_on_data([&](Buffer&& b) {
      received += b.size();
      const SimTime now = cluster.loop().now();
      if (track_gaps && now - last_rx > max_gap) max_gap = now - last_rx;
      last_rx = now;
    });
  }).is_ok());
  rig.net_a->sock_connect(rig.b->ip(), 5000, [&](Result<core::FlowSocketPtr> s) {
    FF_CHECK(s.is_ok());
    client = *s;
  });
  FF_CHECK(spin(cluster, [&]() { return client && server; }, 10 * k_second));
  FF_CHECK(client->transport() == from);

  auto pump = std::make_shared<std::function<void()>>();
  core::FlowSocket* raw = client.get();
  *pump = [raw]() {
    while (raw->writable()) FF_CHECK(raw->send(Buffer(1 << 20)).is_ok());
  };
  client->set_on_space([pump]() { (*pump)(); });
  (*pump)();

  // Baseline on the primary transport.
  const SimTime t0 = cluster.loop().now();
  const std::uint64_t bytes0 = received;
  cluster.loop().run_until(t0 + k_window);
  r.baseline_gbps = throughput_gbps(received - bytes0, k_window);

  // Kill the primary on the remote host mid-transfer. The blackout is the
  // longest receiver silence from the fault until the fallback window ends
  // (detection + re-decision + trunk setup + retransmit of the lost tail).
  last_rx = cluster.loop().now();
  max_gap = 0;
  track_gaps = true;
  injector.apply({cluster.loop().now(), kill, 1});
  FF_CHECK(spin(cluster, [&]() { return client->transport() == to; }, 10 * k_second));

  const SimTime t1 = cluster.loop().now();
  const std::uint64_t bytes1 = received;
  cluster.loop().run_until(t1 + k_window);
  r.fallback_gbps = throughput_gbps(received - bytes1, k_window);
  track_gaps = false;
  r.blackout_ms = static_cast<double>(max_gap) / static_cast<double>(k_millisecond);

  // Heal and expect the conduit to climb back onto the primary.
  injector.apply({cluster.loop().now(), heal, 1});
  r.recovered =
      spin(cluster, [&]() { return client->transport() == from; }, 10 * k_second);

  // connections() reads the client conduits' own counts; the --json
  // telemetry snapshot carries their host-level families.
  const auto& metrics = cluster.telemetry().metrics();
  for (const auto& info : rig.net_a->connections()) {
    r.retransmits += info.retransmits;
    r.conduit_blackout_ms += static_cast<double>(info.blackout_ns) /
                             static_cast<double>(k_millisecond);
  }
  r.telemetry_snapshot = metrics.snapshot_json();
  if (!trace_path.empty()) {
    if (cluster.telemetry().tracer().export_to_file(trace_path)) {
      std::printf("chrome trace: %s (%zu events)\n", trace_path.c_str(),
                  cluster.telemetry().tracer().size());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
    }
  }

  std::printf("%-16s %10.1f %12.3f %12.1f %10s\n", label, r.baseline_gbps,
              r.blackout_ms, r.fallback_gbps, r.recovered ? "yes" : "NO");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Transport failover: blackout and goodput per edge",
         "fault-tolerance extension (orchestrator-driven failover)");
  JsonReport json(argc, argv, "failover");
  // --trace PATH: Chrome-trace export of the first kill-rdma edge (fault
  // markers, mark_stale -> rebind -> retransmit -> re-upgrade timeline).
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  // Blackouts legitimately drop packets and retry re-binds; the warn spam
  // is the fault model working, not a problem worth 100 lines of output.
  set_log_level(LogLevel::error);

  std::printf("%-16s %10s %12s %12s %10s\n", "edge", "base Gb/s", "blackout ms",
              "fallbk Gb/s", "recovered");

  fabric::NicCapabilities no_dpdk;
  no_dpdk.dpdk = false;
  fabric::NicCapabilities no_rdma;
  no_rdma.rdma = false;
  const struct {
    const char* label;
    fabric::NicCapabilities caps;
    orch::Transport from, to;
    faults::FaultKind kill, heal;
  } edges[] = {
      {"rdma->tcp_host", no_dpdk, orch::Transport::rdma, orch::Transport::tcp_host,
       faults::FaultKind::rdma_down, faults::FaultKind::rdma_up},
      {"rdma->dpdk", {}, orch::Transport::rdma, orch::Transport::dpdk,
       faults::FaultKind::rdma_down, faults::FaultKind::rdma_up},
      {"dpdk->tcp_host", no_rdma, orch::Transport::dpdk, orch::Transport::tcp_host,
       faults::FaultKind::dpdk_down, faults::FaultKind::dpdk_up},
  };
  for (const auto& e : edges) {
    const bool want_trace = !trace_path.empty() && e.kill == faults::FaultKind::rdma_down;
    const EdgeResult r =
        run_edge(e.label, e.caps, e.from, e.to, e.kill, e.heal,
                 want_trace ? trace_path : std::string());
    if (want_trace) trace_path.clear();  // one export: the first rdma kill
    std::string key(e.label);
    key.replace(key.find("->"), 2, "_to_");
    json.add(key + "_baseline_gbps", r.baseline_gbps);
    json.add(key + "_blackout_ms", r.blackout_ms);
    json.add(key + "_fallback_gbps", r.fallback_gbps);
    json.add(key + "_recovered", r.recovered ? 1 : 0);
    json.add(key + "_retransmits", static_cast<double>(r.retransmits));
    json.add(key + "_conduit_blackout_ms", r.conduit_blackout_ms);
    json.add_raw("telemetry_" + key, r.telemetry_snapshot);
  }

  footer();
  std::printf("blackout = longest receiver silence after the kill: detection,\n"
              "re-decision against the orchestrator's health map, fallback trunk\n"
              "setup and the retransmit of the lost in-flight tail.\n");
  return 0;
}
