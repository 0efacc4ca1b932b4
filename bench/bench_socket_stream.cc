// Socket-over-RDMA (TSoR): unmodified socket apps on the per_stream_qp
// connection path, whose byte stream rides a per-stream RC QP. Three
// comparisons frame the win and its cost, plus a fault phase that proves
// the transparency claim:
//   echo     socket RTT over the per-stream QP vs the native overlay stack
//   bulk     per-stream QP goodput vs native overlay TCP vs raw RDMA verbs
//   failover a fixed pattern-checked transfer survives kill-rdma + heal
//            (fallback + re-upgrade) with zero lost or reordered bytes
#include "bench_common.h"

#include "common/logging.h"
#include "faults/fault_injector.h"

using namespace freeflow;
using namespace freeflow::bench;
using namespace freeflow::workloads;

namespace {

// Bulk compares all three modes at a realistic socket send size: 16 KiB is
// where the overlay's per-send CPU work (syscall + hairpin) dominates and
// the per-stream QP's kernel-bypass win shows; the failover transfer uses larger
// chunks purely to keep the pattern-checked volume cheap to generate.
constexpr std::size_t k_bulk_msg = 16 * 1024;
constexpr std::size_t k_msg = 64 * 1024;
constexpr SimDuration k_window = 20 * k_millisecond;

constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131 + 17) & 0xFF);
}

bool spin(fabric::Cluster& cluster, const std::function<bool()>& pred,
          SimDuration budget) {
  const SimTime deadline = cluster.loop().now() + budget;
  for (;;) {
    if (pred()) return true;
    if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
  }
}

/// A FreeFlow pair with one established (and, unless the selector refuses,
/// upgraded) per_stream_qp socket.
struct StreamRig {
  explicit StreamRig(fabric::NicCapabilities caps = {})
      : rig(/*inter_host=*/true, {}, caps) {}

  /// Opens client->server on `port`; spins until both ends exist.
  void open(std::uint16_t port, std::function<void(Buffer&&)> on_server_data) {
    FF_CHECK(rig.net_b->sock_listen(port, [this, cb = std::move(on_server_data)](
                                              core::FlowSocketPtr s) mutable {
      server = s;
      s->set_on_data(std::move(cb));
    }).is_ok());
    rig.net_a->sock_connect(
        rig.b->ip(), port,
        [this](Result<core::FlowSocketPtr> s) {
          FF_CHECK(s.is_ok());
          client = *s;
        },
        core::SockPath::per_stream_qp);
    FF_CHECK(spin(rig.env.cluster, [&]() { return client && server; }, 10 * k_second));
  }

  void await_rdma() {
    FF_CHECK(spin(rig.env.cluster,
                  [&]() { return client->transport() == orch::Transport::rdma; },
                  10 * k_second));
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return rig.env.cluster.telemetry().metrics().counter_value(name);
  }

  FreeFlowRig rig;
  core::FlowSocketPtr client, server;
};

// ------------------------------------------------------------------ echo

double stream_echo_rtt_us() {
  StreamRig r;
  std::uint64_t received = 0;
  r.open(6000, [&](Buffer&& b) {
    received += b.size();
    FF_CHECK(r.server->send(std::move(b)).is_ok());
  });
  r.await_rdma();

  auto& loop = r.rig.env.cluster.loop();
  std::vector<SimDuration> rtts;
  std::uint64_t back = 0;
  r.client->set_on_data([&](Buffer&& b) { back += b.size(); });
  for (int i = 0; i < 63; ++i) {
    const SimTime t0 = loop.now();
    const std::uint64_t want = back + 4096;
    FF_CHECK(r.client->send(Buffer(4096)).is_ok());
    FF_CHECK(spin(r.rig.env.cluster, [&]() { return back >= want; }, 1 * k_second));
    rtts.push_back(loop.now() - t0);
  }
  std::sort(rtts.begin(), rtts.end());
  return static_cast<double>(rtts[rtts.size() / 2]) / 1e3;
}

double overlay_echo_rtt_us() {
  OverlayRig rig(2, 1, /*inter_host=*/true);
  const auto [src, dst] = rig.endpoints[0];
  return static_cast<double>(
             tcp_rtt(rig.env.cluster, *rig.net, src, dst, 4096, 63)) /
         1e3;
}

// ------------------------------------------------------------------ bulk

double stream_bulk_gbps() {
  StreamRig r;
  std::uint64_t received = 0;
  r.open(6001, [&](Buffer&& b) { received += b.size(); });
  r.await_rdma();

  auto& cluster = r.rig.env.cluster;
  auto pump = std::make_shared<std::function<void()>>();
  core::FlowSocket* raw = r.client.get();
  *pump = [raw]() {
    while (raw->writable()) FF_CHECK(raw->send(Buffer(k_bulk_msg)).is_ok());
  };
  r.client->set_on_space([pump]() { (*pump)(); });
  (*pump)();

  // Warm up, then measure a fixed sim-clock window.
  cluster.loop().run_until(cluster.loop().now() + 2 * k_millisecond);
  const std::uint64_t bytes0 = received;
  const SimTime t0 = cluster.loop().now();
  cluster.loop().run_until(t0 + k_window);
  return throughput_gbps(received - bytes0, k_window);
}

double native_tcp_gbps() {
  OverlayRig rig(2, 1, /*inter_host=*/true);
  return drive_tcp_stream(rig.env.cluster, *rig.net, rig.endpoints, k_bulk_msg,
                          k_window)
      .goodput_gbps;
}

double raw_rdma_gbps() {
  fabric::Cluster cluster;
  cluster.add_hosts(2);
  rdma::RdmaDevice a(cluster.host(0)), b(cluster.host(1));
  return drive_rdma_stream(cluster, a, b, 1, k_bulk_msg, k_window).goodput_gbps;
}

// -------------------------------------------------------------- failover

struct FailoverResult {
  std::uint64_t target = 0;
  std::uint64_t verified = 0;       ///< in-order, pattern-correct bytes
  std::uint64_t mismatches = 0;     ///< pattern violations (loss/reorder/dup)
  std::uint64_t fallbacks = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t bytes_rdma = 0;     ///< receiver bytes that arrived via RC QP
  std::uint64_t bytes_tcp = 0;      ///< receiver bytes via the fallback
  bool completed = false;
};

FailoverResult run_failover(const std::string& trace_path) {
  FailoverResult res;
  res.target = 48ull * 1024 * 1024;
  StreamRig r;
  auto& cluster = r.rig.env.cluster;
  faults::FaultInjector injector(*r.rig.env.net_orch, r.rig.env.ff->agents());

  r.open(6002, [&](Buffer&& b) {
    const auto* bytes = b.view().data();
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(res.verified + i)) {
        ++res.mismatches;
      }
    }
    res.verified += b.size();
    // The channel attached now is the one that just delivered the chunk.
    (r.server->transport() == orch::Transport::rdma ? res.bytes_rdma : res.bytes_tcp) +=
        b.size();
  });
  r.await_rdma();

  std::uint64_t sent = 0;
  auto pump = std::make_shared<std::function<void()>>();
  core::FlowSocket* raw = r.client.get();
  *pump = [&, raw]() {
    while (sent < res.target && raw->writable()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(k_msg, res.target - sent));
      Buffer msg(n);
      for (std::size_t i = 0; i < n; ++i) {
        msg.data()[i] = static_cast<std::byte>(pattern_byte(sent + i));
      }
      FF_CHECK(raw->send(std::move(msg)).is_ok());
      sent += n;
    }
  };
  r.client->set_on_space([pump]() { (*pump)(); });
  (*pump)();

  // Kill the RDMA engine under the remote end a third of the way in, heal
  // it once the fallback carries the stream, and let the re-upgraded QP
  // finish the transfer.
  FF_CHECK(spin(cluster, [&]() { return res.verified > res.target / 3; }, 30 * k_second));
  injector.apply({cluster.loop().now(), faults::FaultKind::rdma_down, 1});
  FF_CHECK(spin(cluster,
                [&]() { return r.client->transport() != orch::Transport::rdma; },
                30 * k_second));
  FF_CHECK(spin(cluster, [&]() { return res.verified > res.target / 2; }, 30 * k_second));
  injector.apply({cluster.loop().now(), faults::FaultKind::rdma_up, 1});

  res.completed = spin(
      cluster,
      [&]() {
        return res.verified >= res.target &&
               r.client->transport() == orch::Transport::rdma;
      },
      60 * k_second);
  res.fallbacks = r.counter("stream/fallbacks");
  res.upgrades = r.counter("stream/upgrades");

  if (!trace_path.empty()) {
    auto& tracer = cluster.telemetry().tracer();
    if (tracer.export_to_file(trace_path)) {
      std::printf("chrome trace: %s (%zu events)\n", trace_path.c_str(),
                  tracer.size());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Socket-over-RDMA (per_stream_qp sockets): RTT, goodput, failover",
         "TSoR-style transparent socket acceleration (FreeFlow socket API)");
  JsonReport json(argc, argv, "socket_stream");
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }
  // The failover phase legitimately drops RDMA chunks on the floor; silence
  // the per-chunk warn spam like bench_failover does.
  set_log_level(LogLevel::error);

  const double stream_rtt = stream_echo_rtt_us();
  const double tcp_rtt_us = overlay_echo_rtt_us();
  std::printf("%-34s %10.2f us\n", "echo RTT  stream-over-rdma", stream_rtt);
  std::printf("%-34s %10.2f us\n", "echo RTT  native overlay tcp", tcp_rtt_us);
  json.add("stream_rtt_us", stream_rtt);
  json.add("tcp_rtt_us", tcp_rtt_us);

  const double stream_gbps = stream_bulk_gbps();
  const double tcp_gbps = native_tcp_gbps();
  const double rdma_gbps = raw_rdma_gbps();
  std::printf("%-34s %10.1f Gb/s\n", "bulk      stream-over-rdma", stream_gbps);
  std::printf("%-34s %10.1f Gb/s\n", "bulk      native overlay tcp", tcp_gbps);
  std::printf("%-34s %10.1f Gb/s\n", "bulk      raw rdma verbs", rdma_gbps);
  json.add("stream_goodput_gbps", stream_gbps);
  json.add("native_tcp_gbps", tcp_gbps);
  json.add("raw_rdma_gbps", rdma_gbps);
  json.add("speedup_vs_tcp", tcp_gbps > 0 ? stream_gbps / tcp_gbps : 0);

  const FailoverResult f = run_failover(trace_path);
  const std::uint64_t lost =
      f.verified >= f.target ? 0 : f.target - f.verified;
  std::printf("%-34s %10s   (%.0f MB: %llu lost, %llu mismatched, "
              "%llu fallbacks, %llu upgrades)\n",
              "failover  kill-rdma + heal", f.completed ? "ok" : "FAILED",
              static_cast<double>(f.target) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(f.mismatches),
              static_cast<unsigned long long>(f.fallbacks),
              static_cast<unsigned long long>(f.upgrades));
  json.add("failover_transfer_mb",
           static_cast<double>(f.target) / (1024.0 * 1024.0));
  json.add("failover_completed", f.completed ? 1 : 0);
  json.add("failover_lost_bytes", static_cast<double>(lost));
  json.add("failover_pattern_mismatches", static_cast<double>(f.mismatches));
  json.add("failover_fallbacks", static_cast<double>(f.fallbacks));
  json.add("failover_upgrades", static_cast<double>(f.upgrades));
  json.add("failover_bytes_rdma", static_cast<double>(f.bytes_rdma));
  json.add("failover_bytes_tcp", static_cast<double>(f.bytes_tcp));

  footer();
  std::printf("the library terminates the socket locally and carries the byte\n"
              "stream over a per-stream RC QP; the failover row is the paper's\n"
              "transparency claim under fault: zero loss, zero reordering.\n");
  return 0;
}
