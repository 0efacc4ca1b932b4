#include "workloads/drivers.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "core/socket.h"
#include "rdma/cm.h"

namespace freeflow::workloads {

namespace {

void run_to(fabric::Cluster& cluster, SimTime deadline) {
  cluster.loop().run_until(deadline);
}

bool spin_until(fabric::Cluster& cluster, const std::function<bool()>& pred,
                SimDuration budget) {
  const SimTime deadline = cluster.loop().now() + budget;
  for (;;) {
    if (pred()) return true;
    if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
  }
}

SimDuration median(std::vector<SimDuration> samples) {
  FF_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

constexpr SimDuration k_warmup = 5 * k_millisecond;

/// The closed-loop stream drivers' common tail: warms up, then measures the
/// growth of `rx_bytes` and every host's CPU, NIC-processor and memory-bus
/// utilization over `window`.
ThroughputReport measure(fabric::Cluster& cluster, const std::uint64_t& rx_bytes,
                         SimDuration window) {
  run_to(cluster, cluster.loop().now() + k_warmup);
  const std::size_t hosts = cluster.host_count();
  for (std::size_t h = 0; h < hosts; ++h) {
    auto& host = cluster.host(static_cast<fabric::HostId>(h));
    host.cpu().mark();
    host.nic().processor().mark();
    host.membus().mark();
  }
  const std::uint64_t start_bytes = rx_bytes;
  const SimTime start = cluster.loop().now();
  run_to(cluster, start + window);

  ThroughputReport report;
  report.bytes = rx_bytes - start_bytes;
  report.window = cluster.loop().now() - start;
  report.goodput_gbps = throughput_gbps(report.bytes, report.window);
  for (std::size_t h = 0; h < hosts; ++h) {
    auto& host = cluster.host(static_cast<fabric::HostId>(h));
    report.host_cpu_cores += host.cpu().cores_busy_since_mark();
    report.nic_proc_util =
        std::max(report.nic_proc_util, host.nic().processor().utilization_since_mark());
    report.membus_util = std::max(report.membus_util, host.membus().utilization_since_mark());
  }
  return report;
}

}  // namespace

// ------------------------------------------------------------- TCP stream

ThroughputReport drive_tcp_stream(
    fabric::Cluster& cluster, tcp::TcpNetwork& net,
    const std::vector<std::pair<tcp::Endpoint, tcp::Endpoint>>& pairs,
    std::size_t msg_bytes, SimDuration window) {
  auto rx_bytes = std::make_shared<std::uint64_t>(0);
  std::vector<tcp::TcpConnection::Ptr> senders;

  std::uint16_t port_salt = 0;
  for (const auto& [src, dst] : pairs) {
    tcp::Endpoint listen_at = dst;
    listen_at.port = static_cast<std::uint16_t>(dst.port + port_salt++);
    const Status listening = net.listen(listen_at, [rx_bytes](tcp::TcpConnection::Ptr c) {
      c->set_on_data([rx_bytes](Buffer&& b) { *rx_bytes += b.size(); });
    });
    FF_CHECK(listening.is_ok());
    net.connect(src, listen_at, [&senders](Result<tcp::TcpConnection::Ptr> c) {
      FF_CHECK(c.is_ok());
      senders.push_back(*c);
    });
  }
  FF_CHECK(spin_until(cluster, [&]() { return senders.size() == pairs.size(); },
                      10 * k_second));

  // Closed-loop: keep each send buffer full.
  for (auto& conn : senders) {
    // The connection's on_writable owns the pump; the pump must not own
    // itself (or the connection) or the trio never frees.
    auto pump = std::make_shared<std::function<void()>>();
    tcp::TcpConnection* raw = conn.get();
    *pump = [raw, msg_bytes]() {
      while (raw->send(Buffer(msg_bytes)).is_ok()) {
      }
    };
    conn->set_on_writable([pump]() { (*pump)(); });
    (*pump)();
  }

  return measure(cluster, *rx_bytes, window);
}

SimDuration tcp_rtt(fabric::Cluster& cluster, tcp::TcpNetwork& net, tcp::Endpoint src,
                    tcp::Endpoint dst, std::size_t msg_bytes, int iters) {
  tcp::TcpConnection::Ptr client;
  const Status listening = net.listen(dst, [msg_bytes](tcp::TcpConnection::Ptr c) {
    auto pending = std::make_shared<std::size_t>(0);
    tcp::TcpConnection* raw = c.get();
    c->set_on_data([raw, pending, msg_bytes](Buffer&& b) {
      *pending += b.size();
      while (*pending >= msg_bytes) {
        *pending -= msg_bytes;
        FF_CHECK(raw->send(Buffer(msg_bytes)).is_ok());
      }
    });
  });
  FF_CHECK(listening.is_ok());
  net.connect(src, dst, [&client](Result<tcp::TcpConnection::Ptr> c) {
    FF_CHECK(c.is_ok());
    client = *c;
  });
  FF_CHECK(spin_until(cluster, [&]() { return client != nullptr; }, 10 * k_second));

  std::vector<SimDuration> samples;
  auto got = std::make_shared<std::size_t>(0);
  client->set_on_data([got](Buffer&& b) { *got += b.size(); });
  for (int i = 0; i < iters; ++i) {
    *got = 0;
    const SimTime t0 = cluster.loop().now();
    FF_CHECK(client->send(Buffer(msg_bytes)).is_ok());
    FF_CHECK(spin_until(cluster, [&]() { return *got >= msg_bytes; }, 10 * k_second));
    samples.push_back(cluster.loop().now() - t0);
  }
  return median(std::move(samples));
}

// ------------------------------------------------------------- shm stream

ThroughputReport drive_shm_stream(fabric::Cluster& cluster, fabric::HostId host_id,
                                  int pairs, std::size_t msg_bytes, SimDuration window) {
  auto& host = cluster.host(host_id);
  auto rx_bytes = std::make_shared<std::uint64_t>(0);
  std::vector<std::unique_ptr<shm::ShmLane>> lanes;
  for (int p = 0; p < pairs; ++p) {
    auto lane = std::make_unique<shm::ShmLane>(host, 8 * msg_bytes + 4096);
    shm::ShmLane* raw = lane.get();
    lane->set_receiver([rx_bytes](Message&& m) { *rx_bytes += m.size(); });
    auto refill = [raw, msg_bytes]() {
      while (raw->can_send(msg_bytes)) raw->send(Buffer(msg_bytes));
    };
    lane->set_on_space(refill);
    refill();
    lanes.push_back(std::move(lane));
  }

  const ThroughputReport report = measure(cluster, *rx_bytes, window);

  // Quiesce before the lanes die: stop refilling and drain in-flight
  // deliveries so no event still references a destroyed lane.
  for (auto& lane : lanes) lane->set_on_space(nullptr);
  run_to(cluster, cluster.loop().now() + 20 * k_millisecond);
  for (auto& lane : lanes) FF_CHECK(lane->empty());
  return report;
}

SimDuration shm_rtt(fabric::Cluster& cluster, fabric::HostId host_id,
                    std::size_t msg_bytes, int iters) {
  auto& host = cluster.host(host_id);
  shm::ShmLane forth(host, 16 * (msg_bytes + 64));
  shm::ShmLane back(host, 16 * (msg_bytes + 64));
  back.set_receiver([](Message&&) {});
  forth.set_receiver([&back](Message&& m) { back.send(std::move(m)); });

  std::vector<SimDuration> samples;
  for (int i = 0; i < iters; ++i) {
    bool done = false;
    back.set_receiver([&done](Message&&) { done = true; });
    const SimTime t0 = cluster.loop().now();
    forth.send(Buffer(msg_bytes));
    FF_CHECK(spin_until(cluster, [&]() { return done; }, k_second));
    samples.push_back(cluster.loop().now() - t0);
  }
  return median(std::move(samples));
}

// ------------------------------------------------------------ RDMA stream

ThroughputReport drive_rdma_stream(fabric::Cluster& cluster, rdma::RdmaDevice& src_dev,
                                   rdma::RdmaDevice& dst_dev, int pairs,
                                   std::size_t msg_bytes, SimDuration window) {
  auto rx_bytes = std::make_shared<std::uint64_t>(0);

  struct Flow {
    std::shared_ptr<rdma::QueuePair> qa, qb;
    rdma::MrPtr src, dst;
    int inflight = 0;
  };
  std::vector<std::shared_ptr<Flow>> flows;

  for (int p = 0; p < pairs; ++p) {
    auto flow = std::make_shared<Flow>();
    flow->qa = src_dev.create_qp(src_dev.create_cq(), src_dev.create_cq());
    flow->qb = dst_dev.create_qp(dst_dev.create_cq(), dst_dev.create_cq());
    FF_CHECK(rdma::connect_pair(*flow->qa, *flow->qb).is_ok());
    flow->src = src_dev.reg_mr(msg_bytes);
    flow->dst = dst_dev.reg_mr(msg_bytes);
    // MRs start uninitialised; the flow sends its source as it is.
    std::ranges::fill(flow->src->data().mutable_view(), std::byte{0});

    // The notify hook is stored on qa's send CQ, which qa owns: capturing
    // the flow (which owns qa) strongly there would cycle. Weak captures
    // make the hook a no-op once the flow itself is gone.
    auto pump = std::make_shared<std::function<void()>>();
    *pump = [wflow = std::weak_ptr<Flow>(flow), msg_bytes]() {
      auto f = wflow.lock();
      if (!f) return;
      while (f->inflight < 8) {
        rdma::SendWr wr;
        wr.opcode = rdma::Opcode::write;
        wr.local = {f->src, 0, msg_bytes};
        wr.remote = {f->dst->rkey(), 0};
        FF_CHECK(f->qa->post_send(wr).is_ok());
        ++f->inflight;
      }
    };
    flow->qa->send_cq()->set_notify(
        [wflow = std::weak_ptr<Flow>(flow), pump, rx_bytes, msg_bytes]() {
          auto f = wflow.lock();
          if (!f) return;
          rdma::WorkCompletion wc;
          while (f->qa->send_cq()->poll({&wc, 1}) == 1) {
            --f->inflight;
            *rx_bytes += msg_bytes;
          }
          (*pump)();
        });
    (*pump)();
    flows.push_back(flow);
  }

  return measure(cluster, *rx_bytes, window);
}

SimDuration rdma_rtt(fabric::Cluster& cluster, rdma::RdmaDevice& a, rdma::RdmaDevice& b,
                     std::size_t msg_bytes, int iters) {
  auto qa = a.create_qp(a.create_cq(), a.create_cq());
  auto qb = b.create_qp(b.create_cq(), b.create_cq());
  FF_CHECK(rdma::connect_pair(*qa, *qb).is_ok());
  auto mra = a.reg_mr(msg_bytes);
  auto mrb = b.reg_mr(msg_bytes);
  // MRs start uninitialised; the ping sends its buffer as it is.
  std::ranges::fill(mra->data().mutable_view(), std::byte{0});

  // Echo server: on recv completion, send back. The hook lives on qb's own
  // recv CQ, so it must observe qb weakly or the QP never frees.
  auto repost_b = [mrb, msg_bytes](rdma::QueuePair& qp) {
    rdma::RecvWr r;
    r.local = {mrb, 0, msg_bytes};
    FF_CHECK(qp.post_recv(r).is_ok());
  };
  repost_b(*qb);
  qb->recv_cq()->set_notify(
      [wqb = std::weak_ptr<rdma::QueuePair>(qb), mrb, msg_bytes, repost_b]() {
        auto q = wqb.lock();
        if (!q) return;
        rdma::WorkCompletion wc;
        while (q->recv_cq()->poll({&wc, 1}) == 1) {
          repost_b(*q);
          rdma::SendWr s;
          s.local = {mrb, 0, msg_bytes};
          FF_CHECK(q->post_send(s).is_ok());
        }
      });

  std::vector<SimDuration> samples;
  for (int i = 0; i < iters; ++i) {
    bool done = false;
    rdma::RecvWr r;
    r.local = {mra, 0, msg_bytes};
    FF_CHECK(qa->post_recv(r).is_ok());
    qa->recv_cq()->set_notify([&]() {
      rdma::WorkCompletion wc;
      while (qa->recv_cq()->poll({&wc, 1}) == 1) done = true;
    });
    const SimTime t0 = cluster.loop().now();
    rdma::SendWr s;
    s.local = {mra, 0, msg_bytes};
    FF_CHECK(qa->post_send(s).is_ok());
    FF_CHECK(spin_until(cluster, [&]() { return done; }, 10 * k_second));
    samples.push_back(cluster.loop().now() - t0);
  }
  return median(std::move(samples));
}

// -------------------------------------------------------- FreeFlow stream

namespace {
core::FlowSocketPtr open_ff_socket(fabric::Cluster& cluster, core::ContainerNetPtr from,
                                   core::ContainerNetPtr to, tcp::Ipv4Addr to_ip,
                                   std::uint16_t port,
                                   std::function<void(core::FlowSocketPtr)> on_server) {
  core::FlowSocketPtr client;
  FF_CHECK(to->sock_listen(port, std::move(on_server)).is_ok());
  from->sock_connect(to_ip, port, [&client](Result<core::FlowSocketPtr> s) {
    FF_CHECK(s.is_ok());
    client = *s;
  });
  FF_CHECK(spin_until(cluster, [&]() { return client != nullptr; }, 10 * k_second));
  return client;
}
}  // namespace

ThroughputReport drive_freeflow_stream(fabric::Cluster& cluster,
                                       core::ContainerNetPtr from,
                                       core::ContainerNetPtr to, tcp::Ipv4Addr to_ip,
                                       std::uint16_t port, std::size_t msg_bytes,
                                       SimDuration window) {
  auto rx_bytes = std::make_shared<std::uint64_t>(0);
  core::FlowSocketPtr client =
      open_ff_socket(cluster, from, to, to_ip, port, [rx_bytes](core::FlowSocketPtr s) {
        auto held = std::make_shared<core::FlowSocketPtr>(s);
        s->set_on_data([rx_bytes, held](Buffer&& b) { *rx_bytes += b.size(); });
      });

  // Pace on the conduit's writability so memory stays bounded. The pump
  // owns the socket (shared_ptr capture) so later loop activity is safe.
  auto stopped = std::make_shared<bool>(false);
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [client, msg_bytes, stopped]() {
    if (*stopped) return;
    while (client->writable()) {
      FF_CHECK(client->send(Buffer(msg_bytes)).is_ok());
    }
  };
  client->set_on_space([pump]() { (*pump)(); });
  (*pump)();

  const ThroughputReport report = measure(cluster, *rx_bytes, window);
  *stopped = true;  // quiesce the pump; the socket stays alive in it
  return report;
}

SimDuration freeflow_rtt(fabric::Cluster& cluster, core::ContainerNetPtr from,
                         core::ContainerNetPtr to, tcp::Ipv4Addr to_ip,
                         std::uint16_t port, std::size_t msg_bytes, int iters) {
  core::FlowSocketPtr client =
      open_ff_socket(cluster, from, to, to_ip, port, [msg_bytes](core::FlowSocketPtr s) {
        auto held = std::make_shared<core::FlowSocketPtr>(s);
        auto pending = std::make_shared<std::size_t>(0);
        s->set_on_data([held, pending, msg_bytes](Buffer&& b) {
          *pending += b.size();
          while (*pending >= msg_bytes) {
            *pending -= msg_bytes;
            FF_CHECK((*held)->send(Buffer(msg_bytes)).is_ok());
          }
        });
      });

  std::vector<SimDuration> samples;
  auto got = std::make_shared<std::size_t>(0);
  client->set_on_data([got](Buffer&& b) { *got += b.size(); });
  for (int i = 0; i < iters; ++i) {
    *got = 0;
    const SimTime t0 = cluster.loop().now();
    FF_CHECK(client->send(Buffer(msg_bytes)).is_ok());
    FF_CHECK(spin_until(cluster, [&]() { return *got >= msg_bytes; }, 10 * k_second));
    samples.push_back(cluster.loop().now() - t0);
  }
  return median(std::move(samples));
}

}  // namespace freeflow::workloads
