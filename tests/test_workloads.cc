#include <gtest/gtest.h>

#include "sim_env.h"
#include "workloads/gateway.h"
#include "workloads/kv_store.h"
#include "workloads/param_server.h"
#include "workloads/drivers.h"
#include "workloads/shuffle.h"

namespace freeflow::workloads {
namespace {

using freeflow::testing::Env;

struct WorkloadFixture : ::testing::Test {
  static std::pair<StreamPtr, StreamPtr> freeflow_stream_pair(
      Env& env, core::ContainerNetPtr from, core::ContainerNetPtr to,
      tcp::Ipv4Addr to_ip, std::uint16_t port) {
    core::FlowSocketPtr client, server;
    EXPECT_TRUE(to->sock_listen(port, [&](core::FlowSocketPtr s) { server = s; }).is_ok());
    from->sock_connect(to_ip, port, [&](Result<core::FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok()) << s.status();
      client = *s;
    });
    EXPECT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
    return {std::make_shared<SocketStream>(client),
            std::make_shared<SocketStream>(server)};
  }
};

TEST_F(WorkloadFixture, RecordStreamFramesAcrossChunkBoundaries) {
  Env env(1);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto na = env.freeflow().attach(a->id()).value();
  auto nb = env.freeflow().attach(b->id()).value();
  auto [cs, ss] = freeflow_stream_pair(env, na, nb, b->ip(), 6000);

  std::vector<std::size_t> sizes;
  RecordStream server_rs(ss, [&](ByteSpan rec) { sizes.push_back(rec.size()); });
  RecordStream client_rs(cs, [](ByteSpan) {});

  // Records straddling the 64 KiB socket chunking.
  ASSERT_TRUE(client_rs.send_record(Buffer(10).view()).is_ok());
  ASSERT_TRUE(client_rs.send_record(Buffer(100000).view()).is_ok());
  ASSERT_TRUE(client_rs.send_record(Buffer(0).view()).is_ok());
  ASSERT_TRUE(client_rs.send_record(Buffer(65536).view()).is_ok());
  EXPECT_TRUE(env.wait([&]() { return sizes.size() == 4; }, 30 * k_second));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{10, 100000, 0, 65536}));
}

TEST_F(WorkloadFixture, KvPutGetRoundTrip) {
  Env env(2);
  auto server_c = env.deploy("kv-server", 1, 0);
  auto client_c = env.deploy("kv-client", 1, 1);
  auto ns = env.freeflow().attach(server_c->id()).value();
  auto nc = env.freeflow().attach(client_c->id()).value();

  KvServer kv;
  ASSERT_TRUE(ns->sock_listen(7000, [&](core::FlowSocketPtr s) {
    kv.serve(std::make_shared<SocketStream>(s));
  }).is_ok());

  std::shared_ptr<KvClient> client;
  nc->sock_connect(server_c->ip(), 7000, [&](Result<core::FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok());
    client = std::make_shared<KvClient>(std::make_shared<SocketStream>(*s));
    client->set_clock([&env]() { return env.loop().now(); });
  });
  ASSERT_TRUE(env.wait([&]() { return client != nullptr; }));

  Buffer value(5000);
  fill_pattern(value.mutable_view(), 77);
  bool put_done = false;
  client->put("answer", value, [&](KvStatus st) {
    EXPECT_EQ(st, KvStatus::ok);
    put_done = true;
  });
  ASSERT_TRUE(env.wait([&]() { return put_done; }, 30 * k_second));

  Buffer got;
  KvStatus get_status = KvStatus::not_found;
  client->get("answer", [&](KvStatus st, Buffer&& v) {
    get_status = st;
    got = std::move(v);
  });
  ASSERT_TRUE(env.wait([&]() { return !got.empty(); }, 30 * k_second));
  EXPECT_EQ(get_status, KvStatus::ok);
  EXPECT_EQ(got.size(), 5000u);
  EXPECT_TRUE(check_pattern(got.view(), 77));

  bool missing_done = false;
  client->get("nope", [&](KvStatus st, Buffer&&) {
    EXPECT_EQ(st, KvStatus::not_found);
    missing_done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return missing_done; }, 30 * k_second));
  EXPECT_EQ(kv.requests_served(), 3u);
  EXPECT_EQ(client->completed(), 3u);
  EXPECT_GT(client->latency().mean(), 0.0);
}

TEST_F(WorkloadFixture, KvPipelinedRequestsAllComplete) {
  Env env(1);
  auto server_c = env.deploy("kv-server", 1, 0);
  auto client_c = env.deploy("kv-client", 1, 0);
  auto ns = env.freeflow().attach(server_c->id()).value();
  auto nc = env.freeflow().attach(client_c->id()).value();

  KvServer kv;
  ASSERT_TRUE(ns->sock_listen(7000, [&](core::FlowSocketPtr s) {
    kv.serve(std::make_shared<SocketStream>(s));
  }).is_ok());
  std::shared_ptr<KvClient> client;
  nc->sock_connect(server_c->ip(), 7000, [&](Result<core::FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok());
    client = std::make_shared<KvClient>(std::make_shared<SocketStream>(*s));
  });
  ASSERT_TRUE(env.wait([&]() { return client != nullptr; }));

  const int n = 200;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    client->put("k" + std::to_string(i), Buffer(128), [&](KvStatus) { ++done; });
  }
  EXPECT_TRUE(env.wait([&]() { return done == n; }, 60 * k_second));
  int verified = 0;
  for (int i = 0; i < n; ++i) {
    client->get("k" + std::to_string(i), [&](KvStatus st, Buffer&& v) {
      EXPECT_EQ(st, KvStatus::ok);
      EXPECT_EQ(v.size(), 128u);
      ++verified;
    });
  }
  EXPECT_TRUE(env.wait([&]() { return verified == n; }, 60 * k_second));
}

/// Runs `shuffle` to completion and checks every byte arrived.
void expect_shuffle_delivers(Env& env, Shuffle& shuffle) {
  SimDuration elapsed = 0;
  shuffle.run([&]() { return env.loop().now(); }, [&](Result<SimDuration> e) {
    ASSERT_TRUE(e.is_ok()) << e.status();
    elapsed = *e;
  });
  EXPECT_TRUE(env.wait([&]() { return elapsed != 0; }, 120 * k_second));
  EXPECT_EQ(shuffle.bytes_received_total(), shuffle.bytes_expected_total());
  EXPECT_GT(elapsed, 0);
}

// Two inputs: FreeFlow sockets (SocketStream) and the overlay baseline's
// kernel TCP (TcpStream), mappers on hosts 0-1 and reducers on hosts 2-3.
TEST_F(WorkloadFixture, ShuffleDeliversAllBytes) {
  Shuffle::Config cfg;
  cfg.mappers = 2;
  cfg.reducers = 2;
  cfg.bytes_per_flow = 2 * 1024 * 1024;

  {
    SCOPED_TRACE("TcpStream");
    Env env(4);
    std::vector<tcp::Ipv4Addr> mappers, reducers;
    for (int i = 0; i < cfg.mappers; ++i) {
      mappers.push_back(*env.overlay_net.add_container(static_cast<fabric::HostId>(i), nullptr));
    }
    for (int i = 0; i < cfg.reducers; ++i) {
      reducers.push_back(
          *env.overlay_net.add_container(static_cast<fabric::HostId>(2 + i), nullptr));
    }
    env.loop().run();  // the overlay converges
    tcp::TcpNetwork net(env.loop(), env.cluster.cost_model(), env.overlay_net.path_builder());
    Shuffle shuffle(cfg, [&](int m, int r, std::function<void(Result<StreamPtr>)> cb) {
      net.connect({mappers[static_cast<std::size_t>(m)], 0},
                  {reducers[static_cast<std::size_t>(r)], 8000},
                  [cb = std::move(cb)](Result<tcp::TcpConnection::Ptr> c) {
                    if (!c.is_ok()) {
                      cb(c.status());
                      return;
                    }
                    cb(StreamPtr(std::make_shared<TcpStream>(*c)));
                  });
    });
    auto sink = shuffle.reducer_sink();
    for (auto ip : reducers) {
      ASSERT_TRUE(net.listen({ip, 8000}, [sink](tcp::TcpConnection::Ptr c) {
        sink(std::make_shared<TcpStream>(c));
      }).is_ok());
    }
    expect_shuffle_delivers(env, shuffle);
  }

  SCOPED_TRACE("SocketStream");
  Env env(4);
  std::vector<orch::ContainerPtr> mappers, reducers;
  std::vector<core::ContainerNetPtr> mnets, rnets;
  for (int i = 0; i < cfg.mappers; ++i) {
    mappers.push_back(env.deploy("map" + std::to_string(i), 1,
                                 static_cast<fabric::HostId>(i)));
    mnets.push_back(env.freeflow().attach(mappers.back()->id()).value());
  }
  for (int i = 0; i < cfg.reducers; ++i) {
    reducers.push_back(env.deploy("red" + std::to_string(i), 1,
                                  static_cast<fabric::HostId>(2 + i)));
    rnets.push_back(env.freeflow().attach(reducers.back()->id()).value());
  }

  Shuffle shuffle(cfg, [&](int m, int r, std::function<void(Result<StreamPtr>)> cb) {
    mnets[static_cast<std::size_t>(m)]->sock_connect(
        reducers[static_cast<std::size_t>(r)]->ip(), 8000,
        [cb = std::move(cb)](Result<core::FlowSocketPtr> s) {
          if (!s.is_ok()) {
            cb(s.status());
            return;
          }
          cb(StreamPtr(std::make_shared<SocketStream>(*s)));
        });
  });
  auto sink = shuffle.reducer_sink();
  for (auto& rn : rnets) {
    ASSERT_TRUE(rn->sock_listen(8000, [sink](core::FlowSocketPtr s) {
      sink(std::make_shared<SocketStream>(s));
    }).is_ok());
  }
  expect_shuffle_delivers(env, shuffle);
}

// Two clients, one per response size, reach two backends: one co-located
// with the gateway, one remote behind a serial worker. Each flow is routed to
// its own backend, every response matches its request's id and size, and a
// client's close closes its session on both legs.
TEST_F(WorkloadFixture, GatewayRoutesAndRelaysAcrossBackends) {
  Env env(2);
  auto attach = [&](const std::string& name, fabric::HostId host) {
    return env.freeflow().attach(env.deploy(name, 1, host)->id()).value();
  };
  const GatewayConfig cfg;
  auto gw_net = attach("gw", 0);
  std::vector<std::unique_ptr<GatewayBackend>> backends;
  backends.push_back(std::make_unique<GatewayBackend>(attach("be0", 0)));
  backends.push_back(std::make_unique<GatewayBackend>(attach("be1", 1), 10 * k_microsecond));
  Gateway gateway(gw_net, cfg);
  for (auto& backend : backends) {
    ASSERT_TRUE(backend->start(cfg.backend_port).is_ok());
    gateway.add_backend(backend->net());
  }
  ASSERT_TRUE(gateway.start().is_ok());
  EXPECT_EQ(gateway.pool_size(), 2u);

  auto client_net = attach("client", 1);
  const std::size_t resp_bytes[] = {100, 64 * 1024};
  std::vector<std::unique_ptr<GatewayClient>> clients;
  for (const std::size_t resp : resp_bytes) {
    clients.push_back(std::make_unique<GatewayClient>(client_net, gw_net->ip(),
                                                      cfg.listen_port, 64, resp, 2));
    clients.back()->start();
  }
  ASSERT_TRUE(env.wait([&]() { return clients[0]->completed() >= 8 && clients[1]->completed() >= 8; }));
  for (auto& client : clients) client->stop();
  env.loop().run_for(5 * k_millisecond);  // in-flight requests complete

  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_FALSE(clients[i]->failed());
    // A response counts only when its id matches an outstanding request.
    EXPECT_EQ(clients[i]->response_bytes(), clients[i]->completed() * (8 + resp_bytes[i]));
  }
  EXPECT_GT(backends[0]->served(), 0u);
  EXPECT_GT(backends[1]->served(), 0u);
  EXPECT_EQ(backends[0]->served() + backends[1]->served(),
            clients[0]->completed() + clients[1]->completed());
  EXPECT_EQ(gateway.total_queue_depth(), 0u);

  clients.clear();  // each client closes its flow
  EXPECT_TRUE(env.wait([&]() { return gw_net->conduit_count() == 0; }));
}

TEST_F(WorkloadFixture, KvEdgeCases) {
  Env env(1);
  auto server_c = env.deploy("kv", 1, 0);
  auto client_c = env.deploy("cl", 1, 0);
  auto ns = env.freeflow().attach(server_c->id()).value();
  auto nc = env.freeflow().attach(client_c->id()).value();
  KvServer kv;
  ASSERT_TRUE(ns->sock_listen(7000, [&](core::FlowSocketPtr s) {
    kv.serve(std::make_shared<SocketStream>(s));
  }).is_ok());
  std::shared_ptr<KvClient> client;
  nc->sock_connect(server_c->ip(), 7000, [&](Result<core::FlowSocketPtr> s) {
    ASSERT_TRUE(s.is_ok());
    client = std::make_shared<KvClient>(std::make_shared<SocketStream>(*s));
  });
  ASSERT_TRUE(env.wait([&]() { return client != nullptr; }));

  // Empty value round-trips.
  bool empty_ok = false;
  client->put("empty", Buffer{}, [&](KvStatus st) { EXPECT_EQ(st, KvStatus::ok); });
  client->get("empty", [&](KvStatus st, Buffer&& v) {
    empty_ok = st == KvStatus::ok && v.empty();
  });
  EXPECT_TRUE(env.wait([&]() { return empty_ok; }, 30 * k_second));

  // Overwrite replaces the value.
  bool overwrote = false;
  client->put("k", Buffer::from_string("v1"), [](KvStatus) {});
  client->put("k", Buffer::from_string("v2-longer"), [](KvStatus) {});
  client->get("k", [&](KvStatus st, Buffer&& v) {
    overwrote = st == KvStatus::ok && v.to_string() == "v2-longer";
  });
  EXPECT_TRUE(env.wait([&]() { return overwrote; }, 30 * k_second));

  // Large value (spans several socket chunks).
  Buffer big(700000);
  fill_pattern(big.mutable_view(), 9);
  bool big_ok = false;
  client->put("big", big, [](KvStatus) {});
  client->get("big", [&](KvStatus st, Buffer&& v) {
    big_ok = st == KvStatus::ok && v.size() == 700000 && check_pattern(v.view(), 9);
  });
  EXPECT_TRUE(env.wait([&]() { return big_ok; }, 30 * k_second));
}

TEST_F(WorkloadFixture, KvWorksOverPlainTcpAdapter) {
  // The same KvServer/KvClient over the kernel stack (overlay baseline):
  // proof of the stream-adapter abstraction the benches rely on.
  fabric::Cluster cluster;
  cluster.add_hosts(2);
  overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
  overlay.attach_host(0);
  overlay.attach_host(1);
  auto a = overlay.add_container(0, nullptr);
  auto b = overlay.add_container(1, nullptr);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  cluster.loop().run();

  tcp::TcpNetwork net(cluster.loop(), cluster.cost_model(), overlay.path_builder());
  KvServer kv;
  ASSERT_TRUE(net.listen({*b, 7000}, [&](tcp::TcpConnection::Ptr c) {
    kv.serve(std::make_shared<TcpStream>(c));
  }).is_ok());
  std::shared_ptr<KvClient> client;
  net.connect({*a, 0}, {*b, 7000}, [&](Result<tcp::TcpConnection::Ptr> c) {
    ASSERT_TRUE(c.is_ok());
    client = std::make_shared<KvClient>(std::make_shared<TcpStream>(*c));
  });
  auto run = [&](const std::function<bool()>& pred) {
    const SimTime deadline = cluster.loop().now() + 30 * k_second;
    for (;;) {
      if (pred()) return true;
      if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
    }
  };
  ASSERT_TRUE(run([&]() { return client != nullptr; }));
  bool ok = false;
  client->put("x", Buffer::from_string("y"), [](KvStatus) {});
  client->get("x", [&](KvStatus st, Buffer&& v) {
    ok = st == KvStatus::ok && v.to_string() == "y";
  });
  EXPECT_TRUE(run([&]() { return ok; }));
}

TEST_F(WorkloadFixture, DriversReportFieldsAreConsistent) {
  fabric::Cluster cluster;
  cluster.add_hosts(1);
  auto r = drive_shm_stream(cluster, 0, 1, 1 << 20, 10 * k_millisecond);
  EXPECT_GT(r.bytes, 0u);
  EXPECT_GE(r.window, 10 * k_millisecond);
  EXPECT_NEAR(r.goodput_gbps,
              static_cast<double>(r.bytes) * 8.0 / static_cast<double>(r.window), 1e-9);
  EXPECT_GE(r.host_cpu_cores, 0.0);
  EXPECT_LE(r.membus_util, 1.05);
}

TEST_F(WorkloadFixture, FreeFlowRttIsFasterIntraHost) {
  // The RTT benches' echo driver: co-located containers ride shm, hosts
  // apart ride rdma, and shm's round trip is the shorter.
  auto rtt = [](bool inter_host) {
    Env env(2);
    auto a = env.deploy("a", 1, 0);
    auto b = env.deploy("b", 1, inter_host ? 1 : 0);
    auto na = env.freeflow().attach(a->id()).value();
    auto nb = env.freeflow().attach(b->id()).value();
    return freeflow_rtt(env.cluster, na, nb, b->ip(), 9000, 64, 11);
  };
  const SimDuration intra = rtt(false);
  const SimDuration inter = rtt(true);
  EXPECT_GT(intra, 0);
  EXPECT_GT(inter, 0);
  EXPECT_LT(intra, inter);
}

TEST_F(WorkloadFixture, ParamServerIterates) {
  Env env(2);
  auto server_c = env.deploy("ps", 1, 0);
  auto worker_c = env.deploy("worker", 1, 1);
  auto ns = env.freeflow().attach(server_c->id()).value();
  auto nw = env.freeflow().attach(worker_c->id()).value();

  ParamServer::Config cfg;
  cfg.model_floats = 64 * 1024;
  cfg.iterations = 3;
  ParamServer ps(ns, cfg);
  ASSERT_TRUE(ps.start().is_ok());

  PsWorker worker(nw, server_c->ip(), cfg);
  SimDuration elapsed = 0;
  worker.run(ps.model_mr_id(), [&](Result<SimDuration> e) {
    ASSERT_TRUE(e.is_ok()) << e.status();
    elapsed = *e;
  });
  EXPECT_TRUE(env.wait([&]() { return elapsed != 0; }, 120 * k_second));
  EXPECT_EQ(ps.workers_connected(), 1u);
  EXPECT_EQ(worker.transport(), orch::Transport::rdma);
  EXPECT_GT(elapsed, 0);
}

}  // namespace
}  // namespace freeflow::workloads
