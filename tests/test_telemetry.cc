#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim_env.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace freeflow::telemetry {
namespace {

using freeflow::testing::Env;

/// Structural JSON check good enough for exporter output: every brace,
/// bracket and quote balances, with string contents (and escapes) skipped.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

bool has_raw_control_byte(const std::string& s) {
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

// ----------------------------------------------------------- MetricRegistry

TEST(MetricRegistry, LookupOrCreateReturnsStablePointers) {
  MetricRegistry reg;
  Counter& a = reg.counter("conduit/1/sent");
  Gauge& g = reg.gauge("conduit/1/retained");
  a.inc(3);
  g.set(7);
  // Growing the registry must not move existing metrics (deque storage):
  // instrumented objects cache these pointers for the simulation's lifetime.
  for (int i = 0; i < 1000; ++i) reg.counter("filler/" + std::to_string(i));
  EXPECT_EQ(&reg.counter("conduit/1/sent"), &a);
  EXPECT_EQ(&reg.gauge("conduit/1/retained"), &g);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(reg.size(), 1002u);
}

TEST(MetricRegistry, CounterIsMonotonic) {
  MetricRegistry reg;
  Counter& c = reg.counter("events");
  std::uint64_t last = c.value();
  for (int i = 0; i < 100; ++i) {
    c.inc(static_cast<std::uint64_t>(i % 3));
    EXPECT_GE(c.value(), last);
    last = c.value();
  }
  EXPECT_EQ(c.value(), 99u);  // 33 * (0+1+2)
  EXPECT_EQ(reg.counter_value("events"), 99u);
}

TEST(MetricRegistry, FindNeverCreates) {
  MetricRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("yes").inc();
  EXPECT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.find_counter("yes")->value(), 1u);
}

TEST(MetricRegistry, SnapshotIsSortedDeterministicAndWellFormed) {
  // Two registries fed the same data in opposite insertion orders must
  // export byte-identical JSON (names are map-sorted, not insertion-sorted).
  MetricRegistry a, b;
  const std::vector<std::string> names = {"z/last", "a/first", "m/mid"};
  for (const auto& n : names) a.counter(n).inc(2);
  for (auto it = names.rbegin(); it != names.rend(); ++it) b.counter(*it).inc(2);
  a.gauge("depth").set(-4);
  b.gauge("depth").set(-4);
  a.histogram("lat").record(1000);
  b.histogram("lat").record(1000);
  const std::string ja = a.snapshot_json();
  EXPECT_EQ(ja, b.snapshot_json());
  EXPECT_TRUE(json_balanced(ja)) << ja;
  EXPECT_NE(ja.find("\"counters\""), std::string::npos);
  EXPECT_NE(ja.find("\"a/first\":2"), std::string::npos);
  EXPECT_NE(ja.find("\"depth\":-4"), std::string::npos);
  EXPECT_NE(ja.find("\"lat\""), std::string::npos);
  EXPECT_NE(ja.find("\"count\":1"), std::string::npos);
  EXPECT_LT(ja.find("\"a/first\""), ja.find("\"m/mid\""));
  EXPECT_LT(ja.find("\"m/mid\""), ja.find("\"z/last\""));
}

TEST(MetricRegistry, ProbesSampleAtSnapshotTime) {
  MetricRegistry reg;
  double level = 0.25;
  reg.register_probe("nic/0/tx_utilization", [&level]() { return level; });
  EXPECT_NE(reg.snapshot_json().find("\"nic/0/tx_utilization\":0.25"),
            std::string::npos);
  level = 0.5;  // no re-registration: the probe reads the live value
  EXPECT_NE(reg.snapshot_json().find("\"nic/0/tx_utilization\":0.5"),
            std::string::npos);
  reg.unregister_probe("nic/0/tx_utilization");
  EXPECT_EQ(reg.snapshot_json().find("tx_utilization"), std::string::npos);
  EXPECT_EQ(reg.size(), 0u);
}

// Container names reach series names ("gateway/<name>/..."); a tab or a
// newline in one must export as \u00XX, never as a raw byte that makes the
// snapshot (or a trace arg carrying it) unparseable.
TEST(MetricRegistry, ControlCharactersExportEscaped) {
  MetricRegistry reg;
  reg.counter("gateway/web\n1/\tscale_ups").inc();
  const std::string snapshot = reg.snapshot_json();
  EXPECT_FALSE(has_raw_control_byte(snapshot));
  EXPECT_TRUE(json_balanced(snapshot));
  EXPECT_NE(snapshot.find("\"gateway/web\\u000a1/\\u0009scale_ups\":1"),
            std::string::npos);

  Tracer tracer;
  tracer.instant("cat", "name", 0, 0, Tracer::arg("to", "line\nbreak\ttab"));
  const std::string trace = tracer.export_json();
  EXPECT_FALSE(has_raw_control_byte(trace));
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_NE(trace.find("\"line\\u000abreak\\u0009tab\""), std::string::npos);
}

// ------------------------------------------------------------------ Tracer

TEST(Tracer, RecordsOnVirtualClock) {
  sim::EventLoop loop;
  Tracer tracer(&loop);
  loop.schedule(1500, [&]() { tracer.begin("conduit", "transfer", 1, 42); });
  loop.schedule(3500, [&]() { tracer.end("conduit", "transfer", 1, 42); });
  loop.schedule(2000, [&]() { tracer.instant("fault", "rdma_down", 0, 7); });
  loop.run();
  ASSERT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.events()[0].ph, 'B');
  EXPECT_EQ(tracer.events()[0].ts_ns, 1500);
  EXPECT_EQ(tracer.events()[1].ph, 'i');
  EXPECT_EQ(tracer.events()[1].ts_ns, 2000);
  EXPECT_EQ(tracer.events()[2].ph, 'E');
  EXPECT_EQ(tracer.events()[2].ts_ns, 3500);
  EXPECT_EQ(tracer.events()[0].tid, 42u);
}

TEST(Tracer, ExportJsonWellFormed) {
  sim::EventLoop loop;
  Tracer tracer(&loop);
  tracer.name_process(1, "host 1");
  tracer.name_thread(1, 42, "conduit \"weird\\name\"");
  tracer.begin("conduit", "failover", 1, 42);
  tracer.instant("conduit", "rebind", 1, 42, Tracer::arg("to", "tcp_host"));
  tracer.end("conduit", "failover", 1, 42);
  const std::string json = tracer.export_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // Instants carry scope "t"; args objects ride through verbatim.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"to\":\"tcp_host\"}"), std::string::npos);
  // Metadata escapes hostile names instead of corrupting the document.
  EXPECT_NE(json.find("conduit \\\"weird\\\\name\\\""), std::string::npos);
}

TEST(Tracer, DisabledTracerDropsEvents) {
  sim::EventLoop loop;
  Tracer tracer(&loop);
  tracer.set_enabled(false);
  tracer.begin("c", "x", 0, 0);
  tracer.instant("c", "y", 0, 0);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.set_enabled(true);
  tracer.instant("c", "y", 0, 0);
  EXPECT_EQ(tracer.size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

// ------------------------------------------------------------- integration

/// "conduit/h<host>/<transport>/": the prefix of one host-level family of
/// conduit series.
std::string family(fabric::HostId host, orch::Transport transport) {
  return "conduit/h" + std::to_string(host) + "/" + std::string(orch::transport_name(transport)) +
         "/";
}

/// Drives a real transfer and cross-checks the registry against the
/// conduit's own introspection; then repeats the identical run and demands
/// a byte-identical snapshot (determinism is what makes telemetry diffable
/// across seeds and commits).
TEST(TelemetryIntegration, CountersMatchConduitsAndSnapshotsAreDeterministic) {
  auto drive = []() {
    Env env(2);
    auto a = env.deploy("a", 1, 0);
    auto b = env.deploy("b", 1, 1);
    auto na = *env.freeflow().attach(a->id());
    auto nb = *env.freeflow().attach(b->id());
    core::FlowSocketPtr client, server;
    EXPECT_TRUE(nb->sock_listen(80, [&](core::FlowSocketPtr s) { server = s; }).is_ok());
    na->sock_connect(b->ip(), 80, [&](Result<core::FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok()) << s.status();
      client = *s;
    });
    EXPECT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));
    std::size_t got = 0;
    server->set_on_data([&](Buffer&& buf) { got += buf.size(); });
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(client->send(Buffer(1024)).is_ok());
    }
    EXPECT_TRUE(env.wait([&]() { return got == 40u * 1024u; }));

    auto& metrics = env.cluster.telemetry().metrics();
    // Each end is the only conduit in its host's family, so the family
    // counts are that conduit's own.
    for (const auto& net : {na, nb}) {
      for (const auto& info : net->connections()) {
        const std::string base = family(net->container()->host(), info.transport);
        EXPECT_EQ(metrics.counter_value(base + "sent"), info.messages_sent);
        EXPECT_EQ(metrics.counter_value(base + "received"), info.messages_received);
        EXPECT_NE(metrics.find_counter(base + "retransmits"), nullptr);
      }
    }
    // The connect request and the 40 data messages.
    EXPECT_EQ(metrics.counter_value(family(0, orch::Transport::rdma) + "sent"), 41u);
    // Data flowed inter-host, so the NIC counters saw it too.
    EXPECT_GT(metrics.counter_value("nic/0/tx_bytes/rdma_chunk") +
                  metrics.counter_value("nic/0/tx_bytes/tcp_frame") +
                  metrics.counter_value("nic/0/tx_bytes/dpdk_frame"),
              40u * 1024u);
    EXPECT_GT(metrics.counter_value("orchestrator/decisions"), 0u);
    return metrics.snapshot_json();
  };
  const std::string s1 = drive();
  const std::string s2 = drive();
  EXPECT_TRUE(json_balanced(s1));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1.find("\"conduit/"), std::string::npos);
  EXPECT_NE(s1.find("\"nic/0/tx_utilization\""), std::string::npos);
}

/// Connection churn does not grow the registry: a conduit counts into its
/// host x transport family, so 1,200 connections over shm and rdma register
/// what the first 300 did. Each family's counts are the sum of its
/// conduits' own and outlive them, and its retained gauge drains to 0.
TEST(Telemetry, SeriesDoNotGrowWithConnections) {
  constexpr int k_rounds = 4;
  constexpr std::size_t k_per_client = 100;
  constexpr std::size_t k_echo_bytes = 1024;
  Env env(3);
  auto server = env.deploy("server", 1, 0);
  auto ns = *env.freeflow().attach(server->id());
  // c0 shares the server's host (shm); c1 and c2 reach it over rdma.
  std::vector<core::ContainerNetPtr> clients;
  for (fabric::HostId h = 0; h < 3; ++h) {
    auto c = env.deploy("c" + std::to_string(h), 1, h);
    clients.push_back(*env.freeflow().attach(c->id()));
  }
  std::vector<core::ContainerNetPtr> all_nets = clients;
  all_nets.push_back(ns);
  std::vector<core::FlowSocketPtr> accepted;
  ASSERT_TRUE(ns->sock_listen(80, [&](core::FlowSocketPtr s) {
    core::FlowSocket* raw = s.get();
    s->set_on_data([raw](Buffer&& b) { EXPECT_TRUE(raw->send(std::move(b)).is_ok()); });
    accepted.push_back(std::move(s));
  }).is_ok());

  auto& metrics = env.cluster.telemetry().metrics();
  static constexpr std::array<const char*, 4> k_counts = {"sent", "received", "retransmits",
                                                          "rebinds"};
  using Counts = std::array<std::uint64_t, k_counts.size()>;
  auto family_counts = [&](const std::string& base) {
    Counts out{};
    for (std::size_t i = 0; i < k_counts.size(); ++i) {
      out[i] = metrics.counter_value(base + k_counts[i]);
    }
    return out;
  };
  const std::vector<std::string> families = {
      family(0, orch::Transport::shm), family(0, orch::Transport::rdma),
      family(1, orch::Transport::rdma), family(2, orch::Transport::rdma)};
  // Every rdma family's retained gauge equals the sum of its conduits'
  // windows; shm retains nothing, so its family has no such gauge.
  auto expect_retained_matches = [&]() {
    std::map<std::string, std::int64_t> windows;
    for (const auto& net : all_nets) {
      for (const auto& info : net->connections()) {
        windows[family(net->container()->host(), info.transport)] +=
            static_cast<std::int64_t>(info.retained);
      }
    }
    EXPECT_EQ(metrics.find_gauge(families[0] + "retained"), nullptr);
    EXPECT_EQ(windows[families[0]], 0);
    for (std::size_t f = 1; f < families.size(); ++f) {
      const Gauge* g = metrics.find_gauge(families[f] + "retained");
      ASSERT_NE(g, nullptr) << families[f];
      EXPECT_EQ(g->value(), windows[families[f]]) << families[f];
    }
  };

  std::size_t first_round_size = 0;
  for (int round = 0; round < k_rounds; ++round) {
    std::map<std::string, Counts> before;
    for (const auto& base : families) before[base] = family_counts(base);

    std::vector<core::FlowSocketPtr> open;
    for (const auto& net : clients) {
      for (std::size_t i = 0; i < k_per_client; ++i) {
        net->sock_connect(server->ip(), 80, [&](Result<core::FlowSocketPtr> s) {
          ASSERT_TRUE(s.is_ok()) << s.status();
          open.push_back(*s);
        });
      }
    }
    const std::size_t conns = clients.size() * k_per_client;
    ASSERT_TRUE(env.wait([&]() { return open.size() == conns && accepted.size() == conns; }));

    std::size_t echoed = 0;
    for (auto& s : open) {
      s->set_on_data([&](Buffer&& b) { echoed += b.size(); });
      ASSERT_TRUE(s->send(Buffer(k_echo_bytes)).is_ok());
    }
    if (round == 0) {
      // Mid-flight, each rdma request sits unacked in its window.
      const Gauge* g = metrics.find_gauge(family(1, orch::Transport::rdma) + "retained");
      ASSERT_NE(g, nullptr);
      EXPECT_GE(g->value(), static_cast<std::int64_t>(k_per_client));
    }
    expect_retained_matches();
    ASSERT_TRUE(env.wait([&]() { return echoed == conns * k_echo_bytes; }));

    // Held past the close (whose fin is one more message each way), then
    // summed per family by their own accessors.
    std::vector<std::pair<std::string, core::ConduitPtr>> conduits;
    for (const auto& net : all_nets) {
      for (const auto& info : net->connections()) {
        conduits.emplace_back(family(net->container()->host(), info.transport),
                              net->find_conduit(info.token));
      }
    }
    EXPECT_EQ(conduits.size(), 2 * conns);
    for (auto& s : open) s->close();
    ASSERT_TRUE(env.wait([&]() {
      for (const auto& [base, c] : conduits) {
        if (!c->closed()) return false;
      }
      return true;
    }));
    std::map<std::string, Counts> sums;
    std::vector<std::weak_ptr<core::Conduit>> gone;
    for (const auto& [base, c] : conduits) {
      Counts& sum = sums[base];
      sum[0] += c->messages_sent();
      sum[1] += c->messages_received();
      sum[2] += c->retransmits();
      sum[3] += c->rebinds();
      gone.push_back(c);
    }
    EXPECT_EQ(sums.size(), families.size());
    conduits.clear();
    open.clear();
    accepted.clear();
    for (const auto& c : gone) EXPECT_TRUE(c.expired());

    for (const auto& base : families) {
      const Counts now = family_counts(base);
      for (std::size_t i = 0; i < k_counts.size(); ++i) {
        EXPECT_EQ(now[i] - before[base][i], sums[base][i]) << base << k_counts[i];
      }
      EXPECT_GT(now[0], before[base][0]) << base;
    }
    expect_retained_matches();
    if (round == 0) first_round_size = metrics.size();
    EXPECT_EQ(metrics.size(), first_round_size) << "round " << round;
  }
}

}  // namespace
}  // namespace freeflow::telemetry
