// perfbench: host-clock benchmark of the FreeFlow simulator program.
//
//   perfbench --workload rpc|bulk|churn --seed N --seconds S --trace 0|1
//             [--trace-out trace.json]
//
// One process, one thread. A run is a few epochs; each builds a fresh
// deployment (its set-up CPU time is one setup_s sample), runs warm-up
// operations, then a fixed number of timed operations split into segments
// (a per-workload rate times --seconds, so every count repeats exactly for a
// seed), then closes and stops everything. End-to-end metrics are host-clock
// costs the program's users pay: the median op rate per CPU-second over all
// segments, the median set-up time, and peak RSS. Sim-clock results are a
// fingerprint printed before the result; it must repeat exactly for a seed.
// With --trace 1 odd segments are traced, even ones are not, and the
// per-layer metrics are printed instead. The last stdout line is the JSON
// result.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace {

namespace ff = freeflow;
using namespace perfbench;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt->workload = v;
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      opt->trace = v == "1";
    } else if (a == "--trace-out") {
      opt->trace_out = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

// ---- telemetry fold ---------------------------------------------------------

/// Flattens the registry's JSON snapshot into "section/name[/field]" ->
/// value. The snapshot is objects of numbers only.
class Flattener {
 public:
  explicit Flattener(const std::string& s) : s_(s) {}
  std::map<std::string, double> run() {
    std::map<std::string, double> out;
    object("", out);
    return out;
  }

 private:
  std::string string_token() {
    std::string r;
    ++i_;  // opening quote
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      r += s_[i_++];
    }
    ++i_;
    return r;
  }
  void object(const std::string& prefix, std::map<std::string, double>& out) {
    ++i_;  // '{'
    while (i_ < s_.size() && s_[i_] != '}') {
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      const std::string key = string_token();
      ++i_;  // ':'
      const std::string path = prefix.empty() ? key : prefix + "/" + key;
      if (s_[i_] == '{') {
        object(path, out);
      } else {
        char* end = nullptr;
        out[path] = std::strtod(s_.c_str() + i_, &end);
        i_ = static_cast<std::size_t>(end - s_.c_str());
      }
    }
    ++i_;  // '}'
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '/') {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

struct LayerCounts {
  double conduit_sent = 0, conduit_acks = 0, conduit_window_full = 0;
  double conduit_retransmits = 0, conduit_rebinds = 0;
  double nic_tx[4] = {};  // tcp_frame, rdma_chunk, dpdk_frame, control
  double nic_drops = 0;
  double trunk_setups = 0, trunk_setup_retries = 0;
  double selector_rpc_rounds = 0, selector_invalidations = 0;
  double orch_decisions = 0;
  double series = 0;
  double shm_regions = 0, shm_bytes = 0;

  void add(const LayerCounts& o) {
    conduit_sent += o.conduit_sent;
    conduit_acks += o.conduit_acks;
    conduit_window_full += o.conduit_window_full;
    conduit_retransmits += o.conduit_retransmits;
    conduit_rebinds += o.conduit_rebinds;
    for (int k = 0; k < 4; ++k) nic_tx[k] += o.nic_tx[k];
    nic_drops += o.nic_drops;
    trunk_setups += o.trunk_setups;
    trunk_setup_retries += o.trunk_setup_retries;
    selector_rpc_rounds += o.selector_rpc_rounds;
    selector_invalidations += o.selector_invalidations;
    orch_decisions += o.orch_decisions;
    series += o.series;
    shm_regions += o.shm_regions;
    shm_bytes += o.shm_bytes;
  }
};

LayerCounts fold_registry(World& w, Digest& digest) {
  LayerCounts c;
  const auto& reg = w.cluster->telemetry().metrics();
  const std::string snap = reg.snapshot_json();
  digest.add(snap.data(), snap.size());
  c.series = static_cast<double>(reg.size());
  static const char* const kinds[4] = {"tcp_frame", "rdma_chunk", "dpdk_frame", "control"};
  for (const auto& [key, v] : Flattener(snap).run()) {
    const auto p = split(key);
    const std::string& section = p[0];
    if (section == "counters" && p.size() >= 2) {
      const std::string& entity = p[1];
      const std::string& last = p.back();
      if (entity == "conduit") {
        if (last == "sent") c.conduit_sent += v;
        if (last == "acks") c.conduit_acks += v;
        if (last == "window_full") c.conduit_window_full += v;
        if (last == "retransmits") c.conduit_retransmits += v;
        if (last == "rebinds") c.conduit_rebinds += v;
      } else if (entity == "nic" && p.size() == 5) {
        for (int k = 0; k < 4; ++k) {
          if (p[4] != kinds[k]) continue;
          if (p[3] == "tx_bytes") c.nic_tx[k] += v;
          if (p[3] == "drops") c.nic_drops += v;
        }
      } else if (entity == "agent" && last == "setup_retries") {
        c.trunk_setup_retries += v;
      } else if (entity == "selector") {
        if (last == "decide_rpc_rounds") c.selector_rpc_rounds += v;
        if (last == "invalidations") c.selector_invalidations += v;
      } else if (entity == "orchestrator" && p.size() == 3 && last == "decisions") {
        c.orch_decisions += v;
      }
    } else if (section == "histograms" && p.size() >= 2 && p[1] == "agent" &&
               key.size() > 28 &&
               key.compare(key.size() - 28, 28, "trunk/setup_latency_ns/count") == 0) {
      c.trunk_setups += v;
    }
  }
  for (std::size_t h = 0; h < w.cluster->host_count(); ++h) {
    auto& shm = w.ff->agents().agent_on(static_cast<ff::fabric::HostId>(h)).shm_registry();
    c.shm_regions += static_cast<double>(shm.region_count());
    c.shm_bytes += static_cast<double>(shm.bytes_in_use());
  }
  return c;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

/// Host-clock figures of the timed segments, summed over epochs. Segment
/// rates are in reference CPU-seconds: each segment's CPU time is scaled by
/// the calibration runs on either side of it (see to_reference).
struct Timed {
  std::vector<double> rate_all, rate_raw, rate_traced, rate_untraced, calib;
  double ops = 0, user_ns = 0, sys_ns = 0, minor_faults = 0;
  double allocs = 0, alloc_bytes = 0, events = 0, sim_ns = 0;
  double traced_cpu = 0, traced_loop = 0, traced_harness = 0, traced_events = 0;

  void add_epoch(const std::vector<Mark>& m, std::uint64_t n, int segments,
                 double sensitivity) {
    const auto k_n = static_cast<std::uint64_t>(segments);
    for (int k = 0; k < segments; ++k) {
      const auto uk = static_cast<std::uint64_t>(k);
      const double seg_ops = static_cast<double>(n * (uk + 1) / k_n - n * uk / k_n);
      const double cpu = static_cast<double>(m[uk + 1].cpu_ns - m[uk].resume_cpu_ns);
      const double raw = seg_ops / (cpu / 1e9);
      const double seg_calib = (m[uk].calib_ms + m[uk + 1].calib_ms) / 2.0;
      const double rate = seg_ops / (to_reference(cpu, seg_calib, sensitivity) / 1e9);
      rate_raw.push_back(raw);
      rate_all.push_back(rate);
      if (k % 2 == 1) {
        rate_traced.push_back(rate);
        traced_cpu += cpu;
        traced_loop += static_cast<double>(m[uk + 1].loop_self_ns - m[uk].loop_self_ns);
        traced_harness +=
            static_cast<double>(m[uk + 1].harness_self_ns - m[uk].harness_self_ns);
        traced_events += static_cast<double>(m[uk + 1].events - m[uk].events);
      } else {
        rate_untraced.push_back(rate);
      }
    }
    // The calibration runs inside the timed span are user time of the
    // benchmark, not of the program.
    double calib_cpu = 0;
    for (int k = 0; k < segments; ++k) {
      const Mark& mk = m[static_cast<std::size_t>(k)];
      calib_cpu += static_cast<double>(mk.resume_cpu_ns - mk.cpu_ns);
    }
    for (const Mark& mk : m) calib.push_back(mk.calib_ms);
    const Mark& a = m.front();
    const Mark& b = m.back();
    ops += static_cast<double>(n);
    user_ns += static_cast<double>(b.usage.user_ns - a.usage.user_ns) - calib_cpu;
    sys_ns += static_cast<double>(b.usage.sys_ns - a.usage.sys_ns);
    minor_faults += static_cast<double>(b.usage.minor_faults - a.usage.minor_faults);
    allocs += static_cast<double>(b.allocs.count - a.allocs.count);
    alloc_bytes += static_cast<double>(b.allocs.bytes - a.allocs.bytes);
    events += static_cast<double>(b.events - a.events);
    sim_ns += static_cast<double>(b.sim - a.sim);
  }
};

void print_list(const char* name, const std::vector<double>& v, const char* fmt) {
  std::printf("%s [", name);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    std::printf(fmt, v[i]);
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  WorkloadShape shape{};
  if (!parse_args(argc, argv, &opt) || !workload_shape(opt.workload, &shape)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rpc|bulk|churn --seed N --seconds S "
                 "--trace 0|1 [--trace-out path]\n");
    return 2;
  }
  // Fixed allocator policy. glibc starts with a 128 KiB mmap threshold and
  // raises it (up to 32 MiB, trim threshold twice that) at the first free
  // of a large mmapped block, which every workload does within its first
  // connections. Pinning the raised values from the start gives every epoch
  // the allocator behaviour of a long-running process instead of one that
  // depends on the allocation history before it.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
  (void)calibration_ms();  // allocates and faults in the kernel's table

  const std::uint64_t total_ops = shape.ops_per_second * static_cast<std::uint64_t>(opt.seconds);
  const int epochs = static_cast<int>(std::max<std::uint64_t>(
      2, (total_ops + shape.epoch_ops / 2) / shape.epoch_ops));
  const std::uint64_t per_epoch = total_ops / static_cast<std::uint64_t>(epochs);
  Harness h(opt, shape.warmup_ops, per_epoch, shape.segments, shape.slice,
            shape.calib_sensitivity);

  std::vector<double> setup_s;
  Timed timed;
  LayerCounts layers;
  double world_ops = 0;
  double end_sim_ns = 0;
  int epochs_done = 0;
  for (int e = 0; e < epochs; ++e) {
    // Every epoch gets its own inputs, all derived from the run's seed.
    h.begin_epoch();
    auto wl = make_workload(opt.workload, h,
                            opt.seed * 1000003ULL + static_cast<std::uint64_t>(e));
    World& w = wl->world();
    h.begin_world(w);
    wl->start();
    if (h.failures() != 0 ||
        !h.run_until([&] { return h.timed_done(); }, 3600 * ff::k_second)) {
      h.fail("epoch " + std::to_string(e) + " stalled before finishing its operations");
      break;
    }
    setup_s.push_back(h.setup_ref_s());
    timed.add_epoch(h.marks(), per_epoch, shape.segments, shape.calib_sensitivity);
    world_ops += static_cast<double>(h.completed());
    wl->finish();
    layers.add(fold_registry(w, h.digest()));
    h.digest().add_u64(w.loop().events_executed());
    h.digest().add_u64(static_cast<std::uint64_t>(w.loop().now()));
    end_sim_ns += static_cast<double>(w.loop().now());
    ++epochs_done;
  }
  const Usage end_usage = usage_now();

  const double nops = timed.ops;
  const double worlds = std::max(epochs_done, 1);
  const double conns = static_cast<double>(h.connects());
  const double payload = static_cast<double>(h.payload_world());
  const double wire_data = layers.nic_tx[0] + layers.nic_tx[1] + layers.nic_tx[2];

  if (layers.nic_drops != 0) h.fail("NIC drops: " + std::to_string(layers.nic_drops));
  if (layers.conduit_retransmits != 0) {
    h.fail("conduit retransmits: " + std::to_string(layers.conduit_retransmits));
  }
  if (layers.conduit_rebinds != 0) {
    h.fail("conduit rebinds: " + std::to_string(layers.conduit_rebinds));
  }

  // ---- sim-clock fingerprint (must repeat exactly for a seed) -----------
  {
    auto& rtts = h.rtts();
    const double sim_timed = timed.sim_ns / 1e9;
    const std::size_t samples = rtts.size();
    const double p50 = percentile(rtts, 0.50) / 1e3;
    const double p99 = percentile(rtts, 0.99) / 1e3;
    std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"epochs\": %d, \"timed_ops\": %.0f, \"sim_timed_s\": %.9f, "
                "\"sim_end_s\": %.9f, \"rtt_samples\": %zu, \"rtt_p50_us\": %.3f, "
                "\"rtt_p99_us\": %.3f, \"goodput_gbps\": {",
                opt.workload.c_str(), opt.seed, epochs_done, nops, sim_timed, end_sim_ns / 1e9,
                samples, p50, p99);
    bool first_path = true;
    for (int p = 0; p < static_cast<int>(Path::count); ++p) {
      const auto bytes = h.path_bytes(static_cast<Path>(p));
      if (bytes == 0) continue;
      std::printf("%s\"%s\": %.6f", first_path ? "" : ", ", path_name(static_cast<Path>(p)),
                  ratio(static_cast<double>(bytes) * 8.0, sim_timed) / 1e9);
      first_path = false;
    }
    std::printf("}, \"digest\": \"%016" PRIx64 "\"}\n", h.digest().value());
  }

  std::vector<Metric> counts = {
      {"sim.events_per_op", ratio(timed.events, nops), "count"},
      {"process.allocs_per_op", ratio(timed.allocs, nops), "count"},
      {"process.alloc_bytes_per_payload_byte",
       ratio(timed.alloc_bytes, static_cast<double>(h.payload_timed())), "ratio"},
      {"process.minor_faults_per_op", ratio(timed.minor_faults, nops), "count"},
      {"process.sys_cpu_share", ratio(timed.sys_ns, timed.user_ns + timed.sys_ns), "ratio"},
      {"conduit.acks_per_msg", ratio(layers.conduit_acks, layers.conduit_sent), "ratio"},
      {"conduit.window_full_per_msg", ratio(layers.conduit_window_full, layers.conduit_sent),
       "ratio"},
      {"conduit.retransmits", layers.conduit_retransmits, "count"},
      {"selector.rpc_rounds_per_conn", ratio(layers.selector_rpc_rounds, conns), "ratio"},
      {"selector.invalidations_per_conn", ratio(layers.selector_invalidations, conns), "ratio"},
      {"orchestrator.decisions_per_conn", ratio(layers.orch_decisions, conns), "ratio"},
      {"agent.trunk_setups", layers.trunk_setups / worlds, "count"},
      {"agent.trunk_setup_retries", layers.trunk_setup_retries, "count"},
      {"shm.live_regions_end", layers.shm_regions / worlds, "count"},
      {"shm.live_mb_end", layers.shm_bytes / worlds / (1024.0 * 1024.0), "MB"},
      {"nic.wire_bytes_per_payload_byte", ratio(wire_data, payload), "ratio"},
      {"nic.wire_bytes_per_payload_byte.rdma_chunk", ratio(layers.nic_tx[1], payload), "ratio"},
      {"nic.wire_bytes_per_payload_byte.dpdk_frame", ratio(layers.nic_tx[2], payload), "ratio"},
      {"nic.wire_bytes_per_payload_byte.tcp_frame", ratio(layers.nic_tx[0], payload), "ratio"},
      {"nic.control_bytes_per_op", ratio(layers.nic_tx[3], world_ops), "B/op"},
      {"nic.drops", layers.nic_drops, "count"},
      {"telemetry.series", layers.series / worlds, "count"},
  };
  std::printf("counts %s\n", metrics_json(counts).c_str());
  print_list("setup_s", setup_s, "%.4f");
  print_list("segments_op_per_cpu_s", timed.rate_all, "%.1f");
  print_list("segments_op_per_raw_cpu_s", timed.rate_raw, "%.1f");
  print_list("calib_ms", timed.calib, "%.3f");
  for (const auto& f : h.failure_log()) std::printf("failure: %s\n", f.c_str());

  std::vector<Metric> out;
  if (!opt.trace) {
    out = {
        {"ops_per_cpu_s", median(timed.rate_all), "op/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", end_usage.max_rss_mb, "MB"},
    };
  } else {
    const Tracer& t = h.tracer;
    auto per_call = [&](int kind, bool self, double unit_ns) {
      const auto& tot = t.totals(kind);
      return ratio(static_cast<double>(self ? tot.self_ns : tot.total_ns),
                   static_cast<double>(tot.count)) / unit_ns;
    };
    out = {
        counts[0],
        {"sim.cpu_ns_per_event", ratio(timed.traced_loop, timed.traced_events), "ns"},
        {"sim.loop_cpu_share", ratio(timed.traced_loop, timed.traced_cpu), "ratio"},
    };
    out.insert(out.end(), counts.begin() + 1, counts.begin() + 5);
    out.push_back({"core.send_cpu_ns", per_call(k_api_send, true, 1.0), "ns"});
    out.push_back({"core.connect_cpu_us", per_call(k_api_connect, false, 1e3), "us"});
    out.push_back({"core.close_cpu_us", per_call(k_api_close, true, 1e3), "us"});
    out.push_back({"core.attach_cpu_us", per_call(k_api_attach, true, 1e3), "us"});
    out.insert(out.end(), counts.begin() + 5, counts.begin() + 10);
    out.push_back({"orchestrator.deploy_cpu_us", per_call(k_api_deploy, true, 1e3), "us"});
    out.push_back({"orchestrator.stop_cpu_us", per_call(k_api_stop, true, 1e3), "us"});
    out.insert(out.end(), counts.begin() + 10, counts.end());
    out.push_back({"harness.cpu_share", ratio(timed.traced_harness, timed.traced_cpu), "ratio"});
    out.push_back({"harness.trace_overhead",
                   1.0 - ratio(median(timed.rate_traced), median(timed.rate_untraced)),
                   "ratio"});
    out.push_back({"host.calib_ms", median(timed.calib), "ms"});
    out.push_back({"host.raw_ops_per_cpu_s", median(timed.rate_raw), "op/s"});
    if (!opt.trace_out.empty() && !t.write_chrome_json(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", opt.trace_out.c_str());
    }
  }

  const std::uint64_t attempted = std::max<std::uint64_t>(h.attempted(), 1);
  const std::uint64_t failed = std::min(h.failures(), attempted);
  const bool correct = failed == 0 && epochs_done == epochs;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
