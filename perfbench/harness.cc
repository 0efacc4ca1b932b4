#include "harness.h"

#include <algorithm>

namespace perfbench {

namespace ff = freeflow;

const char* path_name(Path p) {
  switch (p) {
    case Path::shm: return "shm";
    case Path::rdma: return "rdma";
    case Path::dpdk: return "dpdk";
    case Path::tcp_host: return "tcp_host";
    case Path::overlay_tcp: return "overlay_tcp";
    case Path::count: break;
  }
  return "?";
}

Path path_of(ff::orch::Transport t) {
  switch (t) {
    case ff::orch::Transport::shm: return Path::shm;
    case ff::orch::Transport::rdma: return Path::rdma;
    case ff::orch::Transport::dpdk: return Path::dpdk;
    case ff::orch::Transport::tcp_host: return Path::tcp_host;
    case ff::orch::Transport::tcp_overlay: return Path::overlay_tcp;
  }
  return Path::count;
}

World::World(const std::vector<ff::fabric::NicCapabilities>& hosts)
    : cluster(std::make_unique<ff::fabric::Cluster>()) {
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    cluster->add_host("host" + std::to_string(i), hosts[i]);
  }
  overlay = std::make_unique<ff::overlay::OverlayNetwork>(
      *cluster, ff::tcp::Subnet{ff::tcp::Ipv4Addr(10, 244, 0, 0), 16});
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    overlay->attach_host(static_cast<ff::fabric::HostId>(i));
  }
  corch = std::make_unique<ff::orch::ClusterOrchestrator>(*cluster, *overlay);
  norch = std::make_unique<ff::orch::NetworkOrchestrator>(*corch);
  ff = std::make_unique<ff::core::FreeFlow>(*norch);
}

std::vector<std::byte> make_template(std::uint64_t seed, std::uint64_t stream,
                                     std::size_t n) {
  InputRng rng(seed * 0x2545F4914F6CDD1DULL ^ (stream + 1) * 0x9E3779B97F4A7C15ULL);
  std::vector<std::byte> out((n + 7) / 8 * 8);
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out.data() + i, &v, 8);
  }
  out.resize(n);
  return out;
}

Buffer EchoCheck::make_request(std::uint32_t flow, std::uint64_t seq, std::uint32_t len,
                               SimTime now) {
  Buffer b(tmpl_->data(), len);
  const MsgHeader hdr{len, flow, seq};
  std::memcpy(b.data(), &hdr, k_header);
  inflight_.push_back(Pending{hdr, now});
  return b;
}

bool EchoCheck::matches(const Pending& p, std::size_t off, ByteSpan got) const {
  std::size_t i = 0;
  if (off < k_header) {
    const std::size_t n = std::min(got.size(), k_header - off);
    if (std::memcmp(got.data(), reinterpret_cast<const std::byte*>(&p.hdr) + off, n) != 0) {
      return false;
    }
    i = n;
  }
  return std::memcmp(got.data() + i, tmpl_->data() + off + i, got.size() - i) == 0;
}

Harness::Harness(const Options& o, std::uint64_t warmup_ops, std::uint64_t timed_ops,
                 int segments, SimDuration slice, double calib_sensitivity)
    : opt(o),
      warmup_(warmup_ops),
      timed_(timed_ops),
      calib_sensitivity_(calib_sensitivity),
      segments_(segments),
      slice_(slice),
      start_cpu_(cpu_now_ns()) {
  for (int k = 0; k <= segments_; ++k) {
    boundaries_.push_back(warmup_ + timed_ * static_cast<std::uint64_t>(k) /
                                         static_cast<std::uint64_t>(segments_));
  }
}

void Harness::begin_epoch() {
  setup_calib_ms_ = calibration_ms();
  world_start_cpu_ = cpu_now_ns();
}

double Harness::setup_ref_s() const {
  if (marks_.empty()) return 0.0;
  const double cpu_s = static_cast<double>(marks_[0].cpu_ns - world_start_cpu_) / 1e9;
  return to_reference(cpu_s, (setup_calib_ms_ + marks_[0].calib_ms) / 2.0, calib_sensitivity_);
}

void Harness::begin_world(World& world) {
  world_ = &world;
  target_ = warmup_ + timed_;
  started_ = 0;
  completed_ = 0;
  marks_.clear();
  // Set-up and the orderly end are traced; timed segments alternate.
  tracer.set_enabled(opt.trace);
}

void Harness::op_completed() {
  ++completed_;
  if (marks_.size() < boundaries_.size() && completed_ == boundaries_[marks_.size()]) {
    Mark m;
    m.cpu_ns = cpu_now_ns();
    m.allocs = alloc_count();
    m.events = world_->loop().events_executed();
    m.sim = world_->loop().now();
    m.loop_self_ns = tracer.totals(k_loop_slice).self_ns;
    m.harness_self_ns =
        tracer.totals(k_harness_rx).self_ns + tracer.totals(k_harness_ctl).self_ns;
    m.usage = usage_now();
    const std::int64_t calib_start = mono_now_ns();
    m.calib_ms = calibration_ms();
    tracer.skip(mono_now_ns() - calib_start);
    m.resume_cpu_ns = cpu_now_ns();
    marks_.push_back(m);
    const std::size_t k = marks_.size() - 1;  // segment k starts here
    if (opt.trace) {
      // Odd segments traced, even ones not: the pair gives the overhead.
      tracer.set_enabled(k >= static_cast<std::size_t>(segments_) || k % 2 == 1);
    }
  }
}

void Harness::note_echo(Path path, std::uint64_t bytes, SimTime sent_at) {
  const SimTime now = world_->loop().now();
  digest_.add_u64(static_cast<std::uint64_t>(now));
  digest_.add_u64(bytes);
  if (!in_timed_phase()) return;
  rtts_.push_back(now - sent_at);
  path_bytes_[static_cast<int>(path)] += bytes;
}

void Harness::fail(const std::string& what) {
  ++failures_;
  if (failure_log_.size() < 20) failure_log_.push_back(what);
}

}  // namespace perfbench
