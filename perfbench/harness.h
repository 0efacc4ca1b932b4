// Shared pieces of the host-clock benchmark: seeded input generation, the
// simulated deployment, message framing with byte-exact echo checks, and the
// Harness that drives the event loop, counts operations and takes the
// per-segment CPU / allocation / event marks.
//
// The benchmark reaches the program only through its public API:
// core::FreeFlow (attach), core::ContainerNet (sock_listen / sock_connect),
// core::FlowSocket, orch::ClusterOrchestrator (deploy / stop),
// sim::EventLoop, telemetry::MetricRegistry, agent::Agent::shm_registry and
// tcp::TcpNetwork for the untrusted overlay pair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/freeflow.h"
#include "orchestrator/cluster_orchestrator.h"
#include "orchestrator/network_orchestrator.h"
#include "overlay/overlay.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {

using freeflow::Buffer;
using freeflow::ByteSpan;
using freeflow::SimDuration;
using freeflow::SimTime;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace JSON path for --trace 1
};

/// splitmix64: the benchmark's own input generator, so inputs stay fixed
/// for a seed whatever happens to the library's Rng.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over everything the sim clock decides (fingerprint digest).
class Digest {
 public:
  void add(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
  }
  void add_u64(std::uint64_t v) noexcept { add(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// The data path a flow is planned to ride.
enum class Path : int { shm, rdma, dpdk, tcp_host, overlay_tcp, count };
const char* path_name(Path p);
Path path_of(freeflow::orch::Transport t);

/// One simulated deployment: hosts behind a ToR, the overlay, both
/// orchestrators and FreeFlow. Members are destroyed in reverse order.
struct World {
  explicit World(const std::vector<freeflow::fabric::NicCapabilities>& hosts);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  freeflow::sim::EventLoop& loop() { return cluster->loop(); }

  std::unique_ptr<freeflow::fabric::Cluster> cluster;
  std::unique_ptr<freeflow::overlay::OverlayNetwork> overlay;
  std::unique_ptr<freeflow::orch::ClusterOrchestrator> corch;
  std::unique_ptr<freeflow::orch::NetworkOrchestrator> norch;
  std::unique_ptr<freeflow::core::FreeFlow> ff;
};

/// Wire format of one echo message: a 16-byte header stamped over the
/// flow's seeded template, followed by the template bytes.
struct MsgHeader {
  std::uint32_t len;
  std::uint32_t flow;
  std::uint64_t seq;
};
static_assert(sizeof(MsgHeader) == 16);
constexpr std::size_t k_header = sizeof(MsgHeader);

/// Seeded random bytes, `n` long, distinct per (seed, stream).
std::vector<std::byte> make_template(std::uint64_t seed, std::uint64_t stream, std::size_t n);

/// Client-side check of echoed bytes: every byte must equal the template
/// with the expected header stamped over it, in send order. Messages may
/// arrive split across any number of chunks.
class EchoCheck {
 public:
  struct Pending {
    MsgHeader hdr;
    SimTime sent_at;
  };

  explicit EchoCheck(const std::vector<std::byte>* tmpl) : tmpl_(tmpl) {}

  /// Builds the request bytes for (flow, seq, len) and remembers them.
  Buffer make_request(std::uint32_t flow, std::uint64_t seq, std::uint32_t len,
                      SimTime now);

  /// Sequence number of the oldest message not yet fully echoed (0: none).
  [[nodiscard]] std::uint64_t front_seq() const noexcept {
    return inflight_.empty() ? 0 : inflight_.front().hdr.seq;
  }

  /// Consumes echoed bytes. Calls done(pending) per completed message.
  /// Returns false on the first mismatch (or unexpected bytes).
  template <typename Done>
  bool consume(ByteSpan data, Done&& done) {
    while (!data.empty()) {
      if (inflight_.empty()) return false;
      const Pending& p = inflight_.front();
      const std::size_t n = std::min<std::size_t>(data.size(), p.hdr.len - off_);
      if (!matches(p, off_, data.first(n))) return false;
      off_ += n;
      data = data.subspan(n);
      if (off_ == p.hdr.len) {
        const Pending done_msg = p;
        inflight_.pop_front();
        off_ = 0;
        done(done_msg);
      }
    }
    return true;
  }

 private:
  [[nodiscard]] bool matches(const Pending& p, std::size_t off, ByteSpan got) const;

  const std::vector<std::byte>* tmpl_;
  std::deque<Pending> inflight_;
  std::size_t off_ = 0;
};

/// Host-clock and process readings taken at a segment boundary. A short
/// calibration run sits between the end of one segment (cpu_ns) and the
/// start of the next (resume_cpu_ns).
struct Mark {
  std::int64_t cpu_ns = 0;
  std::int64_t resume_cpu_ns = 0;
  double calib_ms = 0;
  Usage usage;
  AllocCount allocs;
  std::uint64_t events = 0;
  SimTime sim = 0;
  std::int64_t loop_self_ns = 0;     ///< tracer totals (traced run only)
  std::int64_t harness_self_ns = 0;
};

/// Drives one workload through a run of several epochs. Each epoch is a
/// fresh deployment: set-up, warm-up operations, then the timed operations
/// split into segments, then an orderly end. The harness starts and counts
/// operations, takes marks at the segment boundaries, records failures and
/// accumulates the sim-clock fingerprint inputs over all epochs.
class Harness {
 public:
  Harness(const Options& opt, std::uint64_t warmup_ops, std::uint64_t timed_ops,
          int segments, SimDuration slice, double calib_sensitivity);

  /// Starts the next epoch: calibrates, then starts the set-up clock. Call
  /// before the epoch's deployment is built.
  void begin_epoch();
  /// Hands the harness the epoch's freshly built deployment.
  void begin_world(World& world);
  /// Set-up CPU time of the current epoch (begin_epoch to the first timed
  /// operation), in reference seconds (see to_reference).
  [[nodiscard]] double setup_ref_s() const;

  // ---- operation accounting (called by workloads) -----------------------
  [[nodiscard]] bool may_start() const noexcept { return started_ < target_; }
  void note_started() noexcept {
    ++started_;
    ++attempted_;
  }
  /// Counts one completed operation; takes a mark at segment boundaries.
  void op_completed();
  [[nodiscard]] bool in_timed_phase() const noexcept {
    return completed_ >= warmup_ && completed_ < warmup_ + timed_;
  }
  [[nodiscard]] std::uint64_t started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// Records one echo round trip (sim clock) of `bytes` over `path`.
  void note_echo(Path path, std::uint64_t bytes, SimTime sent_at);
  /// Counts application payload bytes submitted (requests and echoes),
  /// over all epochs.
  void note_payload(std::uint64_t bytes) noexcept {
    payload_world_ += bytes;
    if (in_timed_phase()) payload_timed_ += bytes;
  }
  void note_connect() noexcept { ++connects_; }

  /// Records a failed, refused or wrong operation.
  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] const std::vector<std::string>& failure_log() const noexcept {
    return failure_log_;
  }

  /// Objects that must outlive the callback currently running (sockets
  /// closing from inside their own callbacks); released between slices.
  void defer_release(std::shared_ptr<void> p) { graveyard_.push_back(std::move(p)); }

  /// Runs loop slices until `done()` holds. Returns false on a stall: no
  /// live events left, `sim_limit` of sim time used, or the host CPU budget
  /// spent.
  template <typename Pred>
  bool run_until(Pred&& done, SimDuration sim_limit) {
    auto& loop = world_->loop();
    const SimTime deadline = loop.now() + sim_limit;
    while (!done()) {
      if (loop.blocking_size() == 0 || loop.now() >= deadline ||
          cpu_now_ns() - start_cpu_ > k_cpu_budget_ns) {
        return false;
      }
      {
        Span s(tracer, k_loop_slice);
        loop.run_for(slice_);
      }
      graveyard_.clear();
    }
    graveyard_.clear();
    return true;
  }

  [[nodiscard]] const std::vector<Mark>& marks() const noexcept { return marks_; }
  [[nodiscard]] bool timed_done() const noexcept {
    return marks_.size() == static_cast<std::size_t>(segments_) + 1;
  }

  // ---- fingerprint inputs -----------------------------------------------
  [[nodiscard]] Digest& digest() noexcept { return digest_; }
  [[nodiscard]] std::vector<std::int64_t>& rtts() noexcept { return rtts_; }
  [[nodiscard]] std::uint64_t path_bytes(Path p) const noexcept {
    return path_bytes_[static_cast<int>(p)];
  }
  [[nodiscard]] std::uint64_t payload_world() const noexcept { return payload_world_; }
  [[nodiscard]] std::uint64_t payload_timed() const noexcept { return payload_timed_; }
  [[nodiscard]] std::uint64_t connects() const noexcept { return connects_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }

  const Options& opt;
  Tracer tracer;

 private:
  static constexpr std::int64_t k_cpu_budget_ns = 120LL * 1'000'000'000;

  std::uint64_t warmup_;
  std::uint64_t timed_;
  double calib_sensitivity_;
  int segments_;
  SimDuration slice_;
  std::int64_t start_cpu_;

  World* world_ = nullptr;
  std::int64_t world_start_cpu_ = 0;
  double setup_calib_ms_ = 0;
  std::uint64_t target_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<std::uint64_t> boundaries_;
  std::vector<Mark> marks_;

  std::uint64_t failures_ = 0;
  std::vector<std::string> failure_log_;
  std::vector<std::shared_ptr<void>> graveyard_;

  Digest digest_;
  std::vector<std::int64_t> rtts_;
  std::uint64_t path_bytes_[static_cast<int>(Path::count)] = {};
  std::uint64_t payload_world_ = 0;
  std::uint64_t payload_timed_ = 0;
  std::uint64_t connects_ = 0;
  std::uint64_t attempted_ = 0;  ///< operations started over all epochs
};

/// One workload: builds its deployment, connects, and keeps `h.may_start()`
/// operations in flight (closed loop) until the harness stops it.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual World& world() = 0;
  /// Deploys, attaches, connects and starts the first operations.
  virtual void start() = 0;
  /// Orderly end: closes the remaining sockets and stops every container.
  virtual void finish() = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, Harness& h,
                                        std::uint64_t seed);
/// How a workload's run is sized and sliced.
struct WorkloadShape {
  std::uint64_t ops_per_second;  ///< timed ops per --seconds, over all epochs
  std::uint64_t epoch_ops;       ///< timed ops per epoch (one deployment)
  std::uint64_t warmup_ops;      ///< untimed ops per epoch, after set-up
  SimDuration slice;             ///< sim time per event-loop slice
  int segments;                  ///< timed segments per epoch (even)
  /// How strongly this workload's CPU time follows the calibration
  /// kernel's (see to_reference), fitted on the tuning machine.
  double calib_sensitivity;
};
bool workload_shape(const std::string& name, WorkloadShape* out);

}  // namespace perfbench
