// B15: raw simulator-core throughput. Replays the same micro-ring workload
// (64 nodes passing tokens with ~100 ns hops, RTO-style cancellable timers
// riding along) on two event loops:
//
//   seed — a verbatim copy of the original core: std::priority_queue,
//          std::function events, one make_shared<bool> cancel token per
//          schedule() (kept here so the speedup stays measurable after the
//          real loop moved on);
//   sim  — the current sim::EventLoop (timer wheel over a recycled node
//          pool, inline callbacks, pooled cancel tokens).
//
// A counting global operator new measures allocations per event; the whole
// point of the hot-path overhaul is that the `sim` row sustains a multiple
// of the seed's events/sec (ci/perf_gate.py holds the floor) with ~0
// steady-state allocations/event. Results land in
// BENCH_sim_core.json (override with --json <path>).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "bench_common.h"
#include "sim/event_loop.h"

// ------------------------------------------------- counting allocator hook

namespace {
std::uint64_t g_allocs = 0;  // single-threaded bench: plain counter
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (n + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) std::abort();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace freeflow::bench {
namespace {

// ------------------------------------------------------ seed loop (copy)

namespace seed {

class EventHandle {
 public:
  EventHandle() = default;
  void cancel() noexcept {
    if (auto p = cancelled_.lock()) *p = true;
    cancelled_.reset();
  }
  [[nodiscard]] bool pending() const noexcept {
    auto p = cancelled_.lock();
    return p != nullptr && !*p;
  }

 private:
  friend class EventLoop;
  explicit EventHandle(std::weak_ptr<bool> c) : cancelled_(std::move(c)) {}
  std::weak_ptr<bool> cancelled_;
};

class EventLoop {
 public:
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  EventHandle schedule(SimDuration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  // The seed had one schedule(); both bench entry points map onto it.
  EventHandle schedule_cancellable(SimDuration delay, std::function<void()> fn) {
    return schedule(delay, std::move(fn));
  }

  EventHandle schedule_at(SimTime at, std::function<void()> fn) {
    auto cancelled = std::make_shared<bool>(false);
    EventHandle handle{std::weak_ptr<bool>(cancelled)};
    queue_.push(Event{at, next_seq_++, std::move(fn), std::move(cancelled)});
    return handle;
  }

  bool step() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      if (*ev.cancelled) continue;
      now_ = ev.at;
      ++executed_;
      ev.fn();
      return true;
    }
    return false;
  }

  SimTime run() {
    while (step()) {
    }
    return now_;
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace seed

// ------------------------------------------------------------- workload

/// Token-passing ring: 64 logical nodes, 64 in-flight tokens, each hop one
/// ~100 ns event whose closure captures 24 bytes (the packet layer's size
/// class, and deliberately beyond std::function's 16-byte SBO). The callback
/// body is deliberately tiny — this benchmark measures scheduler overhead,
/// not payload arithmetic. Every 256 hops a token re-arms a 20 us
/// cancellable timeout, cancelling the previous one — the TCP RTO pattern.
template <typename Loop, typename Handle>
class MicroRing {
 public:
  explicit MicroRing(Loop& loop) : loop_(loop) {}

  void run(std::uint64_t events) {
    remaining_ = events;
    const int tokens =
        static_cast<int>(std::min<std::uint64_t>(k_tokens, events));
    for (int t = 0; t < tokens; ++t) hop(t * (k_nodes / k_tokens));
    loop_.run();
  }

  [[nodiscard]] std::uint64_t checksum() const noexcept { return sink_; }

 private:
  static constexpr int k_nodes = 64;
  static constexpr int k_tokens = 64;

  void hop(int node) {
    if (remaining_ == 0) return;
    --remaining_;
    if (++hops_ % 256 == 0) {
      timer_.cancel();
      timer_ = loop_.schedule_cancellable(20'000, [this]() { ++timeouts_; });
    }
    const std::uint64_t a = ++counters_[static_cast<std::size_t>(node)];
    loop_.schedule(100 + node % 3, [this, node, a]() {
      sink_ += a * 0x9e3779b97f4a7c15ULL;
      hop((node + 1) % k_nodes);
    });
  }

  Loop& loop_;
  std::uint64_t remaining_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t sink_ = 0;
  std::uint64_t counters_[k_nodes] = {};
  Handle timer_;
};

struct RunStats {
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t checksum = 0;
};

template <typename Loop, typename Handle>
RunStats drive(std::uint64_t warmup_events, std::uint64_t measure_events) {
  Loop loop;
  MicroRing<Loop, Handle> ring(loop);
  ring.run(warmup_events);  // warm pools, wheel slots and freelists

  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = std::chrono::steady_clock::now();
  ring.run(measure_events);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = g_allocs - allocs0;

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  RunStats out;
  out.events_per_sec = static_cast<double>(measure_events) / secs;
  out.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(measure_events);
  out.checksum = ring.checksum();
  return out;
}

}  // namespace
}  // namespace freeflow::bench

int main(int argc, char** argv) {
  using namespace freeflow;
  using namespace freeflow::bench;

  banner("Simulator core: events/sec and allocations/event, micro-ring",
         "hot-path gate: sim loop >= 4.2x seed loop, ~0 allocs/event");
  JsonReport json(argc, argv, "sim_core", "BENCH_sim_core.json");

  // Warmup long enough for the node, heap and token pools to reach their
  // high-water marks, so the measured window sees only recycling.
  constexpr std::uint64_t k_warmup = 1024 * 1024;
  constexpr std::uint64_t k_measure = 2'000'000;

  // One ratio of two wall-clock timings is too noisy to gate on a shared
  // machine, so the loops run as k_pairs interleaved seed/sim pairs
  // and every reported figure is a median over the pairs.
  constexpr int k_pairs = 5;
  std::vector<RunStats> seed_runs, sim_runs;
  std::vector<double> ratios;
  for (int p = 0; p < k_pairs; ++p) {
    seed_runs.push_back(drive<seed::EventLoop, seed::EventHandle>(k_warmup, k_measure));
    sim_runs.push_back(drive<sim::EventLoop, sim::EventHandle>(k_warmup, k_measure));
    FF_CHECK(seed_runs.back().checksum == sim_runs.back().checksum);  // same simulated work
    ratios.push_back(sim_runs.back().events_per_sec / seed_runs.back().events_per_sec);
    std::printf("pair %d: seed %.2fM  sim %.2fM  ratio %.2fx\n", p + 1,
                seed_runs.back().events_per_sec / 1e6, sim_runs.back().events_per_sec / 1e6,
                ratios.back());
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  const auto median_of = [&](const std::vector<RunStats>& runs, double RunStats::*field) {
    std::vector<double> v;
    for (const RunStats& r : runs) v.push_back(r.*field);
    return median(v);
  };
  const double seed_eps = median_of(seed_runs, &RunStats::events_per_sec);
  const double sim_eps = median_of(sim_runs, &RunStats::events_per_sec);
  const double seed_allocs = median_of(seed_runs, &RunStats::allocs_per_event);
  const double sim_allocs = median_of(sim_runs, &RunStats::allocs_per_event);
  const double speedup = median(ratios);

  std::printf("%-10s %16s %16s   (medians of %d pairs)\n", "loop", "events/sec",
              "allocs/event", k_pairs);
  std::printf("%-10s %14.2fM %16.3f\n", "seed", seed_eps / 1e6, seed_allocs);
  std::printf("%-10s %14.2fM %16.3f\n", "sim", sim_eps / 1e6, sim_allocs);
  std::printf("speedup: %.2fx (median pair ratio)\n", speedup);

  json.add("seed_events_per_sec", seed_eps);
  json.add("seed_allocs_per_event", seed_allocs);
  json.add("sim_events_per_sec", sim_eps);
  json.add("sim_allocs_per_event", sim_allocs);
  json.add("speedup", speedup);
  json.add("events_measured", static_cast<double>(k_measure));
  json.add("pairs", static_cast<double>(k_pairs));

  footer();
  return 0;
}
