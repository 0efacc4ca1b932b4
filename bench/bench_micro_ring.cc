// M1: real wall-clock micro-benchmark of the lock-free SPSC ring that
// backs FreeFlow's shm channels, driven by two actual OS threads
// (google-benchmark). This is the one bench measuring the machine it runs
// on rather than the simulated testbed.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shm/spsc_ring.h"

namespace {

using freeflow::Buffer;
using freeflow::shm::SpscRing;

void BM_RingPushPopSameThread(benchmark::State& state) {
  const auto msg_size = static_cast<std::size_t>(state.range(0));
  SpscRing ring(1 << 20);
  Buffer msg(msg_size);
  Buffer out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(msg.view()));
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg_size));
}
BENCHMARK(BM_RingPushPopSameThread)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_RingTwoThreads(benchmark::State& state) {
  const auto msg_size = static_cast<std::size_t>(state.range(0));
  SpscRing ring(1 << 22);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> consumed{0};

  std::thread consumer([&]() {
    Buffer out;
    while (!stop.load(std::memory_order_relaxed)) {
      if (ring.try_pop(out)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    while (ring.try_pop(out)) {
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Buffer msg(msg_size);
  std::uint64_t produced = 0;
  for (auto _ : state) {
    while (!ring.try_push(msg.view())) {
      // ring full: consumer catching up
    }
    ++produced;
  }
  stop.store(true);
  consumer.join();
  if (consumed.load() != produced) state.SkipWithError("lost messages");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg_size));
}
BENCHMARK(BM_RingTwoThreads)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

// Many lightly loaded rings, as an rpc-style run has: 48 rings of 4 MiB,
// each holding two 256 B messages at a time, visited round-robin. Only a few
// KiB per ring are ever in flight, so the wall-clock cost here is set by how
// much ring storage the cursors sweep through the cache, not by the copies.
void BM_RingLightLoad(benchmark::State& state) {
  constexpr std::size_t k_rings = 48;
  constexpr std::size_t k_ring_bytes = 4u << 20;
  constexpr std::size_t k_depth = 2;
  std::vector<std::unique_ptr<SpscRing>> rings;
  for (std::size_t i = 0; i < k_rings; ++i) {
    rings.push_back(std::make_unique<SpscRing>(k_ring_bytes));
    for (std::size_t d = 0; d + 1 < k_depth; ++d) {
      if (!rings.back()->try_push(Buffer(256).view())) state.SkipWithError("ring full");
    }
  }
  Buffer msg(256);
  Buffer out;
  std::size_t next = 0;
  for (auto _ : state) {
    SpscRing& ring = *rings[next];
    next = next + 1 == k_rings ? 0 : next + 1;
    benchmark::DoNotOptimize(ring.try_push(msg.view()));
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_RingLightLoad);

}  // namespace

// Accepts the harness-wide `--json <path>` flag by mapping it onto
// google-benchmark's native JSON reporter.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      out_flag = std::string("--benchmark_out=") + argv[i + 1];
      args.erase(args.begin() + i, args.begin() + i + 2);
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
      break;
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
