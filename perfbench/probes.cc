#include "probes.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

namespace {

perfbench::AllocCount g_allocs;

void* counted_alloc(std::size_t size) {
  ++g_allocs.count;
  g_allocs.bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  ++g_allocs.count;
  g_allocs.bytes += size;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

std::int64_t read_clock(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t tv_ns(const timeval& tv) noexcept {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 + tv.tv_usec * 1000;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs.count;
  g_allocs.bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs.count;
  g_allocs.bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

AllocCount alloc_count() noexcept { return g_allocs; }

std::int64_t cpu_now_ns() noexcept { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t mono_now_ns() noexcept { return read_clock(CLOCK_MONOTONIC); }

Usage usage_now() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ns = tv_ns(ru.ru_utime);
  u.sys_ns = tv_ns(ru.ru_stime);
  u.minor_faults = ru.ru_minflt;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return u;
}

double to_reference(double cpu, double calib_ms, double sensitivity) {
  return cpu * std::pow(k_calib_ref_ms / calib_ms, sensitivity);
}

double calibration_ms(int steps) {
  // A pseudo-random read-modify-write walk over 4 MiB (twice this core's
  // L2, so it runs out of the shared L3 like the simulator's lane rings and
  // event queues) feeding a dependent multiply chain.
  constexpr std::size_t k_words = (4u << 20) / sizeof(std::uint64_t);
  static std::vector<std::uint64_t> table(k_words, 1);
  // Untimed sequential pass: the walk must not measure how much of the
  // table the program under test evicted since the last run.
  std::uint64_t acc = 0;
  for (const std::uint64_t v : table) acc += v;
  const std::int64_t t0 = cpu_now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (k_words - 1)];
    slot += x;
    acc += slot * 0xBF58476D1CE4E5B9ULL;
  }
  const std::int64_t t1 = cpu_now_ns();
  // Keep the result observable so the loop is not optimised away.
  table[0] ^= acc;
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace perfbench
