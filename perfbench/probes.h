// Process probes for the host-clock benchmark: a counting global operator
// new, getrusage snapshots, the process CPU clock and a fixed calibration
// kernel. Nothing here calls into the FreeFlow library.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocation totals since process start, counted by the global operator new
/// replaced in probes.cc. The process is single-threaded.
struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCount alloc_count() noexcept;

/// Process CPU time (user+sys) in nanoseconds.
[[nodiscard]] std::int64_t cpu_now_ns() noexcept;
/// Monotonic host clock in nanoseconds (span timestamps: the process is
/// single-threaded, so short spans read the same as thread CPU time at a
/// tenth of the cost).
[[nodiscard]] std::int64_t mono_now_ns() noexcept;

/// One getrusage(RUSAGE_SELF) reading.
struct Usage {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  std::int64_t minor_faults = 0;
  double max_rss_mb = 0.0;
};
[[nodiscard]] Usage usage_now() noexcept;

/// Steps of one calibration run (about 10 ms of one core).
constexpr int k_calib_steps = 1 << 20;
/// The reference CPU in which host-clock results are expressed: one on which
/// a calibration run takes exactly this long.
constexpr double k_calib_ref_ms = 10.0;

/// Converts CPU time measured while calibration runs took `calib_ms` into
/// reference CPU time: t * (k_calib_ref_ms / calib_ms)^sensitivity. The
/// sensitivity is how strongly the measured code slows down when the
/// calibration kernel does (1 = in proportion).
[[nodiscard]] double to_reference(double cpu, double calib_ms, double sensitivity);

/// Runs a fixed integer/memory kernel of `steps` steps and returns the CPU
/// milliseconds it took. The work never changes, so drift of this number
/// is drift of the machine (other tenants on the same cores and caches),
/// not of the program under test.
[[nodiscard]] double calibration_ms(int steps = k_calib_steps);
double copy_calib_ms();


}  // namespace perfbench
