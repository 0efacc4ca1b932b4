// Rate-limited FIFO resources: CPU core pools, memory buses, NIC processors
// and links are all instances of `Resource`. Jobs occupy one server for
// (units / units_per_second) of virtual time; contention and therefore
// throughput ceilings and utilization emerge from the queueing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"
#include "sim/event_loop.h"

namespace freeflow::sim {

/// Per-consumer usage tally, e.g. "CPU burned by container c7's TCP stack".
struct UsageAccount {
  std::string name;
  double busy_ns = 0;

  explicit UsageAccount(std::string n = "") : name(std::move(n)) {}
};

/// Completion callback for resource jobs. Inline capture only (64 bytes):
/// keeps the packet hot path allocation-free. Sized so that one embedded
/// std::function or a few pointers fit; a larger capture fails to compile.
using DoneFn = common::InlineFunction<void(), 64>;

class Resource {
 public:
  /// `units_per_second`: service rate of EACH server (e.g. 1e9 "work-ns" per
  /// second for a CPU core, or bytes/sec for a link).
  /// `servers`: number of parallel servers (e.g. CPU cores).
  Resource(EventLoop& loop, std::string name, double units_per_second, int servers = 1);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Enqueues `units` of work. `on_done` fires when service completes plus
  /// `extra_delay` (used for link propagation). `account`, if non-null, is
  /// charged the service time.
  void submit(double units, DoneFn on_done, UsageAccount* account = nullptr,
              SimDuration extra_delay = 0);

  /// Service time for `units` of work on one server, in virtual ns.
  [[nodiscard]] SimDuration service_time(double units) const noexcept;

  /// Work currently queued or in service, expressed as ns until the least
  /// loaded server frees up. 0 when a server is idle.
  [[nodiscard]] SimDuration backlog_ns() const noexcept;

  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int servers() const noexcept { return static_cast<int>(free_at_.size()); }
  [[nodiscard]] double rate() const noexcept { return units_per_second_; }
  [[nodiscard]] std::uint64_t jobs_served() const noexcept { return jobs_served_; }
  [[nodiscard]] double busy_ns_total() const noexcept { return busy_ns_; }

  /// Starts a measurement window at the current virtual time.
  void mark() noexcept;

  /// Fraction of total capacity used since mark(), in [0, ~1].
  [[nodiscard]] double utilization_since_mark() const noexcept;

  /// Same, expressed like `top`: 1.0 per fully-busy server (so a 4-core pool
  /// can report up to 4.0, i.e. "400 %").
  [[nodiscard]] double cores_busy_since_mark() const noexcept;

 private:
  EventLoop& loop_;
  std::string name_;
  double units_per_second_;
  std::vector<SimTime> free_at_;

  std::uint64_t jobs_served_ = 0;
  double busy_ns_ = 0;
  double mark_busy_ns_ = 0;
  SimTime mark_time_ = 0;
};

/// A single software thread multiplexed onto a core pool: jobs submitted
/// here run one at a time (in order), each occupying one pool server while
/// active. This models the fact that one connection's stack processing (or
/// one router/agent process) cannot use more than one core, which is what
/// keeps per-flow TCP throughput CPU-bound at realistic values.
class SerialExecutor {
 public:
  explicit SerialExecutor(Resource& pool) : pool_(pool) {}

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  /// Runs `units` of work (after an optional pre-delay modeling memory-bus
  /// backpressure computed at start time via `bus_bytes` on `bus`). Each
  /// submission is its own pool job, queued FIFO behind the active one; on
  /// an idle executor it starts at once, without passing through the queue.
  void submit(double units, DoneFn done, UsageAccount* account = nullptr,
              Resource* bus = nullptr, double bus_bytes = 0);

  [[nodiscard]] std::size_t queue_depth() const noexcept { return queued_; }

 private:
  struct Job {
    double units;
    DoneFn done;
    UsageAccount* account;
    Resource* bus;
    double bus_bytes;
  };

  // The in-flight job lives in `active_` (not in a callback capture): the
  // loop/pool callbacks then only capture `this`, which keeps them well under
  // the inline-capture budget and avoids nesting DoneFn inside DoneFn.
  void start_next();
  void start_active();
  void launch_active();
  void finish_active();
  [[nodiscard]] Job& queued_at(std::size_t i) noexcept {
    return queue_[(first_ + i) & (queue_.size() - 1)];
  }
  void push_job(Job job);

  Resource& pool_;
  /// FIFO of jobs waiting behind the active one: a ring of power-of-two
  /// size that only ever grows, so steady traffic allocates nothing.
  std::vector<Job> queue_;
  std::size_t first_ = 0;
  std::size_t queued_ = 0;
  Job active_{};
  bool busy_ = false;
  /// Liveness token: pool/loop completions hold a weak observer, so an
  /// executor destroyed with work in flight (channel teardown) turns its
  /// pending completions into no-ops instead of use-after-free — and queued
  /// jobs never need to keep their owner alive (which would be a leak cycle
  /// for jobs that are still queued at shutdown).
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace freeflow::sim
