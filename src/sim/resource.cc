#include "sim/resource.h"

#include <algorithm>

#include "common/status.h"

namespace freeflow::sim {

Resource::Resource(EventLoop& loop, std::string name, double units_per_second, int servers)
    : loop_(loop), name_(std::move(name)), units_per_second_(units_per_second) {
  FF_CHECK(units_per_second > 0);
  FF_CHECK(servers >= 1);
  free_at_.assign(static_cast<std::size_t>(servers), 0);
}

SimDuration Resource::service_time(double units) const noexcept {
  if (units <= 0) return 0;
  return static_cast<SimDuration>(units / units_per_second_ * 1e9);
}

void Resource::submit(double units, DoneFn on_done, UsageAccount* account,
                      SimDuration extra_delay) {
  // FIFO assignment to the earliest-free server.
  auto it = std::min_element(free_at_.begin(), free_at_.end());
  const SimTime start = std::max(loop_.now(), *it);
  const SimDuration svc = service_time(units);
  const SimTime done = start + svc;
  *it = done;
  if (!on_done && extra_delay == 0) {
    // Fire-and-forget (utilization charges, bus coupling): nobody observes
    // the completion, so account eagerly and skip the event entirely. The
    // server stays occupied via free_at_, which is all later jobs see.
    busy_ns_ += static_cast<double>(svc);
    ++jobs_served_;
    if (account != nullptr) account->busy_ns += static_cast<double>(svc);
    return;
  }
  loop_.schedule_at(done + extra_delay,
                    [this, svc, account, cb = std::move(on_done)]() mutable {
                      busy_ns_ += static_cast<double>(svc);
                      ++jobs_served_;
                      if (account != nullptr) account->busy_ns += static_cast<double>(svc);
                      if (cb) cb();
                    });
}

SimDuration Resource::backlog_ns() const noexcept {
  const SimTime now = loop_.now();
  SimTime least = *std::min_element(free_at_.begin(), free_at_.end());
  return std::max<SimDuration>(0, least - now);
}

void Resource::mark() noexcept {
  mark_busy_ns_ = busy_ns_;
  mark_time_ = loop_.now();
}

double Resource::utilization_since_mark() const noexcept {
  const double window = static_cast<double>(loop_.now() - mark_time_);
  if (window <= 0) return 0.0;
  return (busy_ns_ - mark_busy_ns_) / (window * static_cast<double>(free_at_.size()));
}

double Resource::cores_busy_since_mark() const noexcept {
  return utilization_since_mark() * static_cast<double>(free_at_.size());
}

void SerialExecutor::submit(double units, DoneFn done, UsageAccount* account,
                            Resource* bus, double bus_bytes) {
  if (busy_) {
    push_job(Job{units, std::move(done), account, bus, bus_bytes});
    return;
  }
  // Idle: the job becomes active directly (one move of the capture); the
  // ring only holds jobs that wait behind an active one.
  active_.units = units;
  active_.done = std::move(done);
  active_.account = account;
  active_.bus = bus;
  active_.bus_bytes = bus_bytes;
  start_active();
}

void SerialExecutor::push_job(Job job) {
  if (queued_ == queue_.size()) {
    std::vector<Job> grown(std::max<std::size_t>(4, 2 * queue_.size()));
    for (std::size_t i = 0; i < queued_; ++i) grown[i] = std::move(queued_at(i));
    queue_ = std::move(grown);
    first_ = 0;
  }
  queued_at(queued_++) = std::move(job);
}

void SerialExecutor::start_next() {
  if (queued_ == 0) {
    busy_ = false;
    return;
  }
  active_ = std::move(queued_at(0));
  first_ = (first_ + 1) & (queue_.size() - 1);
  --queued_;
  start_active();
}

void SerialExecutor::start_active() {
  busy_ = true;
  if (active_.bus != nullptr && active_.bus_bytes > 0) {
    // Memory-bus coupling: the copy stalls by the bus backlog seen now.
    const SimDuration wait = active_.bus->backlog_ns();
    active_.bus->submit(active_.bus_bytes, nullptr);
    if (wait > 0) {
      pool_.loop().schedule(wait, [this, alive = std::weak_ptr<const bool>(alive_)]() {
        if (!alive.expired()) launch_active();
      });
      return;
    }
  }
  launch_active();
}

void SerialExecutor::launch_active() {
  pool_.submit(active_.units,
               [this, alive = std::weak_ptr<const bool>(alive_)]() {
                 if (!alive.expired()) finish_active();
               },
               active_.account);
}

void SerialExecutor::finish_active() {
  std::weak_ptr<const bool> alive = alive_;
  DoneFn done = std::move(active_.done);
  if (done) done();  // may re-submit — or destroy this executor entirely
  if (!alive.expired()) start_next();
}

}  // namespace freeflow::sim
