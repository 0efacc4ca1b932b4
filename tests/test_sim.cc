#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/resource.h"

namespace freeflow::sim {
namespace {

// -------------------------------------------------------------- EventLoop

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30, [&]() { order.push_back(3); });
  loop.schedule(10, [&]() { order.push_back(1); });
  loop.schedule(20, [&]() { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(100, [&order, i]() { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NestedSchedulingAdvancesTime) {
  EventLoop loop;
  SimTime inner_fired = -1;
  loop.schedule(10, [&]() {
    loop.schedule(5, [&]() { inner_fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(inner_fired, 15);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  EventHandle h = loop.schedule_cancellable(10, [&]() { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelAfterFireIsHarmless) {
  EventLoop loop;
  EventHandle h = loop.schedule_cancellable(1, []() {});
  loop.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(EventLoop, QueueSizeCountsLiveEventsOnly) {
  EventLoop loop;
  EventHandle near = loop.schedule_cancellable(10, []() {});
  EventHandle far = loop.schedule_cancellable(1'000'000, []() {});  // heap
  loop.schedule(20, []() {});
  EXPECT_EQ(loop.queue_size(), 3u);
  near.cancel();  // reclaimed eagerly, not tombstoned
  EXPECT_EQ(loop.queue_size(), 2u);
  far.cancel();
  EXPECT_EQ(loop.queue_size(), 1u);
  loop.run();
  EXPECT_EQ(loop.queue_size(), 0u);
  EXPECT_EQ(loop.events_executed(), 1u);
}

TEST(EventLoop, FifoAmongEqualsAcrossWheelHeapBoundary) {
  // The first event lands beyond the near wheel's horizon (overflow heap);
  // the second, scheduled for the same timestamp once the loop has advanced,
  // lands in the wheel. Insertion order must still win the tie.
  EventLoop loop;
  constexpr SimTime target = 100'000;  // beyond the wheel horizon from t=0
  std::vector<int> order;
  loop.schedule_at(target, [&]() { order.push_back(0); });  // heap
  loop.schedule_at(target - 100, [&]() {
    loop.schedule_at(target, [&]() { order.push_back(1); });  // wheel
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(loop.now(), target);
}

TEST(EventLoop, DeterministicAcrossIdenticalRuns) {
  // Two identical schedules must execute bit-for-bit identically: same
  // event order, same timestamps, same final clock — regardless of which
  // events route through the near wheel vs the overflow heap.
  auto drive = [](std::vector<std::pair<SimTime, int>>& trace) {
    EventLoop loop;
    // A mix of near (wheel), far (heap), equal-time, and nested schedules.
    for (int i = 0; i < 50; ++i) {
      const SimTime at = (i % 2 == 0) ? 1000 + i : 500'000 + (i % 7) * 1000;
      loop.schedule_at(at, [&trace, &loop, i]() {
        trace.emplace_back(loop.now(), i);
        if (i % 5 == 0) {
          loop.schedule(40'000, [&trace, &loop, i]() {
            trace.emplace_back(loop.now(), 1000 + i);
          });
        }
      });
    }
    loop.run();
    return loop.now();
  };
  std::vector<std::pair<SimTime, int>> t1, t2;
  const SimTime end1 = drive(t1);
  const SimTime end2 = drive(t2);
  EXPECT_EQ(end1, end2);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

TEST(EventLoop, CancellationUnderLoad) {
  // Many pending cancellable events in both the wheel and the heap; cancel
  // every other one (including from inside a running callback) and verify
  // exactly the survivors fire, in timestamp order.
  EventLoop loop;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 200; ++i) {
    const SimTime at = (i % 2 == 0) ? 100 + i : 200'000 + i;
    handles.push_back(loop.schedule_cancellable(at, [&fired, i]() { fired.push_back(i); }));
  }
  for (int i = 0; i < 200; i += 4) handles[static_cast<std::size_t>(i)].cancel();
  // Cancel a batch mid-run too: the first surviving event kills 50..99.
  loop.schedule(1, [&handles]() {
    for (int i = 50; i < 100; ++i) handles[static_cast<std::size_t>(i)].cancel();
  });
  loop.run();
  std::vector<int> expect;
  for (int i = 0; i < 200; i += 2) {  // wheel half (even i), time order
    if (i % 4 == 0 || (i >= 50 && i < 100)) continue;
    expect.push_back(i);
  }
  for (int i = 1; i < 200; i += 2) {  // heap half (odd i)
    if (i >= 50 && i < 100) continue;
    expect.push_back(i);
  }
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(loop.queue_size(), 0u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&]() { ++fired; });
  loop.schedule(100, [&]() { ++fired; });
  loop.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 50);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RunForAdvancesRelative) {
  EventLoop loop;
  loop.run_for(1000);
  EXPECT_EQ(loop.now(), 1000);
  loop.run_for(500);
  EXPECT_EQ(loop.now(), 1500);
}

TEST(EventLoop, CountsExecutedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule(i, []() {});
  loop.run();
  EXPECT_EQ(loop.events_executed(), 7u);
}

TEST(EventLoop, DestroyedWithPendingEventsReleasesCaptures) {
  auto held = std::make_shared<int>(0);
  {
    EventLoop loop;
    loop.schedule(10, [held]() {});                        // wheel
    loop.schedule(10, [held]() {});                        // same slot
    loop.schedule(1'000'000, [held]() {});                 // heap
    EventHandle c = loop.schedule_cancellable(20, [held]() {});
    loop.schedule_maintenance(2'000'000, [held]() {});     // heap, maintenance
    EXPECT_EQ(held.use_count(), 6);
    c.cancel();  // a cancelled event drops its capture at once
    EXPECT_EQ(held.use_count(), 5);
    loop.run_until(10);  // so does an executed one
    EXPECT_EQ(held.use_count(), 3);
    loop.schedule(5, [held]() {});  // into the node the last event vacated
    EXPECT_EQ(held.use_count(), 4);
  }
  EXPECT_EQ(held.use_count(), 1);
}

// ------------------------------------------------- differential ordering

/// How a scenario event was scheduled.
enum class Kind { plain, absolute, cancellable, maintenance };

/// The loop under test, seen by a scenario: schedule event `id`, cancel it.
struct Port {
  std::function<SimTime()> now;
  std::function<void(Kind, SimDuration, int)> schedule;
  std::function<void(int)> cancel;
};

/// A seeded random schedule. What event `id` does when it fires depends on
/// the seed and on the scenario's own state, which two loops that execute
/// the same order evolve identically; any ordering difference shows up in
/// `trace`.
class Scenario {
 public:
  Scenario(std::uint64_t seed, int budget) : rng_(seed), budget_(budget) {}

  /// Initial population, and cancels before anything runs.
  void seed_events(Port& p) {
    for (int i = 0; i < 40; ++i) spawn(p);
    for (int i = 0; i < 10; ++i) cancel_some(p);
  }

  void fire(Port& p, int id) {
    trace.emplace_back(p.now(), id);
    const auto children = static_cast<int>(rng_() % 4);
    for (int i = 0; i < children && budget_ > 0; ++i) spawn(p);
    if (rng_() % 3 == 0) cancel_some(p);
  }

  /// Cancels the head, middle or tail of one same-timestamp group.
  void cancel_some(Port& p) {
    if (groups_.empty()) return;
    const std::vector<int>& g = groups_[rng_() % groups_.size()];
    const std::size_t pos[] = {0, g.size() / 2, g.size() - 1};
    p.cancel(g[pos[rng_() % 3]]);
  }

  std::vector<std::pair<SimTime, int>> trace;

 private:
  SimDuration pick_delay() {
    switch (rng_() % 6) {
      case 0: return 0;  // cascades into the executing timestamp
      case 1: return static_cast<SimDuration>(rng_() % 16);
      case 2: return static_cast<SimDuration>(8192 - 3 + rng_() % 6);  // straddles the horizon
      case 3: return static_cast<SimDuration>(rng_() % 8192);
      case 4: return static_cast<SimDuration>(8192 + rng_() % 40'000);  // overflow heap
      default: return static_cast<SimDuration>(rng_() % 300);
    }
  }

  void spawn(Port& p) {
    const SimDuration delay = pick_delay();
    if (rng_() % 4 == 0) {
      // A run of cancellable events on one timestamp, for head/middle/tail
      // cancels.
      std::vector<int> g;
      const int n = 3 + static_cast<int>(rng_() % 3);
      for (int i = 0; i < n; ++i) g.push_back(add(p, Kind::cancellable, delay));
      groups_.push_back(std::move(g));
      return;
    }
    static constexpr Kind k_kinds[] = {Kind::plain, Kind::absolute, Kind::cancellable,
                                       Kind::maintenance};
    const Kind kind = k_kinds[rng_() % 4];
    const int id = add(p, kind, delay);
    if (kind == Kind::cancellable || kind == Kind::maintenance) groups_.push_back({id});
  }

  int add(Port& p, Kind kind, SimDuration delay) {
    --budget_;
    p.schedule(kind, delay, next_id_);
    return next_id_++;
  }

  std::mt19937_64 rng_;
  int budget_;
  int next_id_ = 0;
  std::vector<std::vector<int>> groups_;
};

/// The reference: one ordered map keyed by (at, seq), nothing else.
class ReferenceLoop {
 public:
  explicit ReferenceLoop(Scenario& sc) : sc_(sc) {}

  Port port() {
    return {[this]() { return now_; },
            [this](Kind kind, SimDuration delay, int id) {
              const Key key{now_ + delay, seq_++};
              queue_[key] = {id, kind == Kind::maintenance};
              if (kind == Kind::maintenance) ++maintenance_;
              if (kind == Kind::cancellable || kind == Kind::maintenance) keys_[id] = key;
            },
            [this](int id) {
              auto it = keys_.find(id);
              if (it == keys_.end()) return;  // fired or cancelled already
              if (queue_[it->second].second) --maintenance_;
              queue_.erase(it->second);
              keys_.erase(it);
            }};
  }

  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) pop();
    now_ = std::max(now_, deadline);
  }
  void run() {
    while (queue_.size() > maintenance_) pop();
  }

  SimTime now() const { return now_; }
  std::size_t queue_size() const { return queue_.size(); }
  std::size_t maintenance_size() const { return maintenance_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;

  void pop() {
    const auto it = queue_.begin();
    now_ = it->first.first;
    const auto [id, maintenance] = it->second;
    if (maintenance) --maintenance_;
    queue_.erase(it);
    keys_.erase(id);
    Port p = port();
    sc_.fire(p, id);
  }

  Scenario& sc_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t maintenance_ = 0;
  std::map<Key, std::pair<int, bool>> queue_;
  std::unordered_map<int, Key> keys_;
};

TEST(EventLoop, MatchesReferenceOrderUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    constexpr int k_budget = 6000;

    Scenario ref_sc(seed, k_budget);
    ReferenceLoop ref(ref_sc);
    Port ref_port = ref.port();
    ref_sc.seed_events(ref_port);
    ref.run_until(9000);
    ref_sc.cancel_some(ref_port);
    ref.run();

    Scenario sc(seed, k_budget);
    EventLoop loop;
    std::unordered_map<int, EventHandle> handles;
    Port port;
    port.now = [&loop]() { return loop.now(); };
    port.cancel = [&handles](int id) { handles[id].cancel(); };
    port.schedule = [&](Kind kind, SimDuration delay, int id) {
      auto fn = [&sc, &port, id]() { sc.fire(port, id); };
      switch (kind) {
        case Kind::plain: loop.schedule(delay, fn); break;
        case Kind::absolute: loop.schedule_at(loop.now() + delay, fn); break;
        case Kind::cancellable: handles[id] = loop.schedule_cancellable(delay, fn); break;
        case Kind::maintenance: handles[id] = loop.schedule_maintenance(delay, fn); break;
      }
    };
    sc.seed_events(port);
    loop.run_until(9000);
    sc.cancel_some(port);
    loop.run();

    ASSERT_GT(ref_sc.trace.size(), 1000u);
    EXPECT_EQ(sc.trace, ref_sc.trace);
    EXPECT_EQ(loop.now(), ref.now());
    EXPECT_EQ(loop.queue_size(), ref.queue_size());
    EXPECT_EQ(loop.maintenance_size(), ref.maintenance_size());
  }
}

// ---------------------------------------------------------------- quiesce

TEST(EventLoop, MaintenanceEventDoesNotKeepRunAlive) {
  EventLoop loop;
  bool maint_fired = false;
  bool work_fired = false;
  loop.schedule_maintenance(1'000'000, [&]() { maint_fired = true; });
  loop.schedule(100, [&]() { work_fired = true; });
  EXPECT_EQ(loop.queue_size(), 2u);
  EXPECT_EQ(loop.maintenance_size(), 1u);
  EXPECT_EQ(loop.blocking_size(), 1u);
  loop.run();
  // run() quiesced after the real work: the far-out maintenance timer did
  // not drag the clock forward, and it is still queued.
  EXPECT_TRUE(work_fired);
  EXPECT_FALSE(maint_fired);
  EXPECT_EQ(loop.now(), 100);
  EXPECT_EQ(loop.maintenance_size(), 1u);
}

TEST(EventLoop, MaintenanceFiresUnderRunUntilAndBeforeLaterWork) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_maintenance(10, [&]() { order.push_back(1); });
  loop.schedule(20, [&]() { order.push_back(2); });
  // Interleaved with blocking work, maintenance executes in plain time
  // order — run() only skips it once nothing else remains.
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  loop.schedule_maintenance(10, [&]() { order.push_back(3); });
  loop.run_until(loop.now() + 100);  // deadline-driven: maintenance fires
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.maintenance_size(), 0u);
}

TEST(EventLoop, MaintenanceCancelAndRearmKeepAccounting) {
  EventLoop loop;
  EventHandle h = loop.schedule_maintenance(50, []() {});
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(loop.maintenance_size(), 1u);
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(loop.maintenance_size(), 0u);
  EXPECT_EQ(loop.queue_size(), 0u);

  // A self-re-arming maintenance timer (the heartbeat-monitor shape) stays
  // maintenance across generations and still never blocks run().
  int ticks = 0;
  EventHandle timer;
  std::function<void()> tick = [&]() {
    ++ticks;
    if (ticks < 3) timer = loop.schedule_maintenance(10, [&]() { tick(); });
  };
  timer = loop.schedule_maintenance(10, [&]() { tick(); });
  loop.schedule(25, []() {});  // keeps the loop alive past two ticks
  loop.run();
  EXPECT_EQ(ticks, 2);  // t=10, t=20 fired; t=30 re-arm left queued
  EXPECT_EQ(loop.maintenance_size(), 1u);
  EXPECT_EQ(loop.now(), 25);
  timer.cancel();
  EXPECT_EQ(loop.maintenance_size(), 0u);
}

// --------------------------------------------------------------- Resource

TEST(Resource, ServiceTimeMatchesRate) {
  EventLoop loop;
  Resource r(loop, "cpu", 1e9, 1);  // 1e9 units/sec: 1 unit = 1 ns
  EXPECT_EQ(r.service_time(1000), 1000);
  EXPECT_EQ(r.service_time(0), 0);
}

TEST(Resource, SingleServerSerializesJobs) {
  EventLoop loop;
  Resource r(loop, "link", 1e9, 1);
  std::vector<SimTime> done;
  r.submit(1000, [&]() { done.push_back(loop.now()); });
  r.submit(1000, [&]() { done.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 2000);  // queued behind the first
}

TEST(Resource, MultiServerRunsInParallel) {
  EventLoop loop;
  Resource r(loop, "cpu", 1e9, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    r.submit(1000, [&]() { done.push_back(loop.now()); });
  }
  loop.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
  EXPECT_EQ(done[2], 2000);
  EXPECT_EQ(done[3], 2000);
}

TEST(Resource, ExtraDelayDoesNotHoldServer) {
  EventLoop loop;
  Resource r(loop, "link", 1e9, 1);
  std::vector<SimTime> done;
  r.submit(1000, [&]() { done.push_back(loop.now()); }, nullptr, 500);
  r.submit(1000, [&]() { done.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1500);  // 1000 service + 500 propagation
  EXPECT_EQ(done[1], 2000);  // server freed at 1000, not 1500
}

TEST(Resource, AccountsBusyTimePerConsumer) {
  EventLoop loop;
  Resource r(loop, "cpu", 1e9, 1);
  UsageAccount alice("alice"), bob("bob");
  r.submit(300, nullptr, &alice);
  r.submit(700, nullptr, &bob);
  loop.run();
  EXPECT_DOUBLE_EQ(alice.busy_ns, 300.0);
  EXPECT_DOUBLE_EQ(bob.busy_ns, 700.0);
  EXPECT_DOUBLE_EQ(r.busy_ns_total(), 1000.0);
  EXPECT_EQ(r.jobs_served(), 2u);
}

TEST(Resource, UtilizationOverWindow) {
  EventLoop loop;
  Resource r(loop, "cpu", 1e9, 2);
  r.mark();
  // One of two servers busy for the whole window: 50 % utilization.
  bool finished = false;
  r.submit(10000, [&]() { finished = true; });
  loop.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(loop.now(), 10000);
  EXPECT_NEAR(r.utilization_since_mark(), 0.5, 1e-9);
  EXPECT_NEAR(r.cores_busy_since_mark(), 1.0, 1e-9);
}

TEST(Resource, FireAndForgetSkipsTheCompletionEvent) {
  EventLoop loop;
  Resource r(loop, "cpu", 1e9, 1);
  // No completion, no extra delay: accounting is eager and no event is
  // scheduled, so the loop has nothing to run...
  r.submit(10000, nullptr);
  EXPECT_EQ(r.jobs_served(), 1u);
  EXPECT_NEAR(r.busy_ns_total(), 10000.0, 1e-9);
  loop.run();
  EXPECT_EQ(loop.now(), 0);
  // ...but the server occupancy still queues later jobs behind it.
  EXPECT_EQ(r.backlog_ns(), 10000);
}

TEST(Resource, BacklogReflectsQueuedWork) {
  EventLoop loop;
  Resource r(loop, "bus", 1e9, 1);
  EXPECT_EQ(r.backlog_ns(), 0);
  r.submit(5000, nullptr);
  r.submit(5000, nullptr);
  EXPECT_EQ(r.backlog_ns(), 10000);
  loop.run_until(5000);
  EXPECT_EQ(r.backlog_ns(), 5000);
}

TEST(Resource, SaturationBoundsThroughput) {
  // Property: a 1e9-units/sec server finishing N jobs of C units each takes
  // >= N*C ns regardless of arrival pattern.
  EventLoop loop;
  Resource r(loop, "cpu", 1e9, 1);
  int done = 0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    loop.schedule(i * 3, [&]() { r.submit(1000, [&]() { ++done; }); });
  }
  loop.run();
  EXPECT_EQ(done, n);
  EXPECT_GE(loop.now(), n * 1000);
}

// --------------------------------------------------------- SerialExecutor

TEST(SerialExecutor, SerializesEvenWithFreeServers) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 4);  // plenty of parallel capacity
  SerialExecutor thread(pool);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    thread.submit(1000, [&]() { done.push_back(loop.now()); });
  }
  loop.run();
  // One at a time: completions at 1000, 2000, 3000, 4000 despite 4 cores.
  ASSERT_EQ(done.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[static_cast<std::size_t>(i)], (i + 1) * 1000);
}

TEST(SerialExecutor, TwoThreadsShareThePool) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 2);
  SerialExecutor t1(pool), t2(pool);
  std::vector<SimTime> done;
  t1.submit(1000, [&]() { done.push_back(loop.now()); });
  t2.submit(1000, [&]() { done.push_back(loop.now()); });
  loop.run();
  // Different threads DO run in parallel on the 2-core pool.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
}

TEST(SerialExecutor, ContendsWhenPoolSmallerThanThreads) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 1);
  SerialExecutor t1(pool), t2(pool);
  std::vector<SimTime> done;
  t1.submit(1000, [&]() { done.push_back(loop.now()); });
  t2.submit(1000, [&]() { done.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 2000);  // single core: threads serialize at the pool
}

TEST(SerialExecutor, ChargesAccount) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 2);
  SerialExecutor thread(pool);
  UsageAccount acct("worker");
  thread.submit(500, nullptr, &acct);
  thread.submit(700, nullptr, &acct);
  loop.run();
  EXPECT_DOUBLE_EQ(acct.busy_ns, 1200.0);
}

TEST(SerialExecutor, BusBacklogDefersStart) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 1);
  Resource bus(loop, "bus", 1e9, 1);
  bus.submit(5000, nullptr);  // pre-load the bus: 5 us backlog
  SerialExecutor thread(pool);
  SimTime done_at = 0;
  thread.submit(1000, [&]() { done_at = loop.now(); }, nullptr, &bus, 100);
  loop.run();
  // Job start deferred by the observed 5 us backlog, then 1 us of work.
  EXPECT_EQ(done_at, 6000);
}

TEST(SerialExecutor, NestedSubmitFromCallbackKeepsOrder) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 4);
  SerialExecutor thread(pool);
  std::vector<int> order;
  thread.submit(100, [&]() {
    order.push_back(1);
    thread.submit(100, [&]() { order.push_back(3); });
  });
  thread.submit(100, [&]() { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  // Idle again: job 4 starts at once without queueing, and the jobs its
  // callback submits still run after it, one at a time, in order.
  const SimTime idle_at = loop.now();
  std::vector<SimTime> done_at;
  thread.submit(100, [&]() {
    order.push_back(4);
    done_at.push_back(loop.now());
    thread.submit(100, [&]() {
      order.push_back(5);
      done_at.push_back(loop.now());
    });
    thread.submit(100, [&]() {
      order.push_back(6);
      done_at.push_back(loop.now());
    });
  });
  EXPECT_EQ(thread.queue_depth(), 0u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(done_at, (std::vector<SimTime>{idle_at + 100, idle_at + 200, idle_at + 300}));
}

TEST(SerialExecutor, DestroyedWithJobsInFlightIsSilent) {
  EventLoop loop;
  Resource pool(loop, "cpu", 1e9, 1);
  auto held = std::make_shared<int>(0);
  int done = 0;
  auto thread = std::make_unique<SerialExecutor>(pool);
  for (int i = 0; i < 3; ++i) thread->submit(1000, [&done, held]() { ++done; });
  EXPECT_EQ(thread->queue_depth(), 2u);  // one active, two queued
  EXPECT_EQ(held.use_count(), 4);
  thread.reset();
  EXPECT_EQ(held.use_count(), 1);  // active and queued captures died with it
  loop.run();
  // The active job's pool completion still fires at 1000 ns, as a no-op.
  EXPECT_EQ(done, 0);
  EXPECT_EQ(loop.now(), 1000);
  EXPECT_EQ(pool.jobs_served(), 1u);
}

// -------------------------------------------------------------- CostModel

TEST(CostModel, CalibrationInvariants) {
  const CostModel m;
  // Host-mode TCP per-chunk cost implies ~38 Gb/s for 64 KiB chunks.
  const double tx = m.tcp_tx_cost(m.tcp_chunk_bytes);
  const double gbps = static_cast<double>(m.tcp_chunk_bytes) * 8.0 / tx;
  EXPECT_GT(gbps, 35.0);
  EXPECT_LT(gbps, 41.0);

  // Bridge adds enough to land near 27 Gb/s.
  const double bridged = tx + m.bridge_cost(m.tcp_chunk_bytes);
  const double bgbps = static_cast<double>(m.tcp_chunk_bytes) * 8.0 / bridged;
  EXPECT_GT(bgbps, 24.0);
  EXPECT_LT(bgbps, 30.0);

  // NIC processor can just sustain line rate at the RDMA MTU.
  const double nic = m.nic_pkt_cost(m.rdma_mtu_bytes);
  const double ngbps = static_cast<double>(m.rdma_mtu_bytes) * 8.0 / nic;
  EXPECT_GT(ngbps, m.nic_line_gbps);
  EXPECT_LT(ngbps, m.nic_line_gbps * 1.15);

  // One-core shm copy beats everything else by a wide margin.
  const double shm_gbps = 8.0 / m.shm_copy_ns_per_byte;
  EXPECT_GT(shm_gbps, 100.0);
}

}  // namespace
}  // namespace freeflow::sim
