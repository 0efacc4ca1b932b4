// Discrete-event simulation core: a virtual nanosecond clock and an event
// queue. The whole cluster simulation is single-threaded and deterministic;
// all concurrency in the modeled system is expressed as events.
//
// Hot-path layout (see DESIGN.md "Event-loop internals"):
//   - Events carry their callback inline (EventFn, a fixed-capacity SBO
//     callable) — scheduling performs no heap allocation once the pools
//     have grown to the run's high-water mark.
//   - Near events (< ~8.2 us ahead) live in nodes of one chunked pool; each
//     of the timer wheel's 2^13 one-nanosecond slots is an index-linked FIFO
//     of nodes, found through a two-level occupancy bitmap. Freed nodes are
//     reused LIFO, so a schedule writes into the node the last event just
//     vacated. Far events overflow into a position-tracked binary heap
//     ordered by (time, seq).
//   - schedule() is the fast non-cancellable path. schedule_cancellable()
//     alone pays for a cancellation token, served from a freelist.
//   - Execution order is globally (time, seq): FIFO among equal timestamps,
//     across the wheel/heap boundary — identical, bit for bit, to the
//     single-priority-queue implementation it replaced.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/status.h"
#include "common/units.h"

namespace freeflow::sim {

/// Event callback. 96 bytes of inline capture: enough for a handful of
/// pointers plus an embedded completion callable; anything larger is a
/// compile error (shrink the capture or box it).
using EventFn = common::InlineFunction<void(), 96>;

class EventLoop;

/// Cancellation state for one scheduled event, recycled via a freelist.
/// `gen` is bumped whenever the token is released (event fired or
/// cancelled), so stale EventHandles see a generation mismatch instead of
/// cancelling an unrelated later event.
struct CancelToken {
  std::uint64_t gen = 0;
  bool in_heap = false;
  bool maintenance = false;
  std::uint32_t pos = 0;  // heap position, or wheel node index
};

/// Handle to a cancellable event. Copyable; must not outlive its EventLoop.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet, eagerly reclaiming its queue
  /// slot and destroying the callback. Safe to call repeatedly.
  void cancel() noexcept;

  /// True while the event is scheduled and neither fired nor cancelled.
  /// (Unlike the old implementation, this is already false while the event's
  /// own callback is running.)
  [[nodiscard]] bool pending() const noexcept {
    return token_ != nullptr && token_->gen == gen_;
  }

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, CancelToken* token, std::uint64_t gen) noexcept
      : loop_(loop), token_(token), gen_(gen) {}

  EventLoop* loop_ = nullptr;
  CancelToken* token_ = nullptr;
  std::uint64_t gen_ = 0;
};

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` ns from now (>= 0). FIFO among equal
  /// times. Fast path: no cancellation token, no allocation. Templated on
  /// the callable so the capture is constructed directly inside queue
  /// storage — zero intermediate moves of the (up to 96-byte) EventFn.
  template <typename F>
  void schedule(SimDuration delay, F&& fn) {
    FF_CHECK(delay >= 0);
    insert(now_ + delay, std::forward<F>(fn), nullptr);
  }

  /// Schedules `fn` at an absolute virtual time (>= now()).
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    FF_CHECK(at >= now_);
    insert(at, std::forward<F>(fn), nullptr);
  }

  /// Like schedule(), but returns a handle that can cancel the event. Only
  /// this path pays for a cancellation token (freelist-recycled).
  template <typename F>
  EventHandle schedule_cancellable(SimDuration delay, F&& fn) {
    FF_CHECK(delay >= 0);
    return schedule_cancellable_at(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  EventHandle schedule_cancellable_at(SimTime at, F&& fn) {
    FF_CHECK(at >= now_);
    CancelToken* t = acquire_token();
    insert(at, std::forward<F>(fn), t);
    return {this, t, t->gen};
  }

  /// Quiesce API: schedules a *maintenance* event — a periodic housekeeping
  /// timer (heartbeat monitor, stats flush) that should not keep the
  /// simulation alive on its own. run() treats the queue as idle once only
  /// maintenance events remain and returns without executing them; they
  /// still fire normally under step()/run_until()/run_for(), and a
  /// maintenance callback that re-arms itself stays maintenance. Always
  /// cancellable: owners cancel on teardown, and events left queued when
  /// run() quiesces die with the loop.
  template <typename F>
  EventHandle schedule_maintenance(SimDuration delay, F&& fn) {
    FF_CHECK(delay >= 0);
    CancelToken* t = acquire_token();
    t->maintenance = true;
    ++maintenance_live_;
    insert(now_ + delay, std::forward<F>(fn), t);
    return {this, t, t->gen};
  }

  /// Runs events until only maintenance events (or nothing) remain, i.e.
  /// until the simulation has quiesced. Returns the final time.
  SimTime run();

  /// Runs events with timestamp <= deadline; advances now() to deadline
  /// if the queue empties or the next event is later.
  SimTime run_until(SimTime deadline);

  /// Convenience: run_until(now() + duration).
  SimTime run_for(SimDuration duration) { return run_until(now_ + duration); }

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of LIVE events currently queued. Cancelled events are reclaimed
  /// eagerly and never counted. Derived, not tracked: the hot path keeps no
  /// aggregate counter.
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return wheel_live_ + heap_.size();
  }

  /// Live maintenance events (see schedule_maintenance).
  [[nodiscard]] std::size_t maintenance_size() const noexcept {
    return maintenance_live_;
  }
  /// Live events that keep run() going: queue_size() minus maintenance.
  [[nodiscard]] std::size_t blocking_size() const noexcept {
    return queue_size() - maintenance_live_;
  }

 private:
  friend class EventHandle;

  /// An overflow-heap entry.
  struct Event {
    Event() noexcept : at(0), seq(0), token(nullptr) {}  // heap_push hole
    template <typename F>
    Event(SimTime at_, std::uint64_t seq_, CancelToken* token_, F&& fn_)
        : at(at_), seq(seq_), token(token_), fn(std::forward<F>(fn_)) {}
    Event(Event&&) noexcept = default;
    Event& operator=(Event&&) noexcept = default;

    SimTime at;
    std::uint64_t seq;
    CancelToken* token;  // null for the non-cancellable fast path
    EventFn fn;
  };

  /// A near event: one node of the pool. `next` links it into its wheel
  /// slot's FIFO while queued, and into the free list once released. A free
  /// node's `fn` is always empty.
  struct Node {
    SimTime at = 0;
    std::uint64_t seq = 0;
    CancelToken* token = nullptr;
    std::uint32_t next = 0;
    EventFn fn;
  };

  static constexpr std::uint32_t k_nil = std::numeric_limits<std::uint32_t>::max();

  /// One wheel slot: the queued nodes sharing a single timestamp (see the
  /// uniqueness invariant in DESIGN.md), linked in insertion (= seq) order.
  struct SlotList {
    std::uint32_t head = k_nil;
    std::uint32_t tail = k_nil;
  };

  // 2^13 slots: an 8.2 us horizon covers every per-hop/per-packet delay in
  // the cost model (control-plane timers overflow to the heap), and the
  // slot lists (64 KB) and bitmap stay cache-resident.
  static constexpr std::uint32_t k_wheel_bits = 13;
  static constexpr std::uint32_t k_wheel_slots = 1U << k_wheel_bits;  // 8.2 us horizon
  static constexpr std::uint32_t k_wheel_mask = k_wheel_slots - 1;
  static constexpr std::uint32_t k_bitmap_words = k_wheel_slots / 64;   // 128
  static constexpr std::uint32_t k_summary_words = k_bitmap_words / 64;  // 2

  // Nodes come in fixed chunks of 2^8 that never move, so a node's address
  // stays valid while its callback runs even if that callback grows the pool.
  static constexpr std::uint32_t k_chunk_bits = 8;
  static constexpr std::uint32_t k_chunk_nodes = 1U << k_chunk_bits;
  static constexpr std::uint32_t k_chunk_mask = k_chunk_nodes - 1;

  /// Routes one event into the wheel or the overflow heap. Templated so the
  /// capture is constructed straight into its node (or heap entry).
  template <typename F>
  void insert(SimTime at, F&& fn, CancelToken* token) {
    const std::uint64_t seq = next_seq_++;
    if (at - now_ < static_cast<SimTime>(k_wheel_slots)) {
      // Near event: its slot maps to a unique timestamp within the horizon,
      // so appending keeps a slot's list FIFO-in-seq by construction.
      if (free_head_ == k_nil) grow_pool();
      const std::uint32_t n = free_head_;
      Node& node = node_at(n);
      free_head_ = node.next;
      node.at = at;
      node.seq = seq;
      node.token = token;
      node.next = k_nil;
      // A free node's fn is empty: construct over it, no destroy needed.
      std::construct_at(&node.fn, std::forward<F>(fn));
      const auto idx = static_cast<std::uint32_t>(at & k_wheel_mask);
      SlotList& slot = slots_[idx];
      if (slot.tail == k_nil) {
        slot.head = n;
        set_bit(idx);
      } else {
        node_at(slot.tail).next = n;
      }
      slot.tail = n;
      if (token != nullptr) {
        token->in_heap = false;
        token->pos = n;
      }
      ++wheel_live_;
    } else {
      if (token != nullptr) token->in_heap = true;
      heap_push(Event(at, seq, token, std::forward<F>(fn)));
    }
  }

  [[nodiscard]] Node& node_at(std::uint32_t n) noexcept {
    return chunks_[n >> k_chunk_bits][n & k_chunk_mask];
  }
  void grow_pool();
  /// Destroys a node's capture and pushes the node on the free list.
  void free_node(std::uint32_t n) noexcept;

  /// Executes the next event if one is due at or before `limit`; returns
  /// false (and runs nothing) otherwise. One bitmap scan per event.
  bool run_next(SimTime limit);
  [[nodiscard]] std::int32_t scan_bitmap(std::uint32_t begin_slot) const noexcept;

  void set_bit(std::uint32_t slot) noexcept;
  void clear_bit(std::uint32_t slot) noexcept;

  // Position-tracked binary min-heap ordered by (at, seq): cancellation can
  // remove an arbitrary entry eagerly via its token's pos.
  void heap_push(Event ev);
  Event heap_pop_min();
  void heap_remove(std::uint32_t pos);
  void heap_place(std::uint32_t pos, Event ev) noexcept;
  std::uint32_t sift_up(std::uint32_t pos, const Event& ev) noexcept;
  std::uint32_t sift_down(std::uint32_t pos, const Event& ev) noexcept;

  CancelToken* acquire_token();
  void release_token(CancelToken* t) noexcept;
  void cancel_token(CancelToken* t, std::uint64_t gen) noexcept;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t wheel_live_ = 0;
  std::size_t maintenance_live_ = 0;

  std::vector<SlotList> slots_;
  std::vector<std::uint64_t> bitmap_;
  std::vector<std::uint64_t> summary_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t free_head_ = k_nil;  // LIFO: the last node freed is reused first
  std::vector<Event> heap_;

  std::deque<CancelToken> token_pool_;      // stable addresses
  std::vector<CancelToken*> free_tokens_;
};

inline void EventHandle::cancel() noexcept {
  if (loop_ != nullptr) loop_->cancel_token(token_, gen_);
}

}  // namespace freeflow::sim
