#include "sim/event_loop.h"

#include <bit>
#include <limits>

namespace freeflow::sim {

namespace {
/// Global execution order: (timestamp, insertion seq).
inline bool earlier(SimTime a_at, std::uint64_t a_seq, SimTime b_at,
                    std::uint64_t b_seq) noexcept {
  return a_at < b_at || (a_at == b_at && a_seq < b_seq);
}
}  // namespace

EventLoop::EventLoop()
    : slots_(k_wheel_slots),
      bitmap_(k_bitmap_words, 0),
      summary_(k_summary_words, 0) {}

// ------------------------------------------------------------- node pool

void EventLoop::grow_pool() {
  const auto base = static_cast<std::uint32_t>(chunks_.size() << k_chunk_bits);
  FF_CHECK(base + k_chunk_nodes - 1 < k_nil);
  chunks_.push_back(std::make_unique<Node[]>(k_chunk_nodes));
  // Thread the fresh chunk onto the free list, lowest index first.
  Node* chunk = chunks_.back().get();
  for (std::uint32_t i = 0; i + 1 < k_chunk_nodes; ++i) chunk[i].next = base + i + 1;
  chunk[k_chunk_nodes - 1].next = free_head_;
  free_head_ = base;
}

void EventLoop::free_node(std::uint32_t n) noexcept {
  Node& node = node_at(n);
  node.fn = nullptr;  // may run capture destructors, which may schedule
  node.next = free_head_;
  free_head_ = n;
}

// -------------------------------------------------------------- execution

std::int32_t EventLoop::scan_bitmap(std::uint32_t begin_slot) const noexcept {
  std::uint32_t w = begin_slot >> 6;
  const std::uint64_t first = bitmap_[w] & (~0ULL << (begin_slot & 63U));
  if (first != 0) {
    return static_cast<std::int32_t>((w << 6) + std::countr_zero(first));
  }
  // Skip empty words via the summary level (one bit per bitmap word).
  for (std::uint32_t word = w + 1; word < k_bitmap_words;) {
    const std::uint32_t sw = word >> 6;
    const std::uint64_t sbits = summary_[sw] >> (word & 63U);
    if (sbits == 0) {
      word = (sw + 1) << 6;
      continue;
    }
    word += static_cast<std::uint32_t>(std::countr_zero(sbits));
    return static_cast<std::int32_t>((word << 6) +
                                     std::countr_zero(bitmap_[word]));
  }
  return -1;
}

void EventLoop::set_bit(std::uint32_t slot) noexcept {
  bitmap_[slot >> 6] |= 1ULL << (slot & 63U);
  summary_[slot >> 12] |= 1ULL << ((slot >> 6) & 63U);
}

void EventLoop::clear_bit(std::uint32_t slot) noexcept {
  std::uint64_t& word = bitmap_[slot >> 6];
  word &= ~(1ULL << (slot & 63U));
  if (word == 0) summary_[slot >> 12] &= ~(1ULL << ((slot >> 6) & 63U));
}

bool EventLoop::run_next(SimTime limit) {
  // The wheel candidate: the head of the first occupied slot at or after
  // the cursor. Slots before the cursor hold later times (the wheel wraps).
  std::int32_t s = -1;
  if (wheel_live_ != 0) {
    s = scan_bitmap(static_cast<std::uint32_t>(now_ & k_wheel_mask));
    if (s < 0) s = scan_bitmap(0);
  }
  const Node* w = s < 0 ? nullptr : &node_at(slots_[static_cast<std::uint32_t>(s)].head);
  const bool from_heap =
      !heap_.empty() &&
      (w == nullptr || earlier(heap_.front().at, heap_.front().seq, w->at, w->seq));
  if (!from_heap && w == nullptr) return false;  // nothing queued
  if ((from_heap ? heap_.front().at : w->at) > limit) return false;
  ++executed_;
  if (from_heap) {
    Event ev = heap_pop_min();
    now_ = ev.at;
    if (ev.token != nullptr) release_token(ev.token);
    ev.fn();
    return true;
  }
  // Unlink the head before invoking it: a delay-0 schedule from inside the
  // callback appends behind the slot's remaining events (higher seq, same
  // timestamp), and a cancel from inside never sees the running node.
  const auto idx = static_cast<std::uint32_t>(s);
  SlotList& slot = slots_[idx];
  const std::uint32_t n = slot.head;
  Node& node = node_at(n);
  slot.head = node.next;
  if (slot.head == k_nil) {
    slot.tail = k_nil;
    clear_bit(idx);
  }
  --wheel_live_;
  now_ = node.at;
  if (node.token != nullptr) release_token(node.token);
  // Invoke in place: chunks never move, and the node is not on the free
  // list until the callback returns.
  node.fn();
  free_node(n);
  return true;
}

bool EventLoop::step() {
  return run_next(std::numeric_limits<SimTime>::max());
}

SimTime EventLoop::run() {
  // Quiesce: stop once only maintenance events remain. They stay queued —
  // run() leaves them for a later run()/run_until(), a cancelling owner, or
  // the loop's destructor. (A maintenance event that is *earlier* than live
  // blocking work still fires in order via step.)
  while (wheel_live_ + heap_.size() > maintenance_live_) {
    step();
  }
  return now_;
}

SimTime EventLoop::run_until(SimTime deadline) {
  while (run_next(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

// ------------------------------------------------------------ cancellation

CancelToken* EventLoop::acquire_token() {
  if (free_tokens_.empty()) {
    token_pool_.emplace_back();
    return &token_pool_.back();
  }
  CancelToken* t = free_tokens_.back();
  free_tokens_.pop_back();
  return t;
}

void EventLoop::release_token(CancelToken* t) noexcept {
  ++t->gen;  // invalidates every outstanding handle for this arming
  if (t->maintenance) {
    // Both paths that release (event fired, event cancelled) end the
    // maintenance obligation; a re-arming callback re-registers.
    t->maintenance = false;
    --maintenance_live_;
  }
  free_tokens_.push_back(t);
}

void EventLoop::cancel_token(CancelToken* t, std::uint64_t gen) noexcept {
  if (t == nullptr || t->gen != gen) return;  // already fired or cancelled
  if (t->in_heap) {
    heap_remove(t->pos);
    release_token(t);
    return;
  }
  // Unlink the node from its slot's list: no tombstones, no deferred sweep.
  // The list is singly linked, so find the predecessor from the head.
  const std::uint32_t n = t->pos;
  const auto idx = static_cast<std::uint32_t>(node_at(n).at & k_wheel_mask);
  SlotList& slot = slots_[idx];
  std::uint32_t prev = k_nil;
  for (std::uint32_t i = slot.head; i != n; i = node_at(i).next) prev = i;
  const std::uint32_t next = node_at(n).next;
  if (prev == k_nil) {
    slot.head = next;
  } else {
    node_at(prev).next = next;
  }
  if (slot.tail == n) slot.tail = prev;
  if (slot.head == k_nil) clear_bit(idx);
  --wheel_live_;
  release_token(t);
  free_node(n);  // last: the capture's destructors see a consistent queue
}

// ------------------------------------------------- position-tracked heap

void EventLoop::heap_place(std::uint32_t pos, Event ev) noexcept {
  heap_[pos] = std::move(ev);
  if (heap_[pos].token != nullptr) heap_[pos].token->pos = pos;
}

std::uint32_t EventLoop::sift_up(std::uint32_t pos, const Event& ev) noexcept {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    Event& p = heap_[parent];
    if (!earlier(ev.at, ev.seq, p.at, p.seq)) break;
    heap_place(pos, std::move(p));
    pos = parent;
  }
  return pos;
}

std::uint32_t EventLoop::sift_down(std::uint32_t pos, const Event& ev) noexcept {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(heap_[child + 1].at, heap_[child + 1].seq,
                                    heap_[child].at, heap_[child].seq)) {
      ++child;
    }
    Event& c = heap_[child];
    if (!earlier(c.at, c.seq, ev.at, ev.seq)) break;
    heap_place(pos, std::move(c));
    pos = child;
  }
  return pos;
}

void EventLoop::heap_push(Event ev) {
  heap_.emplace_back();  // hole at the end; filled via heap_place below
  const auto pos = sift_up(static_cast<std::uint32_t>(heap_.size() - 1), ev);
  heap_place(pos, std::move(ev));
}

EventLoop::Event EventLoop::heap_pop_min() {
  Event top = std::move(heap_.front());
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    const auto pos = sift_down(0, last);
    heap_place(pos, std::move(last));
  }
  return top;
}

void EventLoop::heap_remove(std::uint32_t pos) {
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (pos < heap_.size()) {
    // Re-insert the displaced tail entry at the vacated position.
    std::uint32_t p = sift_up(pos, last);
    if (p == pos) p = sift_down(pos, last);
    heap_place(p, std::move(last));
  }
}

}  // namespace freeflow::sim
