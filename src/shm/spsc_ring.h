// Lock-free single-producer/single-consumer byte ring. This is the real data
// structure FreeFlow's shm channels move payloads through: records are
// length-prefixed and the head/tail cursors are atomics with acquire/release
// ordering, so the same code is safe when driven by two actual threads (the
// micro-benchmark does exactly that).
//
// Capacity is modelled; host bytes track occupancy. A ring asked for C bytes
// admits exactly what a flat C-byte ring would (`can_push`, `used_bytes` and
// `free_bytes` are the flat ring's), but its storage is two C-byte halves and
// the cursors say which one is live. A cursor is `(generation << 40) |
// offset`; generation g writes half g & 1, wrapping within it as a flat ring
// does. Once the consumer has caught up to the producer's generation and the
// producer is k_switch_bytes into it, the next push starts generation g+1 at
// offset 0 of the other half, recording where g ended in `prev_end_`; the
// consumer follows when it reaches that end. A lightly loaded ring therefore
// cycles through the first k_switch_bytes (plus one record) of each half
// instead of sweeping the whole capacity through the cache, and its pages
// beyond that are never touched.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace freeflow::shm {

class SpscRing {
 public:
  /// How far into a generation the producer writes before it switches
  /// halves (once the consumer has caught up to that generation).
  static constexpr std::size_t k_switch_bytes = 16 << 10;

  /// `capacity` is rounded up to a power of two; must be >= 64.
  explicit SpscRing(std::size_t capacity);
  /// Hands the storage to the next ring of the same capacity.
  ~SpscRing();

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Appends one message, `prefix` followed by `body`, gathered straight
  /// into the ring (a header goes in front of a payload view without first
  /// being concatenated with it). Returns false (ring unchanged) if there is
  /// not enough free space for the record (4-byte header + payload).
  bool try_push(ByteSpan prefix, ByteSpan body = {}) noexcept;

  /// Pops the oldest message into `out`, which is sized to fit and then
  /// overwritten (never zero-filled first). Returns false if the ring is
  /// empty.
  bool try_pop(Buffer& out) noexcept;

  /// Bytes a message of `payload` size occupies in the ring.
  [[nodiscard]] static std::size_t record_size(std::size_t payload) noexcept {
    return k_header_size + payload;
  }

  /// Largest message a ring asked for `capacity` bytes can ever take: it
  /// must fit whole while the ring is empty.
  [[nodiscard]] static std::size_t max_payload(std::size_t capacity) noexcept {
    return std::bit_ceil(capacity) - k_header_size;
  }

  [[nodiscard]] bool can_push(std::size_t payload) const noexcept {
    return free_bytes() >= record_size(payload);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::size_t used_bytes() const noexcept {
    return used_between(head_.load(std::memory_order_acquire),
                        tail_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::size_t free_bytes() const noexcept { return capacity() - used_bytes(); }
  [[nodiscard]] bool empty() const noexcept { return used_bytes() == 0; }

  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t popped() const noexcept {
    return popped_.load(std::memory_order_relaxed);
  }
  /// Generation the producer is writing; each switch of halves adds one.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_of(tail_.load(std::memory_order_acquire));
  }

 private:
  static constexpr std::size_t k_header_size = 4;
  static constexpr unsigned k_offset_bits = 40;
  static constexpr std::uint64_t k_offset_mask = (std::uint64_t{1} << k_offset_bits) - 1;

  [[nodiscard]] static std::uint64_t generation_of(std::uint64_t cursor) noexcept {
    return cursor >> k_offset_bits;
  }
  [[nodiscard]] static std::uint64_t offset_of(std::uint64_t cursor) noexcept {
    return cursor & k_offset_mask;
  }
  [[nodiscard]] static std::uint64_t make_cursor(std::uint64_t generation,
                                                 std::uint64_t offset) noexcept {
    return (generation << k_offset_bits) | offset;
  }
  /// Record bytes in flight between the cursors: the consumer is either in
  /// the producer's generation or in the one before it, which ends at
  /// `prev_end_`.
  [[nodiscard]] std::size_t used_between(std::uint64_t head, std::uint64_t tail) const noexcept {
    if (generation_of(head) == generation_of(tail)) {
      return static_cast<std::size_t>(tail - head);
    }
    return static_cast<std::size_t>(prev_end_.load(std::memory_order_relaxed) -
                                    offset_of(head) + offset_of(tail));
  }
  /// Offset at which the producer switches halves: rings no larger than
  /// k_switch_bytes switch once per lap, which keeps offsets bounded.
  [[nodiscard]] std::uint64_t switch_offset() const noexcept {
    return std::min<std::uint64_t>(k_switch_bytes, capacity());
  }

  void copy_in(std::uint64_t cursor, const std::byte* src, std::size_t n) noexcept;
  void copy_out(std::uint64_t cursor, std::byte* dst, std::size_t n) const noexcept;

  std::size_t mask_;
  /// Two capacity-sized halves of one anonymous mapping (or recycled from a
  /// dead ring): the ring only reads bytes it has pushed, so pages fault in
  /// as traffic first reaches them, and only the head of each half does
  /// under light load.
  std::byte* storage_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  /// End offset of the generation before the producer's; written by the
  /// producer before it publishes the first tail of the next generation.
  std::atomic<std::uint64_t> prev_end_{0};
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
};

}  // namespace freeflow::shm
