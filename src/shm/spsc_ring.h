// Lock-free single-producer/single-consumer byte ring. This is the real data
// structure FreeFlow's shm channels move payloads through: records are
// length-prefixed and the head/tail indices are atomics with acquire/release
// ordering, so the same code is safe when driven by two actual threads (the
// micro-benchmark does exactly that).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"

namespace freeflow::shm {

class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two; must be >= 64.
  explicit SpscRing(std::size_t capacity);
  /// Hands the storage to the next ring of the same capacity.
  ~SpscRing();

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Appends one message. Returns false (ring unchanged) if there is not
  /// enough free space for the record (4-byte header + payload).
  bool try_push(ByteSpan message) noexcept;

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
    return static_cast<std::size_t>(
        tail_.load(std::memory_order_acquire) - head_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::size_t free_bytes() const noexcept { return capacity() - used_bytes(); }
  [[nodiscard]] bool empty() const noexcept { return used_bytes() == 0; }

  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t popped() const noexcept {
    return popped_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t k_header_size = 4;

  void copy_in(std::size_t pos, const std::byte* src, std::size_t n) noexcept;
  void copy_out(std::size_t pos, std::byte* dst, std::size_t n) const noexcept;

  std::size_t mask_;
  /// Uninitialised (or recycled from a dead ring): the ring only reads bytes
  /// it has pushed, so storage pages fault in as traffic first reaches them.
  std::unique_ptr<std::byte[]> storage_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  alignas(64) std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
};

}  // namespace freeflow::shm
