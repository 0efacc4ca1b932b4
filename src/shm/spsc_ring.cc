#include "shm/spsc_ring.h"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace freeflow::shm {
namespace {

/// Storage of destroyed rings, reused by the next ring of the same capacity,
/// as an agent recycles shm segments. Pages earlier rings faulted in stay
/// mapped, so steady connection churn settles at no page faults. Each block
/// is its own anonymous mapping, never returned, so ring pages never land in
/// the general heap where a later zero-filled allocation (an RDMA trunk's
/// slot MRs) would fault them in; and sanitizers keep no shadow state for
/// pages nothing touched.
struct StoragePool {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<std::byte*>> by_capacity;
};

/// Never destroyed, so rings outliving static destruction can still return
/// their storage.
StoragePool& storage_pool() {
  static auto* pool = new StoragePool;
  return *pool;
}

}  // namespace

SpscRing::SpscRing(std::size_t capacity) {
  FF_CHECK(capacity >= 64);
  capacity = std::bit_ceil(capacity);
  // A generation holds at most two laps plus one record, so its offsets stay
  // far below the generation bits.
  FF_CHECK(capacity <= (std::size_t{1} << (k_offset_bits - 4)));
  mask_ = capacity - 1;
  {
    StoragePool& pool = storage_pool();
    std::lock_guard lock(pool.mu);
    auto& blocks = pool.by_capacity[capacity];
    if (!blocks.empty()) {
      storage_ = blocks.back();
      blocks.pop_back();
      return;
    }
  }
  void* block = mmap(nullptr, 2 * capacity, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  FF_CHECK(block != MAP_FAILED);
  storage_ = static_cast<std::byte*>(block);
}

SpscRing::~SpscRing() {
  StoragePool& pool = storage_pool();
  std::lock_guard lock(pool.mu);
  pool.by_capacity[capacity()].push_back(storage_);
}

void SpscRing::copy_in(std::uint64_t cursor, const std::byte* src, std::size_t n) noexcept {
  std::byte* half = storage_ + (generation_of(cursor) & 1) * capacity();
  const std::size_t offset = offset_of(cursor) & mask_;
  const std::size_t first = std::min(n, capacity() - offset);
  std::memcpy(half + offset, src, first);
  if (first < n) std::memcpy(half, src + first, n - first);
}

void SpscRing::copy_out(std::uint64_t cursor, std::byte* dst, std::size_t n) const noexcept {
  const std::byte* half = storage_ + (generation_of(cursor) & 1) * capacity();
  const std::size_t offset = offset_of(cursor) & mask_;
  const std::size_t first = std::min(n, capacity() - offset);
  std::memcpy(dst, half + offset, first);
  if (first < n) std::memcpy(dst + first, half, n - first);
}

bool SpscRing::try_push(ByteSpan message) noexcept {
  const std::size_t need = record_size(message.size());
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (capacity() - used_between(head, tail) < need) return false;

  if (generation_of(head) == generation_of(tail) && offset_of(tail) >= switch_offset()) {
    // The consumer is in our generation, so the other half holds nothing
    // unread: start the next generation at its front.
    prev_end_.store(offset_of(tail), std::memory_order_relaxed);
    tail = make_cursor(generation_of(tail) + 1, 0);
  }
  const auto len = static_cast<std::uint32_t>(message.size());
  std::byte header[k_header_size];
  std::memcpy(header, &len, k_header_size);
  copy_in(tail, header, k_header_size);
  if (!message.empty()) copy_in(tail + k_header_size, message.data(), message.size());
  tail_.store(tail + need, std::memory_order_release);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SpscRing::try_pop(Buffer& out) noexcept {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (tail == head) return false;
  if (generation_of(head) != generation_of(tail) &&
      offset_of(head) == prev_end_.load(std::memory_order_relaxed)) {
    // Old generation drained; the producer published at least one record
    // in the new one before we could see it.
    head = make_cursor(generation_of(tail), 0);
  }

  std::uint32_t len = 0;
  std::byte header[k_header_size];
  copy_out(head, header, k_header_size);
  std::memcpy(&len, header, k_header_size);

  if (out.size() != len) out = Buffer::for_overwrite(len);
  if (len != 0) copy_out(head + k_header_size, out.data(), len);
  head_.store(head + record_size(len), std::memory_order_release);
  popped_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace freeflow::shm
