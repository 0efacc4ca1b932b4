#include "shm/spsc_ring.h"

#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace freeflow::shm {
namespace {

/// Storage of destroyed rings, reused by the next ring of the same capacity,
/// as an agent recycles shm segments. Pages earlier rings faulted in stay
/// mapped, so steady connection churn settles at no page faults. And ring
/// blocks, mostly pages nothing ever touched, never return to the general
/// heap, where a later zero-filled allocation (an RDMA trunk's slot MRs)
/// would land on them and fault every page in.
struct StoragePool {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<std::unique_ptr<std::byte[]>>> by_capacity;
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
  mask_ = capacity - 1;
  {
    StoragePool& pool = storage_pool();
    std::lock_guard lock(pool.mu);
    auto& blocks = pool.by_capacity[capacity];
    if (!blocks.empty()) {
      storage_ = std::move(blocks.back());
      blocks.pop_back();
      return;
    }
  }
  storage_ = std::make_unique_for_overwrite<std::byte[]>(capacity);
}

SpscRing::~SpscRing() {
  StoragePool& pool = storage_pool();
  std::lock_guard lock(pool.mu);
  pool.by_capacity[capacity()].push_back(std::move(storage_));
}

void SpscRing::copy_in(std::size_t pos, const std::byte* src, std::size_t n) noexcept {
  const std::size_t offset = pos & mask_;
  const std::size_t first = std::min(n, capacity() - offset);
  std::memcpy(storage_.get() + offset, src, first);
  if (first < n) std::memcpy(storage_.get(), src + first, n - first);
}

void SpscRing::copy_out(std::size_t pos, std::byte* dst, std::size_t n) const noexcept {
  const std::size_t offset = pos & mask_;
  const std::size_t first = std::min(n, capacity() - offset);
  std::memcpy(dst, storage_.get() + offset, first);
  if (first < n) std::memcpy(dst + first, storage_.get(), n - first);
}

bool SpscRing::try_push(ByteSpan message) noexcept {
  const std::size_t need = record_size(message.size());
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (capacity() - static_cast<std::size_t>(tail - head) < need) return false;

  const auto len = static_cast<std::uint32_t>(message.size());
  std::byte header[k_header_size];
  std::memcpy(header, &len, k_header_size);
  copy_in(static_cast<std::size_t>(tail), header, k_header_size);
  if (!message.empty()) {
    copy_in(static_cast<std::size_t>(tail + k_header_size), message.data(), message.size());
  }
  tail_.store(tail + need, std::memory_order_release);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SpscRing::try_pop(Buffer& out) noexcept {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (tail == head) return false;

  std::uint32_t len = 0;
  std::byte header[k_header_size];
  copy_out(static_cast<std::size_t>(head), header, k_header_size);
  std::memcpy(&len, header, k_header_size);

  if (out.size() != len) out = Buffer::for_overwrite(len);
  if (len != 0) {
    copy_out(static_cast<std::size_t>(head + k_header_size), out.data(), len);
  }
  head_.store(head + record_size(len), std::memory_order_release);
  popped_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace freeflow::shm
