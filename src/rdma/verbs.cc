#include "rdma/verbs.h"

#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace freeflow::rdma {
namespace {

/// Storage of destroyed large MRs, by length. Blocks are never freed, so a
/// length's pool holds at most what its MRs once held at the same time.
struct StoragePool {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<Buffer>> by_length;
};

/// Never destroyed, so MRs outliving static destruction can still return
/// their storage.
StoragePool& storage_pool() {
  static auto* pool = new StoragePool;
  return *pool;
}

Buffer take_storage(std::size_t length) {
  if (length >= MemoryRegion::k_pooled_bytes) {
    StoragePool& pool = storage_pool();
    std::lock_guard lock(pool.mu);
    auto& blocks = pool.by_length[length];
    if (!blocks.empty()) {
      Buffer storage = std::move(blocks.back());
      blocks.pop_back();
#if defined(__SANITIZE_ADDRESS__)
      // Sanitizer builds overwrite what the last MR left, so a check that
      // reads recycled bytes as if they had just arrived fails there.
      std::memset(storage.data(), 0xA5, length);
#endif
      return storage;
    }
  }
  return Buffer::for_overwrite(length);
}

}  // namespace

MemoryRegion::MemoryRegion(Key lkey, Key rkey, std::size_t length)
    : lkey_(lkey), rkey_(rkey), data_(take_storage(length)) {}

MemoryRegion::~MemoryRegion() {
  if (data_.size() < k_pooled_bytes) return;
  StoragePool& pool = storage_pool();
  std::lock_guard lock(pool.mu);
  pool.by_length[data_.size()].push_back(std::move(data_));
}

std::size_t MemoryRegion::pooled_blocks(std::size_t length) {
  StoragePool& pool = storage_pool();
  std::lock_guard lock(pool.mu);
  auto it = pool.by_length.find(length);
  return it == pool.by_length.end() ? 0 : it->second.size();
}

std::size_t CompletionQueue::poll(std::span<WorkCompletion> out) {
  std::size_t n = 0;
  while (n < out.size() && !entries_.empty()) {
    out[n++] = entries_.front();
    entries_.pop_front();
  }
  return n;
}

void CompletionQueue::push(const WorkCompletion& wc) {
  if (entries_.size() >= capacity_) {
    overflowed_ = true;  // real CQs overrun into device error; we latch a flag
    return;
  }
  entries_.push_back(wc);
  if (notify_) {
    auto handler = notify_;  // consumers may re-arm or clear from inside
    handler();
  }
}

}  // namespace freeflow::rdma
