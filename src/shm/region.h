// Shared-memory region registry. Regions model POSIX shm segments: they are
// owned by a tenant and may only be attached by containers whose tenant is on
// the region's allow-list — this is where FreeFlow's "trade isolation only
// among trusting containers" policy is enforced mechanically. A region is the
// permission and budget record of the segment; the bytes themselves live in
// the lane rings it backs, which fault their storage in as it is written.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"

namespace freeflow::shm {

using RegionId = std::uint64_t;
using TenantId = std::uint32_t;

class Region {
 public:
  Region(RegionId id, TenantId owner, std::size_t size)
      : id_(id), owner_(owner), size_(size) {}

  [[nodiscard]] RegionId id() const noexcept { return id_; }
  [[nodiscard]] TenantId owner() const noexcept { return owner_; }
  /// Bytes charged against the host shm budget while the region is held.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void allow(TenantId tenant) { allowed_.insert(tenant); }
  [[nodiscard]] bool allows(TenantId tenant) const noexcept {
    return tenant == owner_ || allowed_.contains(tenant);
  }

 private:
  RegionId id_;
  TenantId owner_;
  std::size_t size_;
  std::unordered_set<TenantId> allowed_;
};

/// Per-host registry of shm regions (models /dev/shm of one machine).
class RegionRegistry {
 public:
  /// Creates a region owned by `owner`. Fails if the host shm budget would
  /// be exceeded.
  Result<std::shared_ptr<Region>> create(TenantId owner, std::size_t size);

  /// Attaches an existing region; permission-checked against the tenant.
  Result<std::shared_ptr<Region>> attach(RegionId id, TenantId tenant);

  /// Removes a region from the registry (shm_unlink); outstanding
  /// shared_ptr holders keep it (and its budget charge) alive until the last
  /// one releases. Idempotent: both endpoints of a channel unlink its region
  /// at close, and the second finds nothing to do. Returns whether this call
  /// unlinked the region.
  bool unlink(RegionId id) noexcept { return regions_.erase(id) != 0; }

  [[nodiscard]] std::size_t region_count() const noexcept { return regions_.size(); }
  /// Bytes actually pinned in host shm: charged at create, released when
  /// the LAST holder drops the region — unlink() with attachments still
  /// outstanding does not free anything (the segment is merely unlinked,
  /// exactly like shm_unlink with live mmaps).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return acct_->live_bytes; }

  void set_capacity(std::size_t bytes) noexcept { capacity_ = bytes; }

  /// Attach attempts rejected by the tenant allow-list (isolation audit).
  [[nodiscard]] std::uint64_t denied_attaches() const noexcept { return denied_attaches_; }
  /// Successful attaches by a tenant other than the owner — each one was
  /// explicitly granted via Region::allow; anything else is denied.
  [[nodiscard]] std::uint64_t foreign_attaches() const noexcept { return foreign_attaches_; }

 private:
  /// Live-byte tally shared with every region's deleter, so a registry that
  /// dies before the last region release never dangles.
  struct Accounting {
    std::size_t live_bytes = 0;
  };

  RegionId next_id_ = 1;
  std::size_t capacity_ = 1ULL << 34;  // 16 GiB of host shm by default
  std::shared_ptr<Accounting> acct_ = std::make_shared<Accounting>();
  std::uint64_t denied_attaches_ = 0;
  std::uint64_t foreign_attaches_ = 0;
  std::unordered_map<RegionId, std::shared_ptr<Region>> regions_;
};

}  // namespace freeflow::shm
