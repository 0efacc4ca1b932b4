#include "shm/region.h"

namespace freeflow::shm {

Result<std::shared_ptr<Region>> RegionRegistry::create(TenantId owner, std::size_t size) {
  if (size == 0) return invalid_argument("shm region size must be > 0");
  if (acct_->live_bytes + size > capacity_) {
    return resource_exhausted("host shm capacity exceeded");
  }
  // The budget charge rides the control block, not the registry entry: the
  // deleter releases the bytes when the LAST holder (registry or outstanding
  // attachment) lets go, so unlink-with-attachments cannot under-count.
  auto acct = acct_;
  std::shared_ptr<Region> region(new Region(next_id_++, owner, size),
                                 [acct](Region* r) {
                                   acct->live_bytes -= r->size();
                                   delete r;
                                 });
  regions_.emplace(region->id(), region);
  acct_->live_bytes += size;
  return region;
}

Result<std::shared_ptr<Region>> RegionRegistry::attach(RegionId id, TenantId tenant) {
  auto it = regions_.find(id);
  if (it == regions_.end()) return not_found("no shm region " + std::to_string(id));
  if (!it->second->allows(tenant)) {
    ++denied_attaches_;
    return permission_denied("tenant " + std::to_string(tenant) +
                             " may not attach region " + std::to_string(id));
  }
  if (tenant != it->second->owner()) ++foreign_attaches_;
  return it->second;
}

}  // namespace freeflow::shm
