#include "graph/sharded_access.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace grw {

ShardStore::ShardStore(ShardManifest manifest, const Options& options)
    : manifest_(std::move(manifest)), options_(options) {
  const uint32_t shards = manifest_.NumShards();
  // Catch missing files, torn shards and stale manifests at open time —
  // the store's analogue of the monolithic loader's eager header
  // validation — instead of minutes into a walk. These are the only
  // mappings the store ever makes; the header pages the check touched
  // are dropped so the store starts with nothing resident.
  mapped_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    mapped_.push_back(std::make_shared<const MappedShard>(
        MapShard(manifest_, s)));
    mapped_.back()->DropPages();
  }
  MutexLock lock(mu_);
  resident_.assign(shards, false);
  prev_.assign(shards, kNone);
  next_.assign(shards, kNone);
  stats_.budget_bytes = options_.resident_budget_bytes;
}

std::shared_ptr<const MappedShard> ShardStore::Acquire(uint32_t s) const {
  MutexLock lock(mu_);
  if (resident_[s]) {
    ++stats_.hits;
    if (head_ != s) {
      // Unlink, push front (MRU).
      const uint32_t p = prev_[s];
      const uint32_t n = next_[s];
      if (p != kNone) next_[p] = n; else head_ = n;
      if (n != kNone) prev_[n] = p; else tail_ = p;
      prev_[s] = kNone;
      next_[s] = head_;
      if (head_ != kNone) prev_[head_] = s; else tail_ = s;
      head_ = s;
    }
    return mapped_[s];
  }

  // Fault: pure bookkeeping — the shard was mapped at open. The
  // expensive part, the page-ins, happens lazily on the caller's reads,
  // outside any lock.
  ++stats_.faults;
  stats_.resident_bytes += mapped_[s]->bytes();
  ++stats_.resident_shards;
  resident_[s] = true;
  prev_[s] = kNone;
  next_[s] = head_;
  if (head_ != kNone) prev_[head_] = s; else tail_ = s;
  head_ = s;
  EvictOverBudgetLocked(s);
  // Peak is sampled *after* eviction: a faulted shard has no pages in
  // yet, and the victim's pages are dropped before the caller touches
  // the new shard, so the pre-eviction sum was never real memory.
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  return mapped_[s];
}

void ShardStore::EvictOverBudgetLocked(uint32_t keep) const {
  const uint64_t budget = options_.resident_budget_bytes;
  if (budget == 0) return;
  // Evict from the LRU tail until within budget — but never the shard
  // just acquired, even if it alone exceeds the budget (the walk must
  // be able to read *something*; the effective floor is one shard).
  while (stats_.resident_bytes > budget && tail_ != kNone) {
    uint32_t victim = tail_;
    if (victim == keep) {
      victim = prev_[victim];
      if (victim == kNone) break;  // only the kept shard remains
    }
    const uint32_t p = prev_[victim];
    const uint32_t n = next_[victim];
    if (p != kNone) next_[p] = n; else head_ = n;
    if (n != kNone) prev_[n] = p; else tail_ = p;
    prev_[victim] = kNone;
    next_[victim] = kNone;
    // The mapping stays; only its pages go. A chain still reading the
    // victim refaults them — latency, never corruption.
    mapped_[victim]->DropPages();
    stats_.resident_bytes -= mapped_[victim]->bytes();
    --stats_.resident_shards;
    ++stats_.evictions;
    resident_[victim] = false;
  }
}

bool ShardStore::Resident(uint32_t s) const {
  MutexLock lock(mu_);
  return resident_[s];
}

ShardStats ShardStore::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

const MappedShard& ShardedAccess::Miss(VertexId v) const {
  // The store keeps the shard mapped for its whole lifetime, so the
  // pin needs no share of the ownership.
  const MappedShard* shard = store_->Acquire(store_->ShardOf(v)).get();
  for (int j = kPins - 1; j > 0; --j) pins_[j] = pins_[j - 1];
  pins_[0] = shard;
  return *shard;
}

}  // namespace grw
