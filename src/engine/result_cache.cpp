#include "engine/result_cache.hpp"

#include <sstream>
#include <vector>

#include "core/serialize.hpp"
#include "engine/cache_store.hpp"
#include "support/assert.hpp"

namespace pooled {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  POOLED_REQUIRE(capacity_ >= 1, "result cache capacity must be >= 1");
}

std::optional<std::string> ResultCache::job_key(const DecodeJob& job) {
  // Only spec-backed registry decodes have a canonical form: a prebuilt
  // or lazily-built instance has no stable identity, and an override
  // decoder's configuration is invisible to us. Deadline-bearing jobs are
  // excluded too: their outcome depends on the clock, so a hit could
  // replay a timed-out (or slower-machine) result forever.
  if (!job.spec.has_value() || job.instance != nullptr || job.build ||
      job.decoder_override != nullptr || job.deadline_seconds.has_value()) {
    return std::nullopt;
  }
  std::ostringstream key;
  key << instance_digest(*job.spec) << '|' << job.decoder << "|k=" << job.k
      << "|cc=" << (job.check_consistency ? 1 : 0)
      // Every decode option that shapes the outcome keys the entry:
      // noisy and noiseless decodes of the same instance never alias,
      // and neither do different round/budget caps or RNG seeds.
      << "|noise=" << job.noise.to_string() << "|rounds=" << job.rounds
      << "|budget=" << job.budget << "|seed=" << job.rng_seed << "|truth=";
  if (job.truth_support) {
    for (std::uint32_t i : *job.truth_support) key << i << ',';
  } else {
    key << '-';
  }
  return key.str();
}

std::optional<DecodeReport> ResultCache::lookup(const std::string& key) {
  const LockGuard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ResultCache::insert(const std::string& key, const DecodeReport& report) {
  if (!report.ok()) return;  // failures retry rather than stick
  const LockGuard lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent miss on the same key: another worker already decoded it.
    // The reports are byte-identical by the engine's determinism
    // guarantee, so refreshing recency is all that is left to do.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, report);
  index_.emplace(key, lru_.begin());
  ++insertions_;
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
  POOLED_DCHECK(index_.size() == lru_.size(),
                "LRU list and key index must leave insert() in sync");
  POOLED_DCHECK(index_.size() <= capacity_,
                "eviction must keep the cache within capacity");
}

std::size_t ResultCache::spill(const std::string& path) {
  // Copy the entries under the lock, write outside it: a snapshot
  // write is disk-speed work and must not stall concurrent lookups.
  std::vector<CacheSnapshotEntry> entries;
  {
    const LockGuard lock(mutex_);
    entries.reserve(lru_.size());
    for (const Entry& entry : lru_) {  // front first => MRU-first on disk
      entries.push_back(CacheSnapshotEntry{entry.first, entry.second});
    }
  }
  try {
    save_cache_snapshot(path, entries);
  } catch (...) {
    const LockGuard lock(mutex_);
    ++snapshot_failures_;
    throw;
  }
  {
    const LockGuard lock(mutex_);
    ++snapshot_writes_;
  }
  return entries.size();
}

std::size_t ResultCache::restore(const std::string& path) {
  std::optional<std::vector<CacheSnapshotEntry>> entries;
  try {
    entries = load_cache_snapshot(path);
  } catch (...) {
    const LockGuard lock(mutex_);
    ++snapshot_rejected_;
    throw;
  }
  if (!entries.has_value()) return 0;  // no file: a cold start
  // The snapshot is MRU-first; inserting oldest-first replays the
  // original recency order, and when this cache is smaller than the
  // one that spilled, eviction trims exactly the cold tail.
  for (auto it = entries->rbegin(); it != entries->rend(); ++it) {
    insert(it->key, it->report);
  }
  const LockGuard lock(mutex_);
  ++snapshot_restores_;
  return entries->size();
}

CacheStats ResultCache::stats() const {
  const LockGuard lock(mutex_);
  CacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.snapshot_writes = snapshot_writes_;
  stats.snapshot_restores = snapshot_restores_;
  stats.snapshot_rejected = snapshot_rejected_;
  stats.snapshot_failures = snapshot_failures_;
  stats.size = index_.size();
  stats.capacity = capacity_;
  return stats;
}

void ResultCache::clear() {
  const LockGuard lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace pooled
