// Bounded, thread-safe LRU cache of decode results.
//
// Serving workloads repeat themselves: the same archived instance gets
// decoded with the same decoder and k by many requests. The cache keys on
// a canonical digest of (instance spec, decoder spec, k) -- plus the
// truth/consistency knobs that shape the report -- so a repeated request
// returns the stored DecodeReport instead of re-decoding. BatchEngine
// consults it before scheduling a decode and fills it on completion
// (EngineOptions::cache); `pooled_cli serve --cache N` wires it into the
// serve loop and prints the counters, and bench/cache_hit_rate measures
// the speedup.
//
// Correctness contract: a cache hit is byte-identical to the live decode
// in every deterministic field (decoder name, n, k, support, consistency,
// scoring). Only `index` (the submission slot) and `seconds` (now the
// lookup time) are rewritten per request. Failed decodes are never
// cached, so transient errors retry.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/batch_engine.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

/// Counter snapshot; size/capacity are entries, not bytes.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t snapshot_writes = 0;    ///< successful spill()s
  std::uint64_t snapshot_restores = 0;  ///< successful restore()s of a file
  std::uint64_t snapshot_rejected = 0;  ///< restore()s that rejected a file
  std::uint64_t snapshot_failures = 0;  ///< spill()s that failed to write
  std::size_t size = 0;
  std::size_t capacity = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

class ResultCache {
 public:
  /// Cache holding at most `capacity` reports (>= 1), evicting the least
  /// recently used entry when full.
  explicit ResultCache(std::size_t capacity);

  /// Canonical cache key of a job: the instance-spec content digest plus
  /// decoder spec, k, truth support, and the consistency flag -- every
  /// input that shapes the report. Returns nullopt for jobs with no
  /// canonical form (prebuilt/lazy instances, decoder overrides), which
  /// are simply not cacheable.
  [[nodiscard]] static std::optional<std::string> job_key(const DecodeJob& job);

  /// Returns the stored report and refreshes recency; counts a hit or
  /// miss.
  [[nodiscard]] std::optional<DecodeReport> lookup(const std::string& key);

  /// Stores a successful report (error reports are ignored). Re-inserting
  /// an existing key only refreshes recency.
  void insert(const std::string& key, const DecodeReport& report);

  /// Spills every entry to `path` as a crash-safe cache snapshot
  /// (cache_store format: temp file + fsync + atomic rename), most
  /// recently used first. Returns the number of entries written; throws
  /// ContractError on I/O failure -- counted in stats().snapshot_failures
  /// -- leaving any previous snapshot file intact.
  std::size_t spill(const std::string& path);

  /// Restores entries from the snapshot at `path` into the cache,
  /// oldest first so recency order survives the round trip (and a
  /// smaller capacity keeps the hottest prefix). Returns the number of
  /// entries loaded, or 0 when no snapshot file exists. Throws
  /// ContractError on a corrupt/wrong-version snapshot -- counted in
  /// stats().snapshot_rejected -- without touching existing entries.
  std::size_t restore(const std::string& path);

  [[nodiscard]] CacheStats stats() const;

  void clear();

 private:
  using Entry = std::pair<std::string, DecodeReport>;

  mutable AnnotatedMutex mutex_;
  const std::size_t capacity_;  ///< immutable after construction
  /// front = most recently used; index_ points into lru_ and the two
  /// stay entry-for-entry in sync (checked at every unlock boundary).
  std::list<Entry> lru_ POOLED_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      POOLED_GUARDED_BY(mutex_);
  std::uint64_t hits_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t insertions_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t snapshot_writes_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t snapshot_restores_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t snapshot_rejected_ POOLED_GUARDED_BY(mutex_) = 0;
  std::uint64_t snapshot_failures_ POOLED_GUARDED_BY(mutex_) = 0;
};

}  // namespace pooled
