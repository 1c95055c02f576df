#include "kernels/decode_arena.hpp"

#include <cstring>

#include "support/assert.hpp"
#include "support/env.hpp"

namespace pooled {

namespace {

constexpr std::size_t kAlign = 64;

constexpr std::size_t round_up(std::size_t bytes) {
  return (bytes + (kAlign - 1)) & ~(kAlign - 1);
}

/// Bytes per lane of a partial block over `entries` entries: psi,
/// delta_star and mark always, psi_multi and delta for a full pass.
constexpr std::size_t lane_stride_bytes(std::size_t entries, StatsScope scope) {
  const std::size_t wide_arrays = scope == StatsScope::Full ? 3 : 1;
  return round_up(entries * sizeof(std::uint64_t)) * wide_arrays +
         round_up(entries * sizeof(std::uint32_t)) * 2;
}

std::atomic<std::uint64_t> g_arena_live{0};
std::atomic<std::uint64_t> g_arena_peak{0};

}  // namespace

void arena_account_alloc(std::size_t bytes) {
  const std::uint64_t live =
      g_arena_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = g_arena_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_arena_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void arena_account_free(std::size_t bytes) {
  if (bytes > 0) g_arena_live.fetch_sub(bytes, std::memory_order_relaxed);
}

ArenaStats arena_stats() {
  ArenaStats stats;
  stats.live_bytes = g_arena_live.load(std::memory_order_relaxed);
  stats.peak_bytes = g_arena_peak.load(std::memory_order_relaxed);
  return stats;
}

LanePartials::~LanePartials() { arena_account_free(block_bytes_); }

void LanePartials::reset(unsigned slots, std::size_t entries, StatsScope scope) {
  const std::size_t stride = lane_stride_bytes(entries, scope);
  const std::size_t need = stride * slots + kAlign;
  if (need > block_bytes_) {
    block_ = std::make_unique<std::byte[]>(need);
    arena_account_free(block_bytes_);
    arena_account_alloc(need);
    block_bytes_ = need;
  }
  if (slots > owner_capacity_) {
    owners_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    owner_capacity_ = slots;
  }
  for (unsigned s = 0; s < slots; ++s) {
    owners_[s].store(0, std::memory_order_relaxed);
  }
  entries_ = entries;
  scope_ = scope;
  lane_stride_ = stride;
  slot_count_ = slots;
}

LaneStats LanePartials::slot_view(unsigned slot) const {
  auto base = reinterpret_cast<std::uintptr_t>(block_.get());
  base = (base + (kAlign - 1)) & ~std::uintptr_t{kAlign - 1};
  base += lane_stride_ * slot;
  const std::size_t u64s = round_up(entries_ * sizeof(std::uint64_t));
  const std::size_t u32s = round_up(entries_ * sizeof(std::uint32_t));
  LaneStats view;
  view.psi = reinterpret_cast<std::uint64_t*>(base);
  view.delta_star = reinterpret_cast<std::uint32_t*>(base + u64s);
  view.mark = reinterpret_cast<std::uint32_t*>(base + u64s + u32s);
  if (scope_ == StatsScope::Full) {
    view.psi_multi = reinterpret_cast<std::uint64_t*>(base + u64s + 2 * u32s);
    view.delta = reinterpret_cast<std::uint64_t*>(base + 2 * u64s + 2 * u32s);
  }
  return view;
}

LaneStats LanePartials::acquire(unsigned lane_id) {
  const std::uint64_t token = static_cast<std::uint64_t>(lane_id) + 1;
  for (unsigned s = 0; s < slot_count_; ++s) {
    std::uint64_t seen = owners_[s].load(std::memory_order_acquire);
    if (seen == token) return slot_view(s);
    if (seen == 0 && owners_[s].compare_exchange_strong(
                         seen, token, std::memory_order_acq_rel)) {
      const LaneStats view = slot_view(s);
      std::memset(view.psi, 0, lane_stride_);  // whole lane block at once
      return view;
    }
    // Claimed by another lane (before or during our CAS); keep scanning.
  }
  POOLED_REQUIRE(false, "more concurrent lanes than partial slots");
  return LaneStats{};
}

LaneStats LanePartials::claimed(unsigned slot) const {
  if (slot >= slot_count_ ||
      owners_[slot].load(std::memory_order_acquire) == 0) {
    return LaneStats{};
  }
  return slot_view(slot);
}

DecodeArena& DecodeArena::local() {
  thread_local DecodeArena arena;
  return arena;
}

bool DecodeArena::lane_budget_ok(unsigned lanes, std::size_t entries,
                                 StatsScope scope) {
  static const std::size_t budget = static_cast<std::size_t>(
      env_i64("POOLED_ARENA_BUDGET_MB", 1024)) << 20;
  return lane_stride_bytes(entries, scope) * lanes <= budget;
}

LanePartials& DecodeArena::lane_partials(unsigned lanes, std::size_t entries,
                                         StatsScope scope) {
  partials_.reset(lanes, entries, scope);
  return partials_;
}

}  // namespace pooled
