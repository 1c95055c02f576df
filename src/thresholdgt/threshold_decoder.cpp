#include "thresholdgt/threshold_decoder.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// Shared-atomics fallback, only for problem sizes whose per-lane partial
/// blocks would blow the arena budget. Integer accumulation keeps the
/// result identical to the fast paths.
void threshold_stats_atomic(const ThresholdGtInstance& instance, ThreadPool& pool,
                            std::uint64_t* psi_out, std::uint32_t* delta_star_out) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  std::vector<std::atomic<std::uint32_t>> psi(n);
  std::vector<std::atomic<std::uint32_t>> delta_star(n);
  constexpr std::uint32_t kUnmarked = 0xFFFFFFFFu;
  parallel_for_chunked(pool, 0, m, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> mark(n, kUnmarked);
    for (std::size_t q = lo; q < hi; ++q) {
      const auto query = static_cast<std::uint32_t>(q);
      instance.query_members(query, members);
      const std::uint32_t outcome = instance.outcomes()[q];
      for (std::uint32_t entry : members) {
        if (mark[entry] != query) {
          mark[entry] = query;
          psi[entry].fetch_add(outcome, std::memory_order_relaxed);
          delta_star[entry].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  for (std::uint32_t i = 0; i < n; ++i) {
    psi_out[i] = psi[i].load(std::memory_order_relaxed);
    delta_star_out[i] = delta_star[i].load(std::memory_order_relaxed);
  }
}

/// Per-entry (positive-count, distinct-count) statistics via per-lane
/// partials: from the bit-packed pools when available (no regeneration,
/// no mark array -- the bitmap is already distinct), else by regenerating
/// members through the fused distinct-accumulate kernel.
void threshold_stats(const ThresholdGtInstance& instance, ThreadPool& pool,
                     std::uint64_t* psi_out, std::uint32_t* delta_star_out) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  const unsigned lanes = pool.size();
  if (!DecodeArena::lane_budget_ok(lanes, n, StatsScope::Distinct)) {
    threshold_stats_atomic(instance, pool, psi_out, delta_star_out);
    return;
  }
  const PackedPools* packed = instance.packed(&pool);
  LanePartials& partials = DecodeArena::local().lane_partials(lanes, n,
                                                              StatsScope::Distinct);
  const KernelSet& kernels = active_kernels();
  parallel_for_chunked(pool, 0, m, 1, [&](std::size_t lo, std::size_t hi) {
    const LaneStats lane = partials.acquire(ThreadPool::current_lane());
    if (packed != nullptr) {
      for (std::size_t q = lo; q < hi; ++q) {
        const std::uint64_t outcome = instance.outcomes()[q];
        const std::uint64_t* row = packed->row(static_cast<std::uint32_t>(q));
        for (std::size_t w = 0; w < packed->words; ++w) {
          std::uint64_t bits = row[w];
          while (bits != 0) {
            const auto entry = static_cast<std::uint32_t>(
                w * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
            lane.psi[entry] += outcome;
            lane.delta_star[entry] += 1;
            bits &= bits - 1;
          }
        }
      }
    } else {
      std::vector<std::uint32_t>& members = DecodeArena::local().members();
      for (std::size_t q = lo; q < hi; ++q) {
        instance.query_members(static_cast<std::uint32_t>(q), members);
        kernels.accumulate_query_distinct(
            members.data(), members.size(), static_cast<std::uint32_t>(q) + 1,
            instance.outcomes()[q], lane.mark, lane.psi, lane.delta_star);
      }
    }
  });
  bool first = true;
  for (unsigned slot = 0; slot < partials.slots(); ++slot) {
    const LaneStats lane = partials.claimed(slot);
    if (lane.psi == nullptr) continue;
    if (first) {
      std::copy_n(lane.psi, n, psi_out);
      std::copy_n(lane.delta_star, n, delta_star_out);
      first = false;
    } else {
      for (std::uint32_t i = 0; i < n; ++i) psi_out[i] += lane.psi[i];
      for (std::uint32_t i = 0; i < n; ++i) {
        delta_star_out[i] += lane.delta_star[i];
      }
    }
  }
  if (first) {
    std::fill_n(psi_out, n, 0);
    std::fill_n(delta_star_out, n, 0);
  }
}

}  // namespace

ThresholdDecodeResult decode_threshold_mn(const ThresholdGtInstance& instance,
                                          std::uint32_t k, ThreadPool& pool) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");

  double positives = 0.0;
  for (std::uint8_t outcome : instance.outcomes()) positives += outcome;
  const double mean_outcome = m == 0 ? 0.0 : positives / static_cast<double>(m);

  // Integer per-entry statistics (positive-test count and distinct-query
  // count), accumulated exactly: Σ_{a ∈ ∂*x_i} (y_a − ȳ) = psi_i − Δ*_i ȳ.
  // Integral accumulation makes the result independent of the chunking /
  // thread count; the centered score is one dispatched kernel pass.
  DecodeArena& arena = DecodeArena::local();
  EntryStats& stats = arena.stats();
  stats.resize(n, StatsScope::Distinct);
  threshold_stats(instance, pool, stats.psi.data(), stats.delta_star.data());

  std::vector<double> scores(n);
  const KernelSet& kernels = active_kernels();
  parallel_for_chunked(pool, 0, n, 8192, [&](std::size_t lo, std::size_t hi) {
    kernels.score_centered(stats.psi.data(), stats.delta_star.data(), lo, hi,
                           mean_outcome, scores.data());
  });

  std::vector<std::uint32_t> support(k);
  select_top_k_into(kernels, scores.data(), n, k, arena.topk_values(n),
                    support.data());
  return ThresholdDecodeResult{Signal(n, std::move(support)), std::move(scores)};
}

}  // namespace pooled
