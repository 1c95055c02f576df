// A pooled-data instance: the observable data (G, y) handed to the
// student in the teacher-student model.
//
// Two backends share one interface:
//  * StoredInstance   -- materializes the bipartite multigraph; right for
//                        small/medium n, exhaustive decoding, and tests.
//  * StreamedInstance -- keeps only (design, m, y) and regenerates any
//                        query from its Philox stream; O(n + m) memory,
//                        right for paper-scale n where the graph has
//                        ~m*n/2 edges.
// Both produce bit-identical entry statistics for the same design+seed,
// which the test suite asserts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/signal.hpp"
#include "design/design.hpp"
#include "graph/bipartite.hpp"

namespace pooled {

class ThreadPool;

/// Output channel a query's pooled sum is observed through (§I.D / §VI):
/// the quantitative channel reports the sum itself, the group-testing
/// channels collapse it to one bit.
enum class ChannelKind : std::uint8_t {
  Quantitative,  ///< y = Σ σ_i over the pool (the paper's main model)
  Binary,        ///< y = 1{Σ ≥ 1} (OR channel, binary group testing)
  Threshold,     ///< y = 1{Σ ≥ T} (threshold group testing)
};

/// Observed value of a pooled sum under the channel.
[[nodiscard]] constexpr std::uint32_t apply_channel(std::uint32_t sum,
                                                    ChannelKind channel,
                                                    std::uint32_t threshold) {
  switch (channel) {
    case ChannelKind::Quantitative:
      return sum;
    case ChannelKind::Binary:
      return sum >= 1 ? 1 : 0;
    case ChannelKind::Threshold:
      return sum >= threshold ? 1 : 0;
  }
  return sum;
}

/// Which per-entry aggregates an entry-statistics pass must produce.
enum class StatsScope : std::uint8_t {
  Full,      ///< all four aggregates (the multi-edge score ablation)
  Distinct,  ///< Ψ and Δ* only: every score of Algorithm 1 reads just these
};

/// Per-entry aggregates used by the MN decoder (paper notation):
///   psi[i]        Ψ_i  = sum of y_a over *distinct* queries containing i
///   psi_multi[i]  = sum of multiplicity_ia * y_a (multi-edge-weighted, for
///                   the score ablation)
///   delta[i]      Δ_i  = membership count with multiplicity
///   delta_star[i] Δ*_i = number of distinct queries containing i
/// A StatsScope::Distinct pass may leave psi_multi and delta empty.
struct EntryStats {
  std::vector<std::uint64_t> psi;
  std::vector<std::uint64_t> psi_multi;
  std::vector<std::uint64_t> delta;
  std::vector<std::uint32_t> delta_star;

  void resize(std::size_t n, StatsScope scope = StatsScope::Full) {
    const std::size_t multi = scope == StatsScope::Full ? n : 0;
    psi.resize(n);
    psi_multi.resize(multi);
    delta.resize(multi);
    delta_star.resize(n);
  }
};

class Instance {
 public:
  virtual ~Instance() = default;

  [[nodiscard]] virtual std::uint32_t n() const = 0;
  [[nodiscard]] virtual std::uint32_t m() const = 0;

  /// Query results y (the only signal-dependent observable).
  [[nodiscard]] virtual const std::vector<std::uint32_t>& results() const = 0;

  /// Membership draws of query j, duplicates included.
  virtual void query_members(std::uint32_t query,
                             std::vector<std::uint32_t>& out) const = 0;

  /// Computes the per-entry aggregates `scope` asks for (parallel over
  /// queries/entries) into `out` (resized). Decoders pass arena-owned
  /// stats so the steady state allocates nothing.
  virtual void entry_stats_into(ThreadPool& pool, EntryStats& out,
                                StatsScope scope) const = 0;

  /// Convenience wrapper returning fresh vectors with all four aggregates.
  [[nodiscard]] EntryStats entry_stats(ThreadPool& pool) const {
    EntryStats stats;
    entry_stats_into(pool, stats, StatsScope::Full);
    return stats;
  }

  /// Output channel the observed results() went through.
  [[nodiscard]] virtual ChannelKind channel() const {
    return ChannelKind::Quantitative;
  }

  /// Threshold T for ChannelKind::Threshold (1 otherwise).
  [[nodiscard]] virtual std::uint32_t channel_threshold() const { return 1; }

  /// y(candidate): results the candidate signal would produce (through
  /// the instance's channel).
  [[nodiscard]] std::vector<std::uint32_t> results_for(const Signal& candidate) const;

  /// True if the candidate explains every observed query result.
  [[nodiscard]] bool is_consistent(const Signal& candidate) const;

  /// Sum of all query results (= sum_i sigma_i * Δ_i); the "one extra
  /// query over all entries" k-estimator uses results_for on the all-ones
  /// probe instead, see estimate_k().
  [[nodiscard]] std::uint64_t total_result() const;
};

/// Instance with a materialized graph.
class StoredInstance final : public Instance {
 public:
  StoredInstance(BipartiteMultigraph graph, std::vector<std::uint32_t> y);

  [[nodiscard]] std::uint32_t n() const override { return graph_.num_entries(); }
  [[nodiscard]] std::uint32_t m() const override { return graph_.num_queries(); }
  [[nodiscard]] const std::vector<std::uint32_t>& results() const override {
    return y_;
  }
  void query_members(std::uint32_t query,
                     std::vector<std::uint32_t>& out) const override;
  /// Always fills all four aggregates: one adjacency walk yields them
  /// together, so a narrower scope would save nothing.
  void entry_stats_into(ThreadPool& pool, EntryStats& out,
                        StatsScope scope) const override;

  [[nodiscard]] const BipartiteMultigraph& graph() const { return graph_; }

 private:
  BipartiteMultigraph graph_;
  std::vector<std::uint32_t> y_;
};

/// Instance that regenerates queries from the design's keyed streams.
/// Optionally carries a one-bit observation channel, which is how the
/// group-testing instances of §I.D / §VI ride through the same engine
/// plumbing as the quantitative ones (y is then 0/1 per query).
class StreamedInstance final : public Instance {
 public:
  StreamedInstance(std::shared_ptr<const PoolingDesign> design, std::uint32_t m,
                   std::vector<std::uint32_t> y,
                   ChannelKind channel = ChannelKind::Quantitative,
                   std::uint32_t threshold = 1);

  [[nodiscard]] std::uint32_t n() const override { return design_->num_entries(); }
  [[nodiscard]] std::uint32_t m() const override { return m_; }
  [[nodiscard]] const std::vector<std::uint32_t>& results() const override {
    return y_;
  }
  void query_members(std::uint32_t query,
                     std::vector<std::uint32_t>& out) const override;
  void entry_stats_into(ThreadPool& pool, EntryStats& out,
                        StatsScope scope) const override;
  [[nodiscard]] ChannelKind channel() const override { return channel_; }
  [[nodiscard]] std::uint32_t channel_threshold() const override {
    return threshold_;
  }

  [[nodiscard]] const PoolingDesign& design() const { return *design_; }
  /// Shared ownership of the design (the GT adapters rebuild their
  /// instance types around it).
  [[nodiscard]] const std::shared_ptr<const PoolingDesign>& design_ptr() const {
    return design_;
  }

 private:
  std::shared_ptr<const PoolingDesign> design_;
  std::uint32_t m_;
  std::vector<std::uint32_t> y_;
  ChannelKind channel_ = ChannelKind::Quantitative;
  std::uint32_t threshold_ = 1;
};

/// Runs the m parallel queries of `design` against `truth`.
/// The returned y is what a lab would hand back after one parallel round.
std::vector<std::uint32_t> simulate_queries(const PoolingDesign& design,
                                            std::uint32_t m, const Signal& truth,
                                            ThreadPool& pool);

/// Teacher step, stored backend: draw the graph, run the queries.
std::unique_ptr<StoredInstance> make_stored_instance(const PoolingDesign& design,
                                                     std::uint32_t m,
                                                     const Signal& truth,
                                                     ThreadPool& pool);

/// Teacher step, streamed backend.
std::unique_ptr<StreamedInstance> make_streamed_instance(
    std::shared_ptr<const PoolingDesign> design, std::uint32_t m,
    const Signal& truth, ThreadPool& pool);

/// Exact Hamming weight from one additional all-entries query (the
/// paper's observation that k need not be known a priori).
std::uint32_t estimate_k_extra_query(const Signal& truth);

/// Materializes the full bipartite multigraph of an instance (regenerates
/// every query). Baseline decoders that need matrix access use this; cost
/// is O(sum of pool sizes) time and memory.
BipartiteMultigraph materialize_graph(const Instance& instance);

}  // namespace pooled
