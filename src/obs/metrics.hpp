// Lock-cheap metrics for the serving stack.
//
// The serve pipeline produces signals at very different rates: counters
// tick once per job, latency histograms once per result frame, and the
// snapshot that exports them is read perhaps once a second by a `stats`
// protocol frame or the `--metrics` endpoint. The design follows that
// asymmetry:
//
//   - Counter / Gauge / LatencyHistogram are plain structs of atomics.
//     Updating one is a handful of uncontended atomic adds -- no lock,
//     no allocation -- so they can sit on the per-job hot path of a
//     saturated server.
//   - Counter uses the default (seq_cst) order; the other kinds are
//     relaxed. Callers reconcile counters against each other: the serve
//     reaper bumps serve.connections_reaped before it sets a cancel token,
//     so a reader that sees serve.jobs_cancelled must also see the reap.
//     On x86 a seq_cst fetch_add/load is the same `lock xadd`/`mov` as a
//     relaxed one, so the order costs nothing on the hot path. Gauges and
//     histograms are levels and distributions that nothing reconciles,
//     so they stay relaxed.
//   - MetricsRegistry owns them behind stable addresses (deques). Only
//     *registration* (first use of a name) takes the registry mutex;
//     callers resolve their handles once at startup and then update
//     lock-free. Snapshotting takes the mutex only to walk the name
//     table; the values themselves are read with lock-free atomic loads.
//
// A MetricsSnapshot is the export format shared by every consumer: the
// `pooled-stats` protocol frame (engine/protocol.hpp), the `--metrics`
// plain-text endpoint (obs/metrics_server.hpp), and the perf suite's
// saturation section. One metric per line:
//
//   counter serve.jobs_served 128
//   gauge serve.queue_depth 3 peak 17
//   label build.kernels avx2
//   hist serve.job_seconds count 128 sum 1.5 min 0.001 max 0.2
//        p50 0.008 p90 0.06 p95 0.1 p99 0.2           (one line on the wire)
//
// The format is load/save stable: parsing a snapshot and re-serializing
// it reproduces the bytes (doubles print at precision 17), which is what
// lets the golden protocol fixtures pin the frame grammar.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/thread_annotations.hpp"

namespace pooled {

/// Monotonic event count.
class Counter {
 public:
  /// Returns the count after this add, so concurrent adders each see a
  /// distinct value (ServeServer numbers connections with it).
  std::uint64_t add(std::uint64_t delta = 1) {
    return value_.fetch_add(delta) + delta;
  }
  [[nodiscard]] std::uint64_t value() const { return value_.load(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, live connections, arena bytes) with
/// a monotonic high-water mark, so "how deep did the queue get" survives
/// the moment of the snapshot.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    raise_peak(value);
  }
  void add(std::int64_t delta) {
    raise_peak(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void raise_peak(std::int64_t seen) {
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (seen > peak &&
           !peak_.compare_exchange_weak(peak, seen, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Point-in-time view of a LatencyHistogram. Quantiles are resolved at
/// snapshot time (see LatencyHistogram::snapshot) and carried as plain
/// values so the wire format does not expose bucket internals.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum_seconds = 0.0;
  double min_seconds = 0.0;  ///< 0 when count == 0
  double max_seconds = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] double mean_seconds() const {
    return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
  }
};

/// Fixed-bucket latency histogram: bucket 0 holds sub-microsecond
/// samples, bucket i >= 1 holds [2^(i-1), 2^i) microseconds -- 48
/// buckets reach past 38 hours, so no decode latency falls off the top.
/// Recording is three relaxed atomic adds plus two CAS min/max updates;
/// quantiles are computed only at snapshot time, as the upper edge of
/// the bucket containing the rank, clamped to the observed maximum.
class LatencyHistogram {
 public:
  static constexpr unsigned kBuckets = 48;

  void record(double seconds);
  void record_us(std::uint64_t us);

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Bucket index of a microsecond sample (0 for 0us).
  [[nodiscard]] static unsigned bucket_of_us(std::uint64_t us);
  /// Exclusive upper edge of `bucket`, in seconds (2^bucket microseconds).
  [[nodiscard]] static double bucket_upper_seconds(unsigned bucket);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> min_us_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_us_{0};
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Label, Histogram };

/// One exported metric; which fields are meaningful depends on `kind`.
struct MetricValue {
  MetricKind kind = MetricKind::Counter;
  std::string name;
  std::uint64_t count = 0;          ///< Counter
  std::int64_t value = 0;           ///< Gauge
  std::int64_t peak = 0;            ///< Gauge high-water
  std::string label;                ///< Label
  HistogramSnapshot hist;           ///< Histogram

  static MetricValue of_counter(std::string name, std::uint64_t count);
  static MetricValue of_gauge(std::string name, std::int64_t value,
                              std::int64_t peak);
  static MetricValue of_label(std::string name, std::string label);
  static MetricValue of_histogram(std::string name, HistogramSnapshot hist);
};

/// Ordered list of metrics (registration / assembly order, so snapshots
/// of one source serialize deterministically).
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  /// First metric with this name, or nullptr.
  [[nodiscard]] const MetricValue* find(const std::string& name) const;
  /// Convenience for tests/tools: the named counter's value (fallback
  /// when absent or not a counter).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name,
                                         std::int64_t fallback = 0) const;
};

/// One metric per line ("counter <name> <v>", "gauge <name> <v> peak <p>",
/// "label <name> <text>", "hist <name> count .. sum .. min .. max ..
/// p50 .. p90 .. p95 .. p99 .."). Doubles print at precision 17 so
/// format(parse(line)) == line.
[[nodiscard]] std::string format_metric_line(const MetricValue& value);
/// Inverse of format_metric_line; throws ContractError on malformed input.
[[nodiscard]] MetricValue parse_metric_line(const std::string& line);
/// Every metric, one line each (the `--metrics` endpoint body).
void write_snapshot_text(std::ostream& os, const MetricsSnapshot& snapshot);

/// Named metrics with stable addresses. Resolving a name takes the
/// mutex; the returned references stay valid for the registry's lifetime
/// and update lock-free. Re-resolving a name returns the same object;
/// resolving an existing name as a different kind throws ContractError.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name);
  /// Sets (or replaces) a free-form label, e.g. the kernel dispatch tier.
  void set_label(const std::string& name, std::string value);

  /// Metrics in registration order.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Slot {
    MetricKind kind;
    std::string name;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    LatencyHistogram* histogram = nullptr;
    std::string label;
  };

  Slot& resolve(const std::string& name, MetricKind kind)
      POOLED_REQUIRES(mutex_);

  mutable AnnotatedMutex mutex_;
  std::vector<Slot> order_ POOLED_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::size_t> index_ POOLED_GUARDED_BY(mutex_);
  // Deques: element addresses survive growth (atomics are not movable).
  // The *elements* deliberately escape the mutex -- a resolved Counter&
  // updates lock-free via atomics; only registration (layout growth) and
  // the name table need the lock.
  std::deque<Counter> counters_ POOLED_GUARDED_BY(mutex_);
  std::deque<Gauge> gauges_ POOLED_GUARDED_BY(mutex_);
  std::deque<LatencyHistogram> histograms_ POOLED_GUARDED_BY(mutex_);
};

}  // namespace pooled
