// Observability layer: histogram bucketing and percentiles, registry
// thread-safety, the metric wire grammar, and per-job trace spans. Not
// stress-labeled on purpose -- the sanitizer CI job runs all of this, so
// data races in the lock-free metric paths surface under TSan-adjacent
// scrutiny (ASan catches the lifetime bugs, UBSan the overflow ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

// ---- histogram bucketing ----------------------------------------------

TEST(LatencyHistogram, BucketOfMicrosecondsIsLogTwo) {
  // Bucket 0 holds the zero sample; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::bucket_of_us(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of_us(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of_us(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of_us(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of_us(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of_us(1023), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of_us(1024), 11u);
  // Far past any real latency: clamped into the top bucket, not UB.
  EXPECT_EQ(LatencyHistogram::bucket_of_us(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, BucketUpperEdgesArePowersOfTwoMicroseconds) {
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_seconds(0), 1e-6);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_seconds(1), 2e-6);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper_seconds(10), 1024e-6);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  const LatencyHistogram histogram;
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_seconds, 0.0);
  EXPECT_EQ(snap.min_seconds, 0.0);
  EXPECT_EQ(snap.max_seconds, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
  EXPECT_EQ(snap.mean_seconds(), 0.0);
}

TEST(LatencyHistogram, UniformSamplesClampQuantilesToTheMaximum) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.record_us(100);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min_seconds, 100e-6);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 100e-6);
  // Every sample sits in the [64, 128)us bucket; the quantile is the
  // bucket's upper edge clamped to the observed maximum.
  EXPECT_DOUBLE_EQ(snap.p50, 100e-6);
  EXPECT_DOUBLE_EQ(snap.p90, 100e-6);
  EXPECT_DOUBLE_EQ(snap.p99, 100e-6);
  EXPECT_DOUBLE_EQ(snap.mean_seconds(), 100e-6);
}

TEST(LatencyHistogram, QuantilesSeparateADistributionsTail) {
  LatencyHistogram histogram;
  // 90 fast samples in [64, 128)us, 10 slow ones in [32768, 65536)us.
  for (int i = 0; i < 90; ++i) histogram.record_us(100);
  for (int i = 0; i < 10; ++i) histogram.record_us(50000);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_LE(snap.p50, 128e-6);  // the fast bucket's upper edge
  EXPECT_LE(snap.p90, 128e-6);  // rank 90 still lands in the fast bucket
  EXPECT_GT(snap.p95, 128e-6);  // the tail is visible past p90
  EXPECT_DOUBLE_EQ(snap.p99, 50000e-6);  // clamped to the observed max
}

TEST(LatencyHistogram, RecordSecondsRoundsToMicroseconds) {
  LatencyHistogram histogram;
  histogram.record(0.001);    // 1000us
  histogram.record(-5.0);     // clamped to zero, not UB
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 1000e-6);
}

// ---- counters, gauges, registry ---------------------------------------

TEST(MetricsRegistry, GaugeTracksValueAndHighWater) {
  Gauge gauge;
  gauge.add(3);
  gauge.add(4);
  gauge.add(-5);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.peak(), 7);
  gauge.set(1);
  EXPECT_EQ(gauge.value(), 1);
  EXPECT_EQ(gauge.peak(), 7);  // the peak survives the drop
}

TEST(MetricsRegistry, ResolvesOneObjectPerName) {
  MetricsRegistry registry;
  Counter& first = registry.counter("jobs");
  Counter& second = registry.counter("jobs");
  EXPECT_EQ(&first, &second);
  first.add(2);
  EXPECT_EQ(second.value(), 2u);
}

TEST(MetricsRegistry, RejectsKindMismatches) {
  MetricsRegistry registry;
  (void)registry.counter("jobs");
  EXPECT_THROW((void)registry.gauge("jobs"), ContractError);
  EXPECT_THROW((void)registry.histogram("jobs"), ContractError);
}

TEST(MetricsRegistry, SnapshotPreservesRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("a").add(1);
  registry.gauge("b").set(2);
  registry.set_label("c", "text");
  registry.histogram("d").record_us(10);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.values.size(), 4u);
  EXPECT_EQ(snapshot.values[0].name, "a");
  EXPECT_EQ(snapshot.values[1].name, "b");
  EXPECT_EQ(snapshot.values[2].name, "c");
  EXPECT_EQ(snapshot.values[3].name, "d");
  EXPECT_EQ(snapshot.counter_value("a"), 1u);
  EXPECT_EQ(snapshot.gauge_value("b"), 2);
  EXPECT_EQ(snapshot.find("c")->label, "text");
  EXPECT_EQ(snapshot.find("d")->hist.count, 1u);
  EXPECT_EQ(snapshot.find("missing"), nullptr);
  EXPECT_EQ(snapshot.counter_value("missing", 7), 7u);
}

TEST(MetricsRegistry, ConcurrentResolutionAndUpdatesAreExact) {
  // Registration races registration (the mutex path) while updates race
  // updates (the lock-free path); counts must still be exact. The
  // sanitizer CI job runs this, so a torn update or a use-after-move of
  // a registry slot would surface there.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.counter("shared").add(1);
        // Re-registering under contention must keep addresses stable.
        registry.counter("shard." + std::to_string(i % 16)).add(1);
        Gauge& gauge = registry.gauge("level");
        gauge.add(1);
        registry.histogram("lat").record_us(
            static_cast<std::uint64_t>(t * kIterations + i));
        gauge.add(-1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("shared"), kThreads * kIterations);
  std::uint64_t sharded = 0;
  for (int s = 0; s < 16; ++s) {
    sharded += snapshot.counter_value("shard." + std::to_string(s));
  }
  EXPECT_EQ(sharded, kThreads * kIterations);
  EXPECT_EQ(snapshot.gauge_value("level"), 0);
  EXPECT_LE(snapshot.find("level")->peak, kThreads);
  EXPECT_EQ(snapshot.find("lat")->hist.count,
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

// ---- wire grammar -----------------------------------------------------

TEST(MetricWire, FormatParseRoundTripsEveryKind) {
  const std::vector<std::string> lines = {
      "counter serve.jobs_served 128",
      "gauge serve.queue_depth 3 peak 17",
      "gauge arena.live_bytes -1 peak 0",
      "label build.kernels avx2",
      "hist serve.job_seconds count 128 sum 1.5 min 0.0009765625 max 0.25 "
      "p50 0.015625 p90 0.125 p95 0.1875 p99 0.25",
  };
  for (const std::string& line : lines) {
    EXPECT_EQ(format_metric_line(parse_metric_line(line)), line) << line;
  }
}

TEST(MetricWire, NonDyadicDoublesStillRoundTrip) {
  // Precision 17 makes format(parse(format(x))) == format(x) for any
  // double, dyadic or not -- the golden-fixture stability property.
  LatencyHistogram histogram;
  histogram.record(0.1);
  histogram.record(1.0 / 3.0);
  MetricValue value = MetricValue::of_histogram("h", histogram.snapshot());
  const std::string line = format_metric_line(value);
  EXPECT_EQ(format_metric_line(parse_metric_line(line)), line);
}

TEST(MetricWire, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_metric_line(""), ContractError);
  EXPECT_THROW((void)parse_metric_line("counter"), ContractError);
  EXPECT_THROW((void)parse_metric_line("counter jobs"), ContractError);
  EXPECT_THROW((void)parse_metric_line("counter jobs nan-ish"), ContractError);
  EXPECT_THROW((void)parse_metric_line("gauge depth 3"), ContractError);
  EXPECT_THROW((void)parse_metric_line("histogram h count 1"), ContractError);
  EXPECT_THROW((void)parse_metric_line("hist h count 1 sum 0.5"),
               ContractError);
}

TEST(MetricWire, SnapshotTextIsOneLinePerMetric) {
  MetricsRegistry registry;
  registry.counter("jobs").add(3);
  registry.gauge("depth").set(2);
  std::ostringstream text;
  write_snapshot_text(text, registry.snapshot());
  EXPECT_EQ(text.str(), "counter jobs 3\ngauge depth 2 peak 2\n");
}

// ---- trace spans ------------------------------------------------------

TEST(TraceSpan, EmitsOneJsonLinePerJobWithStageTimings) {
  std::ostringstream log;
  TraceRecorder recorder(log);
  {
    TraceSpan span(recorder, /*connection=*/3, /*job_index=*/7);
    span.stage(TraceStage::Parse, 0.000125);
    span.mark_enqueued();
    span.mark_dequeued();
    span.stage(TraceStage::Decode, 0.002);
    span.set_cache_hit(false);
    span.set_outcome("mn", true, "completed", 2, 96);
    span.finish();
    span.finish();  // idempotent: still one line
  }
  const std::string text = log.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("\"conn\":3"), std::string::npos) << text;
  EXPECT_NE(text.find("\"job\":7"), std::string::npos) << text;
  EXPECT_NE(text.find("\"decoder\":\"mn\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ok\":true"), std::string::npos) << text;
  EXPECT_NE(text.find("\"stop\":\"completed\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"rounds\":2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"queries\":96"), std::string::npos) << text;
  EXPECT_NE(text.find("\"cache_hit\":false"), std::string::npos) << text;
  EXPECT_NE(text.find("\"parse\":125"), std::string::npos) << text;
  EXPECT_NE(text.find("\"decode\":2000"), std::string::npos) << text;
  EXPECT_NE(text.find("\"queue\":"), std::string::npos) << text;
  // Stages the span never saw stay out of the record.
  EXPECT_EQ(text.find("\"build\":"), std::string::npos) << text;
}

TEST(TraceSpan, StageNamesFollowThePipeline) {
  const char* const want[] = {"parse",  "queue",  "cache-lookup", "build",
                              "decode", "verify", "serialize"};
  ASSERT_EQ(std::size(want), kTraceStages);
  for (unsigned s = 0; s < kTraceStages; ++s) {
    EXPECT_STREQ(trace_stage_name(static_cast<TraceStage>(s)), want[s]);
  }
}

TEST(TraceSpan, DestructorEmitsUnfinishedSpans) {
  std::ostringstream log;
  TraceRecorder recorder(log);
  {
    TraceSpan span(recorder, 1, 0);
    span.stage(TraceStage::Parse, 0.0001);
  }  // no explicit finish()
  EXPECT_NE(log.str().find("\"parse\":100"), std::string::npos) << log.str();
}

TEST(TraceSpan, ForwardsRoundCallbacksToTheChainedSink) {
  // The span is itself a DecodeStatsSink: it records the trajectory and
  // forwards every callback, so --progress and --trace compose.
  class CountingSink final : public DecodeStatsSink {
   public:
    void on_round(std::uint32_t, std::uint64_t) override { ++calls; }
    int calls = 0;
  };
  std::ostringstream log;
  TraceRecorder recorder(log);
  CountingSink chained;
  TraceSpan span(recorder, 1, 0);
  span.set_chain(&chained);
  span.on_round(1, 16);
  span.on_round(2, 32);
  span.finish();
  EXPECT_EQ(chained.calls, 2);
  EXPECT_NE(log.str().find("\"rounds\":2"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("\"queries\":32"), std::string::npos) << log.str();
}

TEST(TraceRecorder, ConcurrentSpansEmitWholeLines) {
  std::ostringstream log;
  TraceRecorder recorder(log);
  constexpr int kThreads = 6;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int s = 0; s < kSpans; ++s) {
        TraceSpan span(recorder, static_cast<std::uint64_t>(t + 1),
                       static_cast<std::size_t>(s));
        span.stage(TraceStage::Decode, 0.0001);
        span.set_outcome("mn", true, "completed", 1, 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::istringstream lines(log.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;  // no interleaved halves
  }
  EXPECT_EQ(count, kThreads * kSpans);
}

}  // namespace
}  // namespace pooled
