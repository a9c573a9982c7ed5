#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace rose {
namespace {

TEST(ObsTest, CounterStartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsTest, GaugeSetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsTest, HistogramCountAndSumAreExact) {
  Histogram h;
  uint64_t expected_sum = 0;
  for (uint64_t v = 0; v < 1000; v++) {
    h.Record(v * 7);
    expected_sum += v * 7;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), expected_sum);
}

TEST(ObsTest, SmallValuesAreExactBuckets) {
  // Values 0..7 land in dedicated width-1 buckets: quantiles are exact.
  Histogram h;
  for (uint64_t v = 0; v < 8; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.5), 3u);
  EXPECT_EQ(h.Quantile(1.0), 7u);
}

TEST(ObsTest, BucketGeometryIsConsistent) {
  // Every value must fall inside [lower, lower + width) of its own bucket,
  // and bucket boundaries must tile the range without gaps.
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1023ull, 1024ull,
                     123456789ull, (1ull << 40) + 17, ~0ull}) {
    const int index = Histogram::BucketIndex(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, Histogram::kBuckets);
    EXPECT_GE(v, Histogram::BucketLower(index)) << v;
    EXPECT_LT(v - Histogram::BucketLower(index), Histogram::BucketWidth(index)) << v;
  }
  for (int i = 1; i < Histogram::kBuckets; i++) {
    EXPECT_EQ(Histogram::BucketLower(i),
              Histogram::BucketLower(i - 1) + Histogram::BucketWidth(i - 1));
  }
}

TEST(ObsTest, QuantileErrorStaysWithinOneSubBucket) {
  // The log-linear layout promises ≤ 1/kSub (12.5%) relative error plus the
  // half-bucket offset from reporting midpoints. Verify against a known
  // distribution: 1..10000 uniform.
  Histogram h;
  for (uint64_t v = 1; v <= 10000; v++) {
    h.Record(v);
  }
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = q * 10000.0;
    const double estimate = static_cast<double>(h.Quantile(q));
    EXPECT_NEAR(estimate, exact, exact * (1.0 / Histogram::kSub)) << "q=" << q;
  }
}

TEST(ObsTest, ApproxMaxTracksHighestRecording) {
  Histogram h;
  EXPECT_EQ(h.ApproxMax(), 0u);
  h.Record(5);
  EXPECT_EQ(h.ApproxMax(), 5u);  // Exact below kSub.
  h.Record(1000000);
  const double approx = static_cast<double>(h.ApproxMax());
  EXPECT_NEAR(approx, 1000000.0, 1000000.0 * (1.0 / Histogram::kSub));
}

TEST(ObsTest, RegistryReturnsStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
  a->Inc(3);
  registry.GetCounter("y")->Inc(1);
  // Same-name gauge/histogram namespaces are independent.
  registry.GetGauge("x")->Set(-7);
  registry.GetHistogram("x")->Record(12);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "x");
  EXPECT_EQ(snap.counters[0].second, 3u);
  EXPECT_EQ(snap.counters[1].first, "y");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(ObsTest, SnapshotIsSortedAndStableAcrossCalls) {
  MetricRegistry registry;
  // Register in shuffled order; snapshots must come out name-sorted so two
  // snapshots of the same state are byte-identical (determinism check).
  for (const char* name : {"zeta", "alpha", "mid", "beta"}) {
    registry.GetCounter(name)->Inc();
  }
  const std::string first = registry.Snapshot().ToYaml();
  const std::string second = registry.Snapshot().ToYaml();
  EXPECT_EQ(first, second);
  EXPECT_LT(first.find("alpha"), first.find("beta"));
  EXPECT_LT(first.find("beta"), first.find("mid"));
  EXPECT_LT(first.find("mid"), first.find("zeta"));
}

TEST(ObsTest, ToYamlShapes) {
  MetricRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToYaml(),
            "# rose-obs v1\ncounters: {}\ngauges: {}\nhistograms: {}\n");
  registry.GetCounter("c.one")->Inc(5);
  registry.GetHistogram("h.lat")->Record(3);
  const std::string yaml = registry.Snapshot().ToYaml();
  EXPECT_NE(yaml.find("counters:\n  c.one: 5\n"), std::string::npos) << yaml;
  EXPECT_NE(yaml.find("h.lat: {count: 1, sum: 3, p50: 3, p90: 3, p99: 3, max: 3}"),
            std::string::npos)
      << yaml;
}

TEST(ObsTest, ResetZeroesEverythingButKeepsPointersValid) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  c->Inc(9);
  g->Set(4);
  h->Record(100);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->Quantile(0.99), 0u);
  c->Inc();  // Pointer still usable after Reset.
  EXPECT_EQ(c->value(), 1u);
}

TEST(ObsTest, ScopedTimerRecordsOnceAtScopeExit) {
  Histogram h;
  {
    ScopedTimer timer(&h);
    EXPECT_EQ(h.count(), 0u);
  }
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer timer(nullptr); }  // Null histogram is a no-op, not a crash.
}

// Exercised under TSan in CI (the ObsTest suite is in the sanitizer regex):
// concurrent Inc/Record/Snapshot must be race-free and lose no increments.
TEST(ObsTest, ConcurrentIncrementsLoseNothing) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("shared.counter");
  Histogram* h = registry.GetHistogram("shared.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        c->Inc();
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
      // Snapshots race with the writers by design; they must be safe.
      (void)registry.Snapshot();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsTest, ConcurrentRegistrationYieldsOneMetricPerName) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] { seen[t] = registry.GetCounter("same.name"); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 1; t < kThreads; t++) {
    EXPECT_EQ(seen[t], seen[0]);
  }
}

TEST(ObsTest, WriteStatsFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/obs_stats.yaml";
  ASSERT_TRUE(WriteStatsFile(path));
  std::ifstream in(path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "# rose-obs v1");
  EXPECT_FALSE(WriteStatsFile("/nonexistent-dir-zzz/stats.yaml"));
}

}  // namespace
}  // namespace rose
