#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

namespace rose {
namespace {

TEST(WorkerPoolTest, DefaultParallelismIsAtLeastOne) {
  EXPECT_GE(WorkerPool::DefaultParallelism(), 1);
}

TEST(WorkerPoolTest, ClampsThreadCountToAtLeastOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
}

TEST(WorkerPoolTest, DrainsAllEnqueuedJobsBeforeShutdown) {
  std::atomic<int> executed{0};
  {
    WorkerPool pool(4);
    for (int i = 0; i < 100; i++) {
      pool.Enqueue([&executed] { executed.fetch_add(1); });
    }
    // The destructor must wait for (and finish) every queued job.
  }
  EXPECT_EQ(executed.load(), 100);
}

TEST(OrderedBatchTest, SerialModeIsLazyAndSkipsUnconsumedTasks) {
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 4; i++) {
    tasks.push_back([&executed, i] {
      executed.fetch_add(1);
      return i * 10;
    });
  }
  {
    OrderedBatch<int> batch(nullptr, std::move(tasks));
    EXPECT_EQ(executed.load(), 0);  // Nothing runs until Get().
    EXPECT_EQ(batch.Get(0), 0);
    EXPECT_EQ(batch.Get(1), 10);
    EXPECT_EQ(executed.load(), 2);
    batch.Abandon();
  }
  // Tasks 2 and 3 were never consumed, so serial mode never ran them —
  // exactly what a serial loop with an early break would do.
  EXPECT_EQ(executed.load(), 2);
}

TEST(OrderedBatchTest, SingleThreadPoolBehavesSerially) {
  WorkerPool pool(1);
  std::atomic<int> executed{0};
  std::vector<std::function<int()>> tasks;
  tasks.push_back([&executed] {
    executed.fetch_add(1);
    return 7;
  });
  OrderedBatch<int> batch(&pool, std::move(tasks));
  EXPECT_EQ(executed.load(), 0);  // A 1-thread pool stays lazy.
  EXPECT_EQ(batch.Get(0), 7);
}

TEST(OrderedBatchTest, ParallelResultsArriveInSubmissionOrder) {
  WorkerPool pool(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; i++) {
    tasks.push_back([i] { return i * i; });
  }
  OrderedBatch<int> batch(&pool, std::move(tasks));
  for (int i = 0; i < 32; i++) {
    EXPECT_EQ(batch.Get(static_cast<size_t>(i)), i * i);
  }
}

TEST(OrderedBatchTest, AbandonSkipsTasksThatHaveNotStarted) {
  WorkerPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  std::atomic<int> executed{0};

  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 10; i++) {
    tasks.push_back([&, i] {
      executed.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      started++;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return i;
    });
  }
  {
    OrderedBatch<int> batch(&pool, std::move(tasks));
    {
      // Both workers are now parked inside tasks 0 and 1.
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return started == 2; });
    }
    batch.Abandon();
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
    // The batch destructor waits for the two in-flight tasks and skips the
    // other eight.
  }
  EXPECT_EQ(executed.load(), 2);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) {
      equal++;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; i++) {
    const int64_t value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; i++) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; i++) {
    if (rng.NextBool(0.3)) {
      hits++;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(ZipfianTest, SkewsTowardLowItems) {
  Rng rng(3);
  ZipfianGenerator zipf(100, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    const uint64_t item = zipf.Next(rng);
    ASSERT_LT(item, 100u);
    counts[item]++;
  }
  // Item 0 should be much more popular than item 50.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleToken) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%05d", 7), "00007");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// StrFormat formats into a 256-byte stack buffer: 255 bytes fit with the
// NUL, 256 and more take the second, heap-sized pass.
TEST(StringsTest, StrFormatAtAndPastTheStackBuffer) {
  for (const size_t size : {255, 256, 1000}) {
    const std::string body(size - 2, 'x');
    const std::string out = StrFormat("<%s>", body.c_str());
    EXPECT_EQ(out.size(), size);
    EXPECT_EQ(out, "<" + body + ">");
  }
  EXPECT_EQ(StrFormat("%0255d", 7), std::string(254, '0') + "7");
  EXPECT_EQ(StrFormat("%0256d", -7), "-" + std::string(254, '0') + "7");
}

TEST(StringsTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("sock:10.0.0.1", "sock:"));
  EXPECT_FALSE(StartsWith("so", "sock:"));
  EXPECT_TRUE(EndsWith("raft.log", ".log"));
  EXPECT_FALSE(EndsWith("g", ".log"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_FALSE(Contains("abcdef", "xyz"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc \n"), "abc");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, ParseUint64) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseUint64("12345", &value));
  EXPECT_EQ(value, 12345u);
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("12a", &value));
  EXPECT_FALSE(ParseUint64("-3", &value));
}

TEST(StringsTest, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("-42", &value));
  EXPECT_EQ(value, -42);
  EXPECT_TRUE(ParseInt64("+7", &value));
  EXPECT_EQ(value, 7);
  EXPECT_FALSE(ParseInt64("--1", &value));
  EXPECT_FALSE(ParseInt64("4.2", &value));
}

// Property sweep: split/join round-trips for seeds' worth of random strings.
class SplitJoinProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SplitJoinProperty, RoundTrips) {
  Rng rng(GetParam());
  std::vector<std::string> parts;
  const int n = static_cast<int>(rng.NextBelow(8)) + 1;
  for (int i = 0; i < n; i++) {
    std::string part;
    const int len = static_cast<int>(rng.NextBelow(6));
    for (int j = 0; j < len; j++) {
      part += static_cast<char>('a' + rng.NextBelow(26));
    }
    parts.push_back(part);
  }
  const std::string joined = Join(parts, "|");
  EXPECT_EQ(Split(joined, '|'), parts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitJoinProperty, ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace rose
