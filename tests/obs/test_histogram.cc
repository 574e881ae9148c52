#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace facsp::obs {
namespace {

// Every contract holds for both count types: plain (serving shards and
// merged results) and atomic (registry histograms).
template <typename H>
class LogLinearHistogramTest : public ::testing::Test {};

struct CountNames {
  template <typename H>
  static std::string GetName(int) {
    return std::is_same_v<H, LogLinearHistogram<std::uint64_t>> ? "Plain"
                                                                : "Atomic";
  }
};

using CountTypes =
    ::testing::Types<LogLinearHistogram<std::uint64_t>,
                     LogLinearHistogram<std::atomic<std::uint64_t>>>;
TYPED_TEST_SUITE(LogLinearHistogramTest, CountTypes, CountNames);

TYPED_TEST(LogLinearHistogramTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 2 * TypeParam::kSubBuckets; ++v) {
    EXPECT_EQ(TypeParam::bucket_index(v), v);
    EXPECT_EQ(TypeParam::bucket_upper_bound(v), v);
  }
}

TYPED_TEST(LogLinearHistogramTest, BucketGeometryBoundsRelativeError) {
  // The bucket upper bound over-reports by at most 1/kSubBuckets.
  for (std::uint64_t v : {100ull, 1000ull, 54321ull, 1048576ull,
                          987654321ull, 1099511627776ull}) {
    const std::uint64_t ub = TypeParam::bucket_upper_bound(v);
    EXPECT_GE(ub, v);
    EXPECT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) / TypeParam::kSubBuckets)
        << "value " << v;
    // Everything in the bucket maps to the same index; ub+1 starts the next.
    EXPECT_EQ(TypeParam::bucket_index(v), TypeParam::bucket_index(ub));
    EXPECT_NE(TypeParam::bucket_index(v), TypeParam::bucket_index(ub + 1));
  }
}

TYPED_TEST(LogLinearHistogramTest, BucketIndexIsMonotone) {
  std::uint64_t prev = TypeParam::bucket_index(0);
  for (std::uint64_t v = 1; v < 100000; v += 7) {
    const std::uint64_t idx = TypeParam::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
  EXPECT_LT(TypeParam::bucket_index(~0ull),
            TypeParam::kBucketCount);
}

TYPED_TEST(LogLinearHistogramTest, PercentilesMatchSortedReference) {
  // Contract: percentile(q) equals the bucket upper bound of the
  // ceil(q*n)-th smallest recorded sample — an exact statement, not an
  // approximation, so it must hold for any sample set.
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> samples;
  TypeParam h;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform spread over ~6 decades, the shape of real latencies.
    const double mag = std::uniform_real_distribution<>(1.0, 7.0)(rng);
    const auto v = static_cast<std::uint64_t>(std::pow(10.0, mag));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(h.count(), samples.size());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    EXPECT_EQ(h.percentile(q),
              TypeParam::bucket_upper_bound(samples[rank - 1]))
        << "q=" << q;
  }
  EXPECT_EQ(h.max(), samples.back());
}

TYPED_TEST(LogLinearHistogramTest, RecordNMatchesRepeatedRecord) {
  TypeParam a, b;
  a.record_n(777, 5);
  for (int i = 0; i < 5; ++i) b.record(777);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.percentile(0.5), b.percentile(0.5));
}

TYPED_TEST(LogLinearHistogramTest, MergeEqualsCombinedRecording) {
  TypeParam left, right, both;
  for (std::uint64_t v = 1; v < 2000; v += 3) {
    (v % 2 ? left : right).record(v);
    both.record(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), both.count());
  EXPECT_EQ(left.max(), both.max());
  for (const double q : {0.25, 0.5, 0.75, 0.99})
    EXPECT_EQ(left.percentile(q), both.percentile(q));
}

TYPED_TEST(LogLinearHistogramTest, SaturatesInsteadOfOverflowing) {
  // A saturated sample still reads back as an upper bound on itself; the
  // largest unsaturated value keeps its bucket bound.
  for (const std::uint64_t v :
       {1ull << 42, 1ull << 43, 5000000000000ull, ~0ull}) {
    TypeParam h;
    h.record(v);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), v);
    EXPECT_GE(h.percentile(1.0), v) << v;
  }
  TypeParam top;
  top.record((1ull << 42) - 1);
  EXPECT_EQ(top.percentile(1.0), (1ull << 42) - 1);
}

TYPED_TEST(LogLinearHistogramTest, ResetClears) {
  TypeParam h;
  h.record(100);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TYPED_TEST(LogLinearHistogramTest, ContractViolations) {
  TypeParam h;
  EXPECT_THROW(h.percentile(0.5), ContractViolation);  // empty
  h.record(1);
  EXPECT_THROW(h.percentile(-0.1), ContractViolation);
  EXPECT_THROW(h.percentile(1.1), ContractViolation);
}

}  // namespace
}  // namespace facsp::obs
