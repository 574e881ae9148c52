#include "sim/rng.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace facsp::sim {
namespace {

// Mt19937_64 must return std::mt19937_64's outputs exactly: over several
// generations (crossing the m = 156 and n = 312 word boundaries of the
// first twist and the 624-draw boundary of the second), for many seeds,
// and from a copy taken anywhere mid-stream.
TEST(Mt19937_64, MatchesStdEngineOverManySeedsAndGenerations) {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, 0x9e3779b97f4a7c15ull,
                                      ~std::uint64_t{0}};
  for (std::uint64_t i = 0; seeds.size() < 250; ++i)
    seeds.push_back(hash_seed(i, "rng-test", i));
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 want(seed);
    Mt19937_64 got(seed);
    for (int d = 0; d < 3000; ++d) {
      const std::uint64_t w = want();
      const std::uint64_t g = got();
      if (w != g) {
        ADD_FAILURE() << "seed " << seed << " draw " << d << ": " << g
                      << " != " << w;
        break;
      }
    }
  }
}

TEST(Mt19937_64, MidStreamCopyContinuesIdentically) {
  for (const int at : {0, 1, 155, 156, 157, 311, 312, 313, 623, 624, 625,
                       1000}) {
    Mt19937_64 a(42);
    std::mt19937_64 want(42);
    for (int d = 0; d < at; ++d) {
      a();
      want();
    }
    Mt19937_64 b = a;  // copy-construct mid-stream
    Mt19937_64 c(7);
    c = a;  // copy-assign over a stream that has never been drawn
    for (int d = 0; d < 700; ++d) {
      const std::uint64_t w = want();
      ASSERT_EQ(a(), w) << "at " << at << " draw " << d;
      ASSERT_EQ(b(), w) << "copy at " << at << " draw " << d;
      ASSERT_EQ(c(), w) << "assigned at " << at << " draw " << d;
    }
  }
}

TEST(RandomStream, DistributionsMatchTheStdEngine) {
  // The helpers draw through std distributions, so equal engine outputs
  // mean equal samples.
  RandomStream rng(2026);
  std::mt19937_64 eng(2026);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(rng.uniform(-1.0, 3.0),
              std::uniform_real_distribution<double>(-1.0, 3.0)(eng));
    EXPECT_EQ(rng.normal(0.0, 2.0),
              std::normal_distribution<double>(0.0, 2.0)(eng));
    EXPECT_EQ(rng.exponential(5.0),
              std::exponential_distribution<double>(0.2)(eng));
    EXPECT_EQ(rng.uniform_int(0, 9),
              std::uniform_int_distribution<std::int64_t>(0, 9)(eng));
  }
}

TEST(RandomStream, DeterministicForSameSeed) {
  RandomStream a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(RandomStream, DifferentSeedsDiffer) {
  RandomStream a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  EXPECT_LT(same, 5);
}

TEST(RandomStream, UniformRespectsBounds) {
  RandomStream rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
  EXPECT_DOUBLE_EQ(rng.uniform(2.0, 2.0), 2.0);
}

TEST(RandomStream, UniformIntInclusive) {
  RandomStream rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, ExponentialMeanApproximately) {
  RandomStream rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(300.0);
  EXPECT_NEAR(sum / n, 300.0, 10.0);
}

TEST(RandomStream, ExponentialIsPositive) {
  RandomStream rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(RandomStream, NormalMoments) {
  RandomStream rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RandomStream, NormalZeroStddevIsDeterministic) {
  RandomStream rng(5);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
}

TEST(RandomStream, BernoulliFrequency) {
  RandomStream rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomStream, BernoulliEdgeProbabilities) {
  RandomStream rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RandomStream, DiscreteMatchesWeights) {
  RandomStream rng(19);
  // The paper's 70/20/10 traffic mix.
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete({0.7, 0.2, 0.1})];
  EXPECT_NEAR(counts[0] / double(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / double(n), 0.1, 0.02);
}

TEST(RandomStream, PoissonMean) {
  RandomStream rng(23);
  long sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(4.0);
  EXPECT_NEAR(sum / double(n), 4.0, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(RandomStream, PreconditionViolations) {
  RandomStream rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
  EXPECT_THROW(rng.discrete({}), ContractViolation);
}

TEST(RngFactory, NamedStreamsAreReproducible) {
  const RngFactory f(99);
  RandomStream a = f.stream("traffic");
  RandomStream b = f.stream("traffic");
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(RngFactory, DifferentNamesAreIndependent) {
  const RngFactory f(99);
  RandomStream a = f.stream("traffic");
  RandomStream b = f.stream("mobility");
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngFactory, IndexedStreamsDiffer) {
  const RngFactory f(99);
  RandomStream r0 = f.stream("rep", 0);
  RandomStream r1 = f.stream("rep", 1);
  EXPECT_NE(r0.uniform(0.0, 1.0), r1.uniform(0.0, 1.0));
}

TEST(RngFactory, StreamDerivationIsOrderIndependent) {
  // The factory is stateless: the sequence a named stream produces depends
  // only on (master_seed, name, index), never on which streams were created
  // before it.  The parallel sweep runner relies on this — workers create
  // streams in whatever order they reach their cells.
  const RngFactory f(1234);
  const RngFactory g(1234);
  // f: traffic then mobility then rep streams; g: the reverse.
  RandomStream f_traffic = f.stream("traffic");
  RandomStream f_mobility = f.stream("mobility");
  RandomStream f_rep2 = f.stream("rep", 2);
  RandomStream g_rep2 = g.stream("rep", 2);
  RandomStream g_mobility = g.stream("mobility");
  RandomStream g_traffic = g.stream("traffic");
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(f_traffic.uniform(0.0, 1.0), g_traffic.uniform(0.0, 1.0));
    EXPECT_DOUBLE_EQ(f_mobility.uniform(0.0, 1.0),
                     g_mobility.uniform(0.0, 1.0));
    EXPECT_DOUBLE_EQ(f_rep2.uniform(0.0, 1.0), g_rep2.uniform(0.0, 1.0));
  }
  // Interleaving draws with stream creation must not perturb anything
  // either: draw from f's traffic stream, then create another stream.
  RandomStream h_traffic = f.stream("traffic");
  (void)f.stream("predictor");
  RandomStream h_traffic_again = f.stream("traffic");
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(h_traffic.uniform(0.0, 1.0),
                     h_traffic_again.uniform(0.0, 1.0));
}

TEST(HashSeed, NoCollisionsAcrossSweepComponentsAndReplications) {
  // The cross product the parallel sweep actually derives seeds from: every
  // top-level component name x replications 0..999 must map to a distinct
  // 64-bit seed, for a handful of master seeds including the default.
  const std::vector<std::string_view> components = {
      "driver", "policy", "traffic", "mobility", "predictor", "fgc", "rep"};
  for (const std::uint64_t master : {std::uint64_t{42}, std::uint64_t{0},
                                     std::uint64_t{0xdeadbeefcafef00d}}) {
    std::set<std::uint64_t> seen;
    for (const auto name : components)
      for (std::uint64_t r = 0; r < 1000; ++r)
        seen.insert(hash_seed(master, name, r));
    EXPECT_EQ(seen.size(), components.size() * 1000u)
        << "collision under master seed " << master;
  }
}

TEST(HashSeed, StableAndSensitive) {
  const auto h = hash_seed(42, "traffic");
  EXPECT_EQ(h, hash_seed(42, "traffic"));
  EXPECT_NE(h, hash_seed(43, "traffic"));
  EXPECT_NE(h, hash_seed(42, "traffio"));
  EXPECT_NE(h, hash_seed(42, "traffic", 1));
  EXPECT_NE(hash_seed(0, ""), 0u);  // never the degenerate zero seed
}

}  // namespace
}  // namespace facsp::sim
