// Deterministic random number generation for simulations.
//
// Every stochastic component draws from its own named stream derived from a
// master seed, so results are reproducible and adding a new consumer does not
// perturb the draws seen by existing ones (the classic "common random
// numbers" discipline for fair baseline comparisons).
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace facsp::sim {

/// std::mt19937_64's exact output sequence, generated on demand: the seed
/// expansion and the twist advance one state word per draw instead of all
/// 312 words up front.  A stream that is drawn a handful of times (a lazily
/// built shard's mobility and predictor streams) pays for a few words, not
/// for the whole state.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept { x_[0] = seed; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint32_t i = next_;
    const std::uint32_t j = i + 1 == kN ? 0 : i + 1;
    const std::uint32_t k = i + kM < kN ? i + kM : i + kM - kN;
    // First generation only: word i+m must be expanded from the seed
    // before the in-place twist of word i reads it.
    while (seeded_ <= k) {
      const std::uint64_t prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ull * (prev ^ (prev >> 62)) + seeded_;
      ++seeded_;
    }
    // The twist of std::mt19937_64, one word at a time and in its order,
    // so word i+m (mod n) is already new exactly when the batch twist's
    // would be.
    const std::uint64_t y =
        (x_[i] & 0xffffffff80000000ull) | (x_[j] & 0x7fffffffull);
    x_[i] = x_[k] ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ull : 0);
    next_ = j;
    std::uint64_t z = x_[i];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::uint32_t kN = 312;
  static constexpr std::uint32_t kM = 156;

  std::array<std::uint64_t, kN> x_{};
  std::uint32_t seeded_ = 1;  // words [0, seeded_) hold the seed expansion
  std::uint32_t next_ = 0;    // the word the next draw twists and returns
};

/// A single random stream (thin wrapper over a 64-bit Mersenne engine with
/// the distribution helpers the cellular model needs).
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal with the given mean and standard deviation (>= 0).
  double normal(double mean, double stddev);

  /// Bernoulli: true with probability p in [0, 1].
  bool bernoulli(double p);

  /// Index drawn from a discrete distribution with the given (non-negative,
  /// not all zero) weights.
  std::size_t discrete(const std::vector<double>& weights);

  /// Poisson with the given mean (>= 0).
  int poisson(double mean);

  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Derives independent named streams from one master seed.
///
/// stream("traffic") always returns a stream seeded by
/// hash(master_seed, "traffic"); identical names yield identically seeded
/// (but distinct) stream objects.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t master_seed) : master_seed_(master_seed) {}

  /// New independently seeded stream for the given component name.
  RandomStream stream(std::string_view name) const;

  /// New stream for a (name, index) pair, e.g. per-replication streams.
  RandomStream stream(std::string_view name, std::uint64_t index) const;

  std::uint64_t master_seed() const noexcept { return master_seed_; }

 private:
  std::uint64_t master_seed_;
};

/// Stable 64-bit FNV-1a hash used for stream derivation (exposed for tests).
std::uint64_t hash_seed(std::uint64_t seed, std::string_view name,
                        std::uint64_t index = 0) noexcept;

}  // namespace facsp::sim
