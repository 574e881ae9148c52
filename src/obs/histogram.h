// Fixed-bucket log-linear histogram of non-negative integer samples
// (latencies in ns, batch sizes, ...): the one histogram behind the
// decision server's per-second p50/p95/p99 telemetry and the metrics
// registry.
//
// Buckets follow the HDR-histogram layout: values below 2 * kSubBuckets
// land in exact unit buckets; above that, each power-of-two octave is
// split into kSubBuckets linear sub-buckets, bounding the relative
// quantisation error of any reported percentile by 1/kSubBuckets (6.25%).
// Samples of 2^42 ns (~73 simulated minutes) and more saturate into the top
// bucket, whose percentile reads back as the exact max, so a percentile is
// never below the sample it stands for.
//
// Storage is one fixed std::array — record() never allocates, so the
// histogram can live inside the zero-allocation serving loop.  `Count` is
// the bucket/counter type: std::uint64_t for single-threaded owners
// (serving shards, merged results), std::atomic<std::uint64_t> for
// registry histograms recorded from any number of threads with relaxed
// atomics.  Both share every line of bucket geometry and the percentile
// scan.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace facsp::obs {

namespace detail {

inline std::uint64_t load(const std::uint64_t& c) noexcept { return c; }
inline std::uint64_t load(const std::atomic<std::uint64_t>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}
inline void add(std::uint64_t& c, std::uint64_t n) noexcept { c += n; }
inline void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
  c.fetch_add(n, std::memory_order_relaxed);
}
inline void store(std::uint64_t& c, std::uint64_t v) noexcept { c = v; }
inline void store(std::atomic<std::uint64_t>& c, std::uint64_t v) noexcept {
  c.store(v, std::memory_order_relaxed);
}
inline void raise(std::uint64_t& c, std::uint64_t v) noexcept {
  c = std::max(c, v);
}
inline void raise(std::atomic<std::uint64_t>& c, std::uint64_t v) noexcept {
  std::uint64_t cur = c.load(std::memory_order_relaxed);
  while (v > cur &&
         !c.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

template <typename Count>
class LogLinearHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave (16 -> <=6.25% error).
  static constexpr int kSubBucketBits = 4;
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBucketBits;
  /// Largest distinguishable value: 2^42 - 1 ns (~73 simulated minutes);
  /// larger samples saturate into the top bucket.
  static constexpr int kMaxShift = 37;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxShift + 2) * kSubBuckets;
  /// Samples at or above this saturate into the top bucket.
  static constexpr std::uint64_t kSaturation = (kSubBuckets * 2) << kMaxShift;

  /// Count one sample (saturating into the top bucket).
  void record(std::uint64_t v) noexcept { record_n(v, 1); }

  /// Count `n` identical samples (a batch measured once, attributed to each
  /// of its items).
  void record_n(std::uint64_t v, std::uint64_t n) noexcept {
    detail::add(buckets_[bucket_index(v)], n);
    detail::add(count_, n);
    detail::add(sum_, v * n);
    detail::raise(max_, v);
  }

  std::uint64_t count() const noexcept { return detail::load(count_); }
  /// Sum of all recorded samples, exact (accumulated before quantisation).
  std::uint64_t sum() const noexcept { return detail::load(sum_); }
  /// Largest recorded sample, exact (not quantised).
  std::uint64_t max() const noexcept { return detail::load(max_); }
  /// Exact arithmetic mean (sum/count); 0 when empty.
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Upper bound of the bucket holding the ceil(q * count)-th smallest
  /// sample (q in [0, 1]; q = 0 reads the smallest) — an upper bound on the
  /// exact percentile, within 1/kSubBuckets relative error; the saturated
  /// top bucket reads max(bucket bound, max()).  Throws
  /// facsp::ContractViolation when empty or q is outside [0, 1].
  std::uint64_t percentile(double q) const;

  /// percentile(q), but 0 instead of throwing: what a metrics snapshot
  /// prints for an untouched histogram.
  std::uint64_t percentile_or_zero(double q) const noexcept;

  /// Add another histogram's counts into this one.
  void merge(const LogLinearHistogram& other) noexcept;

  void reset() noexcept;

  // --- bucket geometry (exposed for tests) ---------------------------------
  static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v >= kSaturation) return kBucketCount - 1;
    // Below 2 * kSubBuckets every value has its own exact bucket.
    if (v < kSubBuckets * 2) return static_cast<std::size_t>(v);
    // Otherwise: top set bit selects the octave, the kSubBucketBits bits
    // below it select the linear sub-bucket within that octave.
    const int shift = std::bit_width(v) - 1 - kSubBucketBits;
    const std::uint64_t sub = v >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<std::size_t>(shift + 1) * kSubBuckets +
           static_cast<std::size_t>(sub - kSubBuckets);
  }
  /// Largest value mapping to the same bucket as `v` (kSaturation for
  /// saturated samples).
  static std::uint64_t bucket_upper_bound(std::uint64_t v) noexcept {
    return v >= kSaturation ? kSaturation
                            : index_upper_bound(bucket_index(v));
  }

 private:
  /// The percentile scan behind both accessors (total > 0, q in [0, 1]).
  std::uint64_t scan(std::uint64_t total, double q) const noexcept;

  static std::uint64_t index_upper_bound(std::size_t i) noexcept {
    if (i < kSubBuckets * 2) return i;
    const std::size_t shift = i / kSubBuckets - 1;
    const std::uint64_t sub = i % kSubBuckets + kSubBuckets;
    return ((sub + 1) << shift) - 1;
  }

  std::array<Count, kBucketCount> buckets_{};
  Count count_{0};
  Count sum_{0};
  Count max_{0};
};

extern template class LogLinearHistogram<std::uint64_t>;
extern template class LogLinearHistogram<std::atomic<std::uint64_t>>;

/// Registry histogram: relaxed-atomic counts, safe to record() from any
/// thread.
using Histogram = LogLinearHistogram<std::atomic<std::uint64_t>>;

}  // namespace facsp::obs
