#include "obs/histogram.h"

#include <cmath>

#include "common/expects.h"

namespace facsp::obs {

template <typename Count>
std::uint64_t LogLinearHistogram<Count>::scan(std::uint64_t total,
                                              double q) const noexcept {
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += detail::load(buckets_[i]);
    if (seen >= rank) {
      const std::uint64_t bound = index_upper_bound(i);
      // The top bucket also holds every saturated sample: report the exact
      // max there so the result stays an upper bound on the percentile.
      return i == kBucketCount - 1 ? std::max(bound, max()) : bound;
    }
  }
  return max();  // only while another thread is mid-record()
}

template <typename Count>
std::uint64_t LogLinearHistogram<Count>::percentile(double q) const {
  const std::uint64_t total = count();
  FACSP_EXPECTS(total > 0);
  FACSP_EXPECTS(q >= 0.0 && q <= 1.0);
  return scan(total, q);
}

template <typename Count>
std::uint64_t LogLinearHistogram<Count>::percentile_or_zero(
    double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0 || !(q >= 0.0 && q <= 1.0)) return 0;
  return scan(total, q);
}

template <typename Count>
void LogLinearHistogram<Count>::merge(
    const LogLinearHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBucketCount; ++i)
    detail::add(buckets_[i], detail::load(other.buckets_[i]));
  detail::add(count_, other.count());
  detail::add(sum_, other.sum());
  detail::raise(max_, other.max());
}

template <typename Count>
void LogLinearHistogram<Count>::reset() noexcept {
  for (Count& b : buckets_) detail::store(b, 0);
  detail::store(count_, 0);
  detail::store(sum_, 0);
  detail::store(max_, 0);
}

template class LogLinearHistogram<std::uint64_t>;
template class LogLinearHistogram<std::atomic<std::uint64_t>>;

}  // namespace facsp::obs
