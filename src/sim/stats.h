// Output analysis: streaming summary statistics, confidence intervals,
// time-weighted averages and ratio counters for simulation metrics.  (The
// one histogram is obs::LogLinearHistogram, obs/histogram.h.)
#pragma once

#include <cstdint>
#include <string>

#include "sim/event_queue.h"  // SimTime

namespace facsp::sim {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm —
/// numerically stable for long runs).
class SummaryStats {
 public:
  void add(double x);
  void merge(const SummaryStats& other);

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept;
  /// Unbiased sample variance; 0 for fewer than 2 observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than 2 observations.
  double std_error() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return mean() * static_cast<double>(n_); }

  /// Half-width of the confidence interval around the mean using a
  /// Student-t quantile (two-sided; level in {0.90, 0.95, 0.99} supported,
  /// other levels fall back to the normal approximation).
  double ci_half_width(double level = 0.95) const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided Student-t quantile t_{(1+level)/2, dof} (normal approximation
/// above 120 dof; tabulated below).  Exposed for tests.
double student_t_quantile(double level, std::uint64_t dof);

/// Time-weighted average of a piecewise-constant signal (e.g. occupied
/// bandwidth): integrates value*dt between updates.
class TimeWeighted {
 public:
  /// Begin observation at time t0 with the given initial value.
  void start(SimTime t0, double value);

  /// Record that the signal changed to `value` at time t (>= last update).
  void update(SimTime t, double value);

  /// Time-average over [t0, t_end]; requires t_end >= last update time.
  double average(SimTime t_end) const;

  double current() const noexcept { return value_; }
  bool started() const noexcept { return started_; }

 private:
  bool started_ = false;
  SimTime t0_ = 0.0;
  SimTime last_t_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
};

/// A ratio counter (accepted / offered, dropped / handoffs, ...).
struct RatioCounter {
  std::uint64_t numerator = 0;
  std::uint64_t denominator = 0;

  void hit() noexcept { ++numerator; ++denominator; }
  void miss() noexcept { ++denominator; }

  /// Accumulate another counter (per-shard metrics -> aggregate).
  void merge(const RatioCounter& other) noexcept {
    numerator += other.numerator;
    denominator += other.denominator;
  }

  /// numerator/denominator, or `if_empty` when nothing was counted.
  double ratio(double if_empty = 0.0) const noexcept {
    return denominator == 0
               ? if_empty
               : static_cast<double>(numerator) /
                     static_cast<double>(denominator);
  }
  double percent(double if_empty = 0.0) const noexcept {
    return 100.0 * ratio(if_empty / 100.0);
  }
};

}  // namespace facsp::sim
