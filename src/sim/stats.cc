#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::sim {

void SummaryStats::add(double x) {
  FACSP_EXPECTS(std::isfinite(x));
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void SummaryStats::merge(const SummaryStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double SummaryStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double SummaryStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double SummaryStats::stddev() const noexcept { return std::sqrt(variance()); }

double SummaryStats::std_error() const noexcept {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

double SummaryStats::min() const noexcept { return n_ == 0 ? 0.0 : min_; }
double SummaryStats::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

double SummaryStats::ci_half_width(double level) const {
  if (n_ < 2) return 0.0;
  return student_t_quantile(level, n_ - 1) * std_error();
}

double student_t_quantile(double level, std::uint64_t dof) {
  FACSP_EXPECTS(level > 0.0 && level < 1.0);
  FACSP_EXPECTS(dof >= 1);
  // Tables for the common two-sided levels; linear interpolation on 1/dof
  // between tabulated dof is accurate to ~1e-3, ample for CI reporting.
  struct Row {
    std::uint64_t dof;
    double t90, t95, t99;
  };
  static constexpr Row kTable[] = {
      {1, 6.3138, 12.7062, 63.6567}, {2, 2.9200, 4.3027, 9.9248},
      {3, 2.3534, 3.1824, 5.8409},   {4, 2.1318, 2.7764, 4.6041},
      {5, 2.0150, 2.5706, 4.0321},   {6, 1.9432, 2.4469, 3.7074},
      {7, 1.8946, 2.3646, 3.4995},   {8, 1.8595, 2.3060, 3.3554},
      {9, 1.8331, 2.2622, 3.2498},   {10, 1.8125, 2.2281, 3.1693},
      {12, 1.7823, 2.1788, 3.0545},  {15, 1.7531, 2.1314, 2.9467},
      {20, 1.7247, 2.0860, 2.8453},  {25, 1.7081, 2.0595, 2.7874},
      {30, 1.6973, 2.0423, 2.7500},  {40, 1.6839, 2.0211, 2.7045},
      {60, 1.6706, 2.0003, 2.6603},  {120, 1.6577, 1.9799, 2.6174},
  };
  static constexpr double kZ90 = 1.6449, kZ95 = 1.9600, kZ99 = 2.5758;

  auto pick = [&](const Row& r) {
    if (approx_equal(level, 0.90, 1e-6)) return r.t90;
    if (approx_equal(level, 0.95, 1e-6)) return r.t95;
    if (approx_equal(level, 0.99, 1e-6)) return r.t99;
    return -1.0;
  };
  auto pick_z = [&]() {
    if (approx_equal(level, 0.90, 1e-6)) return kZ90;
    if (approx_equal(level, 0.95, 1e-6)) return kZ95;
    if (approx_equal(level, 0.99, 1e-6)) return kZ99;
    // Unsupported level: normal approximation via Acklam-style inverse
    // would be overkill here; use the closest supported level.
    return kZ95;
  };

  if (dof > 120) return pick_z();
  const Row* lo = &kTable[0];
  const Row* hi = &kTable[0];
  for (const Row& r : kTable) {
    if (r.dof <= dof) lo = &r;
    if (r.dof >= dof) {
      hi = &r;
      break;
    }
    hi = &r;
  }
  const double tlo = pick(*lo), thi = pick(*hi);
  if (tlo < 0.0) return pick_z();  // unsupported level
  if (lo->dof == hi->dof) return tlo;
  // Interpolate on 1/dof (t varies nearly linearly in 1/dof).
  const double x = 1.0 / static_cast<double>(dof);
  const double xlo = 1.0 / static_cast<double>(lo->dof);
  const double xhi = 1.0 / static_cast<double>(hi->dof);
  const double t = (x - xhi) / (xlo - xhi);
  return lerp(thi, tlo, t);
}

void TimeWeighted::start(SimTime t0, double value) {
  started_ = true;
  t0_ = last_t_ = t0;
  value_ = value;
  integral_ = 0.0;
}

void TimeWeighted::update(SimTime t, double value) {
  FACSP_EXPECTS_MSG(started_, "TimeWeighted::update before start");
  FACSP_EXPECTS_MSG(t >= last_t_, "time went backwards: " << t << " < "
                                                          << last_t_);
  integral_ += value_ * (t - last_t_);
  last_t_ = t;
  value_ = value;
}

double TimeWeighted::average(SimTime t_end) const {
  FACSP_EXPECTS(started_);
  FACSP_EXPECTS(t_end >= last_t_);
  const double span = t_end - t0_;
  if (span <= 0.0) return value_;
  const double total = integral_ + value_ * (t_end - last_t_);
  return total / span;
}

}  // namespace facsp::sim
