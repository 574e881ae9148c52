// Defuzzification: turn an aggregated output fuzzy set into a crisp value.
//
// The paper uses a standard Mamdani pipeline (min implication clips each
// output term at its activation, max aggregates the clipped terms) with a
// centroid output.  Bisector, mean-of-maximum and weighted-average are the
// alternatives of the A2 ablation (bench_ablation_defuzz).
//
// prime() samples the output variable once into per-term grade rows; the
// grid methods then run tight fused loops over those flat arrays with zero
// allocations.  defuzzify() requires a primed defuzzifier (weighted average
// reads only term core centres and needs no grid).  FuzzyController primes
// its defuzzifier at construction.
//
// When the output variable's terms form an ordered partition with only
// adjacent-pair support overlap (every paper variable), the centroid is
// computed *analytically*: each clipped term is a concave min of affine
// functions (alpha cut + rising/falling edges), so its area and first moment
// integrate in closed form, and the max envelope decomposes by
// inclusion-exclusion as single-term integrals minus the pairwise min over
// each adjacent overlap.  No grid, no O(resolution) work, exact up to
// rounding.  Other term layouts fall back to the grid automatically;
// set_analytic_centroid(false) forces the grid path (used by the
// grid-parity tests).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Supported defuzzification methods.
enum class DefuzzMethod {
  kCentroid,           ///< centre of gravity of the aggregated set (default)
  kBisector,           ///< vertical line splitting the area in half
  kMeanOfMaximum,      ///< mean of the y values attaining the maximum grade
  kWeightedAverage,    ///< activation-weighted average of term core centers
};

/// Short method name ("centroid", "bisector", "mom", "wavg") for test and
/// bench labels.
const char* to_string(DefuzzMethod m) noexcept;

/// Numeric defuzzifier over a bounded output universe.
///
/// Bisector, mean-of-maximum and (off the analytic path) the centroid
/// sample the aggregated membership on a uniform grid of `resolution` points
/// across the output variable's universe; 512 points give < 1e-3 absolute
/// error for the paper's piecewise-linear sets.
class Defuzzifier {
 public:
  explicit Defuzzifier(DefuzzMethod method = DefuzzMethod::kCentroid,
                       int resolution = 512);

  /// Precompute the sample grid for `output`: the y value of every grid
  /// point and each term's membership grade at those points.  The grid is
  /// keyed by variable identity (address), so defuzzify() accepts only that
  /// variable afterwards.  `output` must outlive the grid (the
  /// FuzzyController owns both).  Copies of a primed defuzzifier share the
  /// immutable grid.
  void prime(const LinguisticVariable& output);

  /// True when prime(output) built the current grid.
  bool primed_for(const LinguisticVariable& output) const noexcept;

  /// Crisp output for `activations` (one per output term, as produced by
  /// the inference engine); `mu_scratch` is a reusable sample buffer
  /// (scratch.mu of the InferenceScratch threaded through the controller).
  /// When no rule fired (empty set) returns the midpoint of the universe —
  /// a neutral value; FACS-P's rule bases are complete so this only happens
  /// for out-of-universe abuse.  Precondition: primed_for(output), unless
  /// the method is weighted average.  Zero heap allocations once warm.
  double defuzzify(std::span<const double> activations,
                   const LinguisticVariable& output,
                   std::vector<double>& mu_scratch) const;

  DefuzzMethod method() const noexcept { return method_; }
  int resolution() const noexcept { return resolution_; }

  /// True when defuzzify(..., output, ...) would take the analytic path:
  /// centroid method, analytic centroids enabled, and `output`'s terms form
  /// an ordered adjacent-overlap partition.
  bool analytic_applicable(const LinguisticVariable& output) const noexcept;

  /// Enable/disable the analytic centroid path (default: enabled).  With it
  /// disabled every centroid evaluation uses the resolution-point grid —
  /// retained as an independent cross-check and for error measurement.
  void set_analytic_centroid(bool enabled) noexcept { analytic_ = enabled; }

 private:
  /// Precomputed sample tables for one output variable.  Immutable after
  /// construction and shared by copies of the defuzzifier.
  struct Grid {
    const LinguisticVariable* variable = nullptr;  ///< identity key
    int resolution = 0;
    std::vector<double> ys;           ///< y value of each grid point
    std::vector<double> term_grades;  ///< term-major: [term * resolution + i]
    bool analytic_ok = false;  ///< term layout admits the analytic centroid
  };

  double defuzzify_grid(const Grid& grid, std::span<const double> activations,
                        const LinguisticVariable& output,
                        std::vector<double>& mu_scratch) const;

  double centroid_analytic(std::span<const double> activations,
                           const LinguisticVariable& output) const;
  double weighted_average(std::span<const double> activations,
                          const LinguisticVariable& output) const;

  DefuzzMethod method_;
  int resolution_;
  bool analytic_ = true;
  std::shared_ptr<const Grid> grid_;
};

}  // namespace facsp::fuzzy
