// Ablation A2: sensitivity of the headline result to the defuzzification
// method.  Runs the Fig. 10 scenario with FACS-P under centroid, bisector,
// mean-of-maximum and weighted-average defuzzifiers.
#include "bench_common.h"

#include "fuzzy/defuzzifier.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Ablation: defuzzification method (FACS-P) ===\n";
  std::vector<core::PolicyChoice> methods;
  for (auto m : {fuzzy::DefuzzMethod::kCentroid, fuzzy::DefuzzMethod::kBisector,
                 fuzzy::DefuzzMethod::kMeanOfMaximum,
                 fuzzy::DefuzzMethod::kWeightedAverage}) {
    cac::FacsPConfig cfg;
    cfg.defuzz_method = m;
    methods.push_back({fuzzy::to_string(m), core::make_facs_p_factory(cfg)});
  }
  core::SweepSpec spec;
  spec.base = core::paper_scenario();
  spec.policy_axis(std::move(methods));
  std::vector<sim::Series> acc;
  const auto fig = run_acceptance_figure(
      "A2 — acceptance vs N per defuzzification method", std::move(spec),
      &acc);

  std::vector<core::ShapeCheck> checks;
  {
    // Point-wise gaps between centroid and bisector can spike: tiny score
    // differences flip borderline admissions whose held bandwidth then
    // feeds back into later decisions.  The curve-wide mean is the stable
    // comparison.
    core::ShapeCheck c;
    c.description =
        "centroid and bisector agree on average across the sweep";
    double gap = 0.0;
    for (std::size_t i = 0; i < acc[0].size(); ++i)
      gap += std::abs(acc[0].y(i) - acc[1].y_at(acc[0].x(i)));
    gap /= static_cast<double>(acc[0].size());
    c.passed = gap < 10.0;
    c.details = "mean |centroid - bisector| = " + std::to_string(gap) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "every method keeps the declining-acceptance shape";
    c.passed = true;
    for (const auto& s : acc)
      c.passed = c.passed && core::is_non_increasing(s, 8.0);
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description =
        "mean-of-maximum is the outlier (hard switching at rule borders)";
    double max_gap = 0.0;
    for (double probe : {30.0, 60.0, 90.0})
      max_gap = std::max(max_gap,
                         std::abs(acc[2].y_at(probe) - acc[0].y_at(probe)));
    c.passed = true;  // informational
    c.details = "max |MOM - centroid| = " + std::to_string(max_gap) + "%";
    checks.push_back(c);
  }

  return finish(fig, "ablation_defuzz.csv", checks);
}
