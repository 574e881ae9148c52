// Reproduces paper Fig. 7: "Performance of FACS and SCC" — percentage of
// accepted calls vs number of requesting connections for the previous FACS
// and the Shadow Cluster Concept baseline.
//
// Paper shape: both near 100% at small N; FACS above SCC while N < ~50;
// SCC's over-reservation makes its curve flat, ending ~70% at N=100 while
// FACS ends ~63%.
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Fig. 7 reproduction: FACS vs SCC ===\n";
  core::SweepSpec spec;
  spec.base = core::paper_scenario();
  spec.policy_axis({{"FACS", core::make_facs_factory()},
                    {"SCC", core::make_scc_factory()}});
  std::vector<sim::Series> series;
  const auto fig = run_acceptance_figure(
      "Fig. 7 — Performance of FACS and SCC", std::move(spec), &series);

  const auto& facs = series[0];
  const auto& scc = series[1];
  std::vector<core::ShapeCheck> checks;
  checks.push_back({"both policies accept >85% at N=10", true, ""});
  checks.back().passed = facs.y_at(10) > 85.0 && scc.y_at(10) > 85.0;

  checks.push_back({"FACS at least on par with SCC at N=10", true, ""});
  checks.back().passed = facs.y_at(10) >= scc.y_at(10) - 2.0;

  const auto cross = core::crossover_x(facs, scc);
  checks.push_back(
      {"FACS crosses below SCC in the mid range (paper: ~N=50)", false, ""});
  if (cross) {
    checks.back().passed = *cross >= 20.0 && *cross <= 80.0;
    checks.back().details = "crossover at N=" + std::to_string(*cross);
  } else {
    checks.back().details = "no crossover detected";
  }

  checks.push_back({"SCC above FACS at N=100 (paper: ~70% vs ~63%)", false,
                    ""});
  checks.back().passed = scc.y_at(100) > facs.y_at(100);
  checks.back().details =
      "SCC=" + std::to_string(scc.y_at(100)) +
      "%, FACS=" + std::to_string(facs.y_at(100)) + "%";

  checks.push_back({"SCC's curve is flatter than FACS's", false, ""});
  checks.back().passed =
      (scc.y_at(10) - scc.y_at(100)) < (facs.y_at(10) - facs.y_at(100));

  checks.push_back({"both curves non-increasing with load", false, ""});
  checks.back().passed =
      core::is_non_increasing(facs, 6.0) && core::is_non_increasing(scc, 6.0);

  return finish(fig, "fig7_facs_vs_scc.csv", checks);
}
