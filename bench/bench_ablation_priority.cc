// Ablation A1: where does the Fig. 10 crossover come from?
//
// Sweeps FACS-P's real-time priority weight (1.0 = no priority, i.e. the
// differentiated counters degenerate to plain occupancy) and reports the
// acceptance curve and the handoff-dropping rate.  The paper's crossover
// against FACS should appear as the weight grows and its location should
// move left (earlier) with stronger weighting.
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Ablation: FACS-P real-time priority weight ===\n";
  std::vector<core::PolicyChoice> weighted;
  for (double w : {1.0, 1.3, 1.6, 2.0}) {
    cac::FacsPConfig cfg;
    cfg.weights.real_time = w;
    weighted.push_back({"w_rt=" + std::to_string(w).substr(0, 3),
                        core::make_facs_p_factory(cfg)});
  }
  core::SweepSpec spec;
  spec.base = core::paper_scenario();
  spec.policy_axis(std::move(weighted));
  const core::SweepAxis weights = spec.axes.front();
  // FACS rides in the same sweep as the crossover reference; it is not
  // plotted.
  spec.axes.front().policies.push_back({"FACS", core::make_facs_factory()});
  const core::ResultTable table = run_paper_sweep(std::move(spec));
  const auto facs = core::table_series(table, "policy", "FACS",
                                       &core::ResultRow::acceptance_percent);

  sim::Figure fig("A1 — acceptance vs N for priority weights (FACS-P)", "N",
                  "percentage of accepted calls");
  sim::Figure drops("A1b — handoff dropping vs N for priority weights", "N",
                    "dropping probability (%)");
  const auto acc =
      axis_series(table, weights, &core::ResultRow::acceptance_percent);
  for (const auto& s : acc) fig.add_series(s.name()) = s;
  for (const auto& d :
       axis_series(table, weights, &core::ResultRow::dropping_percent)) {
    auto& ddst = drops.add_series(d.name());
    for (std::size_t i = 0; i < d.size(); ++i) ddst.add(d.x(i), d.y(i));
  }

  std::vector<core::ShapeCheck> checks;
  {
    core::ShapeCheck c;
    c.description =
        "stronger priority weight lowers heavy-load acceptance (N=100)";
    c.passed = acc.front().y_at(100) >= acc.back().y_at(100) - 1.0;
    c.details = "w=1.0: " + std::to_string(acc.front().y_at(100)) +
                "%, w=2.0: " + std::to_string(acc.back().y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "light load (N=10) barely affected by the weight";
    c.passed =
        std::abs(acc.front().y_at(10) - acc[2].y_at(10)) < 10.0;
    checks.push_back(c);
  }
  {
    const auto cross_default = core::crossover_x(acc[2], facs);
    core::ShapeCheck c;
    c.description =
        "default weight (1.6) reproduces the Fig. 10 crossover vs FACS";
    c.passed = cross_default.has_value() && *cross_default <= 50.0;
    if (cross_default)
      c.details = "crossover at N=" + std::to_string(*cross_default);
    checks.push_back(c);
  }

  fig.print_table(std::cout);
  std::cout << '\n';
  drops.print_table(std::cout);
  std::cout << '\n';
  core::write_csv(fig, "ablation_priority.csv");
  core::print_shape_checks(std::cout, checks);
  return 0;
}
