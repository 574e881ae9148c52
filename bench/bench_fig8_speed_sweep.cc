// Reproduces paper Fig. 8: FACS-P acceptance vs number of requesting
// connections for fixed user speeds 4, 10, 30, 60 km/h.
//
// Paper shape: higher speed => higher acceptance at every load level (fast
// users' directions are predictable, so the controller allocates resources
// to users who actually stay useful to the cell).
#include "bench_common.h"

int main() {
  using namespace facsp;
  using namespace facsp::bench;

  std::cout << "=== Fig. 8 reproduction: FACS-P, speed as a parameter ===\n";
  std::vector<core::ScenarioChoice> speeds;
  for (double v : {4.0, 10.0, 30.0, 60.0})
    speeds.push_back({std::to_string(static_cast<int>(v)) + " km/h",
                      core::paper_scenario_fixed_speed(v)});
  core::SweepSpec spec;  // policy: the facs-p fallback
  spec.scenario_axis(std::move(speeds));
  std::vector<sim::Series> series;
  const auto fig = run_acceptance_figure(
      "Fig. 8 — acceptance vs N for different speeds (FACS-P)",
      std::move(spec), &series);

  std::vector<core::ShapeCheck> checks;
  for (double probe : {40.0, 70.0, 100.0}) {
    core::ShapeCheck c;
    c.description = "acceptance ordered by speed at N=" +
                    std::to_string(static_cast<int>(probe));
    c.passed = core::ordered_at(
        {&series[0], &series[1], &series[2], &series[3]}, probe, 4.0);
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "60 km/h clearly above 4 km/h at heavy load";
    c.passed = series[3].y_at(100) > series[0].y_at(100) + 10.0;
    c.details = std::to_string(series[3].y_at(100)) + "% vs " +
                std::to_string(series[0].y_at(100)) + "%";
    checks.push_back(c);
  }
  {
    core::ShapeCheck c;
    c.description = "every speed's curve declines with load";
    c.passed = true;
    for (const auto& s : series)
      c.passed = c.passed && core::is_non_increasing(s, 8.0);
    checks.push_back(c);
  }

  return finish(fig, "fig8_speed_sweep.csv", checks);
}
