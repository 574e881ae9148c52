// Shared plumbing for the figure-reproduction benches: run the paper's
// sweep for a set of policies or scenarios, print the figure as an aligned
// table, write the CSV next to the binary, and evaluate the
// paper-vs-measured shape checks.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"
#include "sim/timeseries.h"

namespace facsp::bench {

/// Replications per (policy, N) cell.  Figure benches favour smooth curves;
/// override with FACSP_BENCH_REPS for quick runs.
inline int replications() {
  if (const char* env = std::getenv("FACSP_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 16;
}

/// Run `spec` — a scenario plus a policy or scenario axis naming the
/// figure's series — over the paper's x grid (N = 10, 20, ..., 100) at
/// replications() per cell.
inline core::ResultTable run_paper_sweep(core::SweepSpec spec) {
  spec.n_axis(core::paper_n_values());
  spec.replications = replications();
  const auto t0 = std::chrono::steady_clock::now();
  core::ResultTable table = core::SweepRunner(std::move(spec)).run();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::cerr << "  [" << table.rows.size() << " cells] sweep done in " << ms
            << " ms\n";
  return table;
}

/// One series of `metric` per value of `axis`, in axis order, each named
/// after its value.
inline std::vector<sim::Series> axis_series(
    const core::ResultTable& table, const core::SweepAxis& axis,
    sim::SummaryStats core::ResultRow::* metric) {
  std::vector<sim::Series> out;
  for (std::size_t i = 0; i < axis.size(); ++i)
    out.push_back(core::table_series(table, axis.name, axis.label(i), metric));
  return out;
}

/// Run `spec` (see run_paper_sweep) and collect the acceptance series of
/// its first axis into a figure.
inline sim::Figure run_acceptance_figure(
    const std::string& title, core::SweepSpec spec,
    std::vector<sim::Series>* series_out = nullptr) {
  const core::SweepAxis series_axis = spec.axes.front();
  sim::Figure fig(title, "N", "percentage of accepted calls");
  for (const sim::Series& s :
       axis_series(run_paper_sweep(std::move(spec)), series_axis,
                   &core::ResultRow::acceptance_percent)) {
    fig.add_series(s.name()) = s;
    if (series_out != nullptr) series_out->push_back(s);
  }
  return fig;
}

/// Print the figure, write its CSV, print shape checks; returns 0/1 exit
/// status (shape-check failures are reported but do not fail the binary —
/// they are stochastic at low replication counts).
inline int finish(const sim::Figure& fig, const std::string& csv_name,
                  const std::vector<core::ShapeCheck>& checks) {
  fig.print_table(std::cout);
  std::cout << '\n';
  try {
    core::write_csv(fig, csv_name);
    std::cout << "(csv written to " << csv_name << ")\n";
  } catch (const std::exception& e) {
    std::cout << "(csv not written: " << e.what() << ")\n";
  }
  core::print_shape_checks(std::cout, checks);
  return 0;
}

}  // namespace facsp::bench
