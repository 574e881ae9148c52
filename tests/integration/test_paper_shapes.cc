// Integration tests: small-replication versions of the paper's headline
// qualitative results.  The full-resolution versions live in bench/; these
// assert the *orderings* hold so regressions are caught by ctest.
#include <gtest/gtest.h>

#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"

namespace facsp::core {
namespace {

constexpr int kReps = 6;  // enough for orderings, cheap enough for ctest

/// Runs `spec` (a scenario plus a policy or scenario axis) over `ns`.
ResultTable run_sweep(SweepSpec spec,
                      std::vector<int> ns = {10, 25, 50, 75, 100},
                      int replications = kReps) {
  spec.n_axis(std::move(ns));
  spec.replications = replications;
  return SweepRunner(std::move(spec)).run();
}

/// A paper-scenario spec with one policy axis over registry names.
SweepSpec policies_spec(std::initializer_list<const char*> names) {
  SweepSpec spec;
  spec.base = paper_scenario();
  spec.policy_axis(names);
  return spec;
}

sim::Series acceptance(const ResultTable& table, const std::string& axis,
                       const std::string& label) {
  return table_series(table, axis, label, &ResultRow::acceptance_percent);
}

TEST(PaperShapes, AcceptanceDeclinesWithOfferedLoad) {
  const ResultTable table = run_sweep(policies_spec({"facs-p", "facs", "scc"}));
  for (const char* name : {"facs-p", "facs", "scc"}) {
    const auto series = acceptance(table, "policy", name);
    EXPECT_TRUE(is_non_increasing(series, 6.0)) << name;
    // Near-full acceptance at the lightest load.  A point threshold at low
    // replication counts is seed-fragile (SCC's true mean sits near 85%),
    // so assert it CI-aware: the interval around the mean must reach 85%,
    // and the mean itself must clear a hard sanity floor.
    const double ci10 = series.ci(0).value_or(0.0);
    EXPECT_GT(series.y_at(10) + ci10, 85.0) << name;
    EXPECT_GT(series.y_at(10), 70.0) << name;
    EXPECT_LT(series.y_at(100), 90.0) << name;  // visible contention
  }
}

TEST(PaperShapes, Fig10FacsPAboveFacsAtLowLoadBelowAtHigh) {
  const ResultTable table = run_sweep(policies_spec({"facs-p", "facs"}));
  const auto fp = acceptance(table, "policy", "facs-p");
  const auto f = acceptance(table, "policy", "facs");
  // Low-N: proposed at least matches the previous system.
  EXPECT_GE(fp.y_at(10), f.y_at(10) - 2.0);
  // High-N: the priority mechanism costs new-call acceptance.
  EXPECT_LT(fp.y_at(100), f.y_at(100));
  EXPECT_LT(fp.y_at(75), f.y_at(75));
}

TEST(PaperShapes, Fig7SccFlatterThanFacsAndAboveAtHighLoad) {
  const ResultTable table = run_sweep(policies_spec({"facs", "scc"}));
  const auto f = acceptance(table, "policy", "facs");
  const auto scc = acceptance(table, "policy", "scc");
  // SCC's over-reservation makes its curve flat: smaller total drop.
  const double drop_f = f.y_at(10) - f.y_at(100);
  const double drop_scc = scc.y_at(10) - scc.y_at(100);
  EXPECT_LT(drop_scc, drop_f);
  // At high load SCC accepts more than FACS (paper: ~70% vs ~63%).
  EXPECT_GT(scc.y_at(100), f.y_at(100));
  // At the lightest load FACS is at least on par with SCC.
  EXPECT_GE(f.y_at(10), scc.y_at(10) - 2.0);
}

TEST(PaperShapes, Fig8HigherSpeedHigherAcceptance) {
  SweepSpec spec;  // policy: the facs-p fallback
  spec.scenario_axis({ScenarioChoice{"4", paper_scenario_fixed_speed(4.0)},
                      ScenarioChoice{"30", paper_scenario_fixed_speed(30.0)},
                      ScenarioChoice{"60", paper_scenario_fixed_speed(60.0)}});
  const ResultTable table = run_sweep(std::move(spec), {60}, 10);
  std::vector<double> acc;
  for (const char* speed : {"4", "30", "60"})
    acc.push_back(acceptance(table, "scenario", speed).y_at(60));
  EXPECT_LT(acc[0], acc[1] + 2.0);
  EXPECT_LT(acc[1], acc[2] + 2.0);
  EXPECT_GT(acc[2], acc[0] + 10.0);  // clear separation
}

TEST(PaperShapes, Fig9SmallerAngleHigherAcceptance) {
  SweepSpec spec;  // policy: the facs-p fallback
  spec.scenario_axis({ScenarioChoice{"0", paper_scenario_fixed_angle(0.0)},
                      ScenarioChoice{"50", paper_scenario_fixed_angle(50.0)},
                      ScenarioChoice{"90", paper_scenario_fixed_angle(90.0)}});
  const ResultTable table = run_sweep(std::move(spec), {50}, 10);
  std::vector<double> acc;
  for (const char* angle : {"0", "50", "90"})
    acc.push_back(acceptance(table, "scenario", angle).y_at(50));
  EXPECT_GT(acc[0], acc[1] + 5.0);  // 0 deg clearly best
  EXPECT_GE(acc[1], acc[2] - 3.0);  // 50 >= 90 (within noise)
}

TEST(PaperShapes, FacsPProtectsOngoingCallsBetterThanFacs) {
  // The paper's motivation: FACS-P keeps the QoS of on-going connections.
  // Its handoff dropping must not exceed FACS's.
  const ResultTable table =
      run_sweep(policies_spec({"facs-p", "facs"}), {80}, 10);
  const auto fp =
      table_series(table, "policy", "facs-p", &ResultRow::dropping_percent);
  const auto f =
      table_series(table, "policy", "facs", &ResultRow::dropping_percent);
  EXPECT_LE(fp.y_at(80), f.y_at(80) + 2.0);
}

}  // namespace
}  // namespace facsp::core
