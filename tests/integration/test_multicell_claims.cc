// Paper-claim test under real inter-cell handover traffic: the priority
// mechanism of FACS-P (and its FACS-PR extension) protects on-going
// connections — lower handoff dropping (CDP) than the non-prioritizing
// FACS baseline, bought with an equal-or-modestly-higher new-call blocking
// probability (CBP).
//
// Statistical style follows the PR 3 generator tests: policies run under
// common random numbers (the same replication simulates the same workload
// for every policy), so per-replication *paired* differences cancel the
// workload noise, and the assertions are 4-sigma bounds on the paired
// mean.  Everything is deterministic (fixed seeds), so a pass is a pass
// forever; the margins below were calibrated with z ~ 5.6 headroom.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/multicell.h"
#include "sim/stats.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

constexpr int kReps = 32;
constexpr int kN = 250;  // per cell: deep into the contention regime

struct PolicyOutcome {
  std::vector<double> cdp;  ///< per-replication CDP (%)
  std::vector<double> cbp;  ///< per-replication CBP (%)
};

PolicyOutcome run_policy(const ScenarioConfig& scen, const char* name) {
  PolicyOutcome out;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    MultiCellEngine engine(scen, policy_factory_by_name(name), rep);
    const RunResult agg = engine.run(kN).aggregate;
    out.cdp.push_back(100.0 * agg.metrics.dropping_probability());
    out.cbp.push_back(100.0 * agg.metrics.blocking_probability());
  }
  return out;
}

sim::SummaryStats paired_diff(const std::vector<double>& a,
                              const std::vector<double>& b) {
  sim::SummaryStats d;
  for (std::size_t i = 0; i < a.size(); ++i) d.add(a[i] - b[i]);
  return d;
}

TEST(MultiCellPaperClaims, FacsPDropsFewerHandoffsThanFacs) {
  const ScenarioConfig scen =
      workload::catalog_scenario("multicell-handover-storm");
  const PolicyOutcome fp = run_policy(scen, "facs-p");
  const PolicyOutcome f = run_policy(scen, "facs");

  // The scenario actually stresses handovers: FACS drops a visible share.
  sim::SummaryStats f_cdp;
  for (double x : f.cdp) f_cdp.add(x);
  EXPECT_GT(f_cdp.mean(), 1.0);

  // CDP(facs) - CDP(facs-p) > 0 by at least 4 standard errors of the
  // paired difference (measured: ~1.3 +- 0.24, z ~ 5.6).
  const sim::SummaryStats d = paired_diff(f.cdp, fp.cdp);
  EXPECT_GT(d.mean(), 0.0);
  EXPECT_GT(d.mean() - 4.0 * d.std_error(), 0.0)
      << "paired CDP advantage " << d.mean() << " +- " << d.std_error();

  // The price: CBP equal or modestly higher — the paired CBP difference
  // must not show FACS-P *cheating* (blocking fewer new calls than FACS,
  // which would make the CDP win free), and must stay modest (< 10 points).
  const sim::SummaryStats cbp = paired_diff(fp.cbp, f.cbp);
  EXPECT_GT(cbp.mean() + 4.0 * cbp.std_error(), 0.0);
  EXPECT_LT(cbp.mean(), 10.0)
      << "CBP premium " << cbp.mean() << " is not 'modest'";
}

TEST(MultiCellPaperClaims, FacsPrKeepsTheOngoingProtection) {
  // FACS-PR layers requesting-connection priority on top of FACS-P but
  // leaves handoff decisions to the inherited on-going-priority mechanism,
  // so its CDP must not regress past FACS's: the paired difference
  // CDP(facs) - CDP(facs-pr) stays non-negative within 4 standard errors
  // (measured: ~ +0.2 +- 0.37 — statistically level with FACS-P's
  // mechanism, never worse than the baseline).
  const ScenarioConfig scen =
      workload::catalog_scenario("multicell-handover-storm");
  const PolicyOutcome fpr = run_policy(scen, "facs-pr");
  const PolicyOutcome f = run_policy(scen, "facs");

  const sim::SummaryStats d = paired_diff(f.cdp, fpr.cdp);
  EXPECT_GT(d.mean() + 4.0 * d.std_error(), 0.0)
      << "paired CDP difference " << d.mean() << " +- " << d.std_error();

  const sim::SummaryStats cbp = paired_diff(fpr.cbp, f.cbp);
  EXPECT_GT(cbp.mean() + 4.0 * cbp.std_error(), 0.0);
  EXPECT_LT(cbp.mean(), 10.0);
}

}  // namespace
}  // namespace facsp::core
