#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "core/paper.h"

namespace facsp::core {
namespace {

ScenarioConfig quick_scenario() {
  ScenarioConfig s = paper_scenario(3);
  s.traffic.arrival_window_s = 300.0;
  s.traffic.mean_holding_s = 120.0;
  return s;
}

TEST(Experiment, RunSingleProducesMetrics) {
  Experiment exp(quick_scenario(), make_complete_sharing_factory(), "CS");
  const RunResult r = exp.run_single(20, 0);
  EXPECT_EQ(r.metrics.offered_new(), 20u);
}

TEST(Experiment, CommonRandomNumbersAcrossPolicies) {
  // The same (seed, replication) produces the same workload for different
  // policies: complete sharing and a zero-guard guard channel are
  // decision-identical, so their metrics must match exactly.
  const auto scen = quick_scenario();
  Experiment cs(scen, make_complete_sharing_factory(), "CS");
  Experiment gc0(scen, make_guard_channel_factory(0.0), "GC0");
  const RunResult a = cs.run_single(30, 2);
  const RunResult b = gc0.run_single(30, 2);
  EXPECT_EQ(a.metrics.accepted_new(), b.metrics.accepted_new());
  EXPECT_EQ(a.metrics.handoff_attempts(), b.metrics.handoff_attempts());
  EXPECT_EQ(a.events, b.events);
}

TEST(Experiment, AllCanonicalFactoriesProduceWorkingPolicies) {
  const auto scen = quick_scenario();
  const std::vector<std::pair<const char*, PolicyFactory>> factories = {
      {"FACS-P", make_facs_p_factory()},
      {"FACS", make_facs_factory()},
      {"SCC", make_scc_factory()},
      {"GC", make_guard_channel_factory(4.0)},
      {"FGC", make_fractional_guard_factory(4.0)},
      {"CS", make_complete_sharing_factory()},
  };
  for (const auto& [name, factory] : factories) {
    Experiment exp(scen, factory, name);
    const RunResult r = exp.run_single(15, 0);
    EXPECT_EQ(r.metrics.offered_new(), 15u) << name;
    EXPECT_LE(r.metrics.accepted_new(), 15u) << name;
  }
}

TEST(Experiment, DriverAndPolicySeedComponentsNeverAlias) {
  // Regression for the latent aliasing in run_single: the driver's streams
  // are rooted at hash_seed(seed, "driver", r) and the policy's RngFactory
  // at hash_seed(seed, "policy", r) — two distinct components of the same
  // (seed, replication) pair.  No (component, replication) pair may ever
  // yield the seed of the other component at any replication, or a
  // randomised policy's draws could correlate with the workload.
  const std::uint64_t seed = quick_scenario().seed;
  std::set<std::uint64_t> driver_seeds, policy_seeds;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    driver_seeds.insert(sim::hash_seed(seed, "driver", r));
    policy_seeds.insert(sim::hash_seed(seed, "policy", r));
  }
  EXPECT_EQ(driver_seeds.size(), 1000u);
  EXPECT_EQ(policy_seeds.size(), 1000u);
  std::vector<std::uint64_t> overlap;
  std::set_intersection(driver_seeds.begin(), driver_seeds.end(),
                        policy_seeds.begin(), policy_seeds.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST(Experiment, PolicyRngConsumptionCannotPerturbWorkload) {
  // A fractional guard channel with an infinitesimal guard decides exactly
  // like complete sharing (p is always 1) but burns one policy-RNG draw per
  // fitting new call; complete sharing draws nothing.  With the driver's
  // streams rooted in their own "driver" component, those extra draws must
  // not perturb the workload or the run in any way.
  const auto scen = quick_scenario();
  Experiment cs(scen, make_complete_sharing_factory(), "CS");
  Experiment fgc(scen, make_fractional_guard_factory(1e-9), "FGCeps");
  for (std::uint64_t r : {0ull, 1ull, 7ull}) {
    const RunResult a = cs.run_single(25, r);
    const RunResult b = fgc.run_single(25, r);
    EXPECT_EQ(a.metrics.offered_new(), b.metrics.offered_new());
    EXPECT_EQ(a.metrics.accepted_new(), b.metrics.accepted_new());
    EXPECT_EQ(a.metrics.handoff_attempts(), b.metrics.handoff_attempts());
    EXPECT_EQ(a.events, b.events);
  }
}

TEST(Experiment, FacsFactoryResolvesCellRadiusFromNetwork) {
  // Default FacsConfig leaves cell_radius_m = 0 (auto); the factory must
  // fill it from the scenario's network instead of failing.
  auto scen = quick_scenario();
  scen.cell_radius_m = 1234.0;
  Experiment exp(scen, make_facs_factory(), "FACS");
  EXPECT_NO_THROW(exp.run_single(5, 0));
}

}  // namespace
}  // namespace facsp::core
