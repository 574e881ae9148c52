// A replication's results, run the one way a replication runs: through the
// multi-cell engine, here on its default single cell.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/multicell.h"
#include "core/paper.h"

namespace facsp::core {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed = 7) {
  ScenarioConfig s = paper_scenario(seed);
  s.traffic.arrival_window_s = 300.0;
  s.traffic.mean_holding_s = 120.0;
  return s;
}

RunResult run(const ScenarioConfig& scen, const PolicyFactory& factory,
              std::uint64_t replication, int n) {
  return MultiCellEngine(scen, factory, replication).run(n).aggregate;
}

TEST(SessionDriver, AllCallsResolveEventually) {
  auto scen = small_scenario();
  const RunResult r = run(scen, make_complete_sharing_factory(), 0, 40);
  // Every offered call was decided...
  EXPECT_EQ(r.metrics.offered_new(), 40u);
  // ...and every admitted call ended as completed or dropped.
  EXPECT_EQ(r.metrics.accepted_new(),
            r.metrics.completed() + r.metrics.dropped());
  EXPECT_GT(r.events, 40u);
  EXPECT_GT(r.duration_s, 0.0);
}

TEST(SessionDriver, ZeroRequestsIsClean) {
  auto scen = small_scenario();
  const RunResult r = run(scen, make_complete_sharing_factory(), 0, 0);
  EXPECT_EQ(r.metrics.offered_new(), 0u);
  EXPECT_DOUBLE_EQ(r.center_utilization, 0.0);
}

TEST(SessionDriver, CompleteSharingAcceptsEverythingAtLightLoad) {
  auto scen = small_scenario();
  scen.traffic.arrival_window_s = 3600.0;  // almost no overlap
  const RunResult r = run(scen, make_complete_sharing_factory(), 1, 10);
  EXPECT_DOUBLE_EQ(r.metrics.acceptance_percent(), 100.0);
}

TEST(SessionDriver, UtilizationPositiveWhenCallsAdmitted) {
  auto scen = small_scenario();
  const RunResult r = run(scen, make_complete_sharing_factory(), 2, 30);
  ASSERT_GT(r.metrics.accepted_new(), 0u);
  EXPECT_GT(r.center_utilization, 0.0);
  EXPECT_LE(r.center_utilization, 1.0);
}

TEST(SessionDriver, MobilityProducesHandoffsOrCoverageExits) {
  auto scen = small_scenario();
  scen.traffic.fixed_speed_kmh = 100.0;     // fast users cross cells
  scen.traffic.mean_holding_s = 240.0;      // long enough to move
  const RunResult r = run(scen, make_complete_sharing_factory(), 3, 30);
  // Fast users starting anywhere in a 2 km cell must reach a boundary.
  EXPECT_GT(r.metrics.handoff_attempts() + r.metrics.completed(), 0u);
  EXPECT_GT(r.metrics.handoff_attempts(), 0u);
}

TEST(SessionDriver, NoMobilityMeansNoHandoffs) {
  auto scen = small_scenario();
  scen.enable_mobility = false;
  const RunResult r = run(scen, make_complete_sharing_factory(), 4, 30);
  EXPECT_EQ(r.metrics.handoff_attempts(), 0u);
  EXPECT_EQ(r.metrics.dropped(), 0u);
}

TEST(SessionDriver, SameSeedSameResult) {
  auto scen = small_scenario(42);
  const PolicyFactory cs = make_complete_sharing_factory();
  const RunResult a = run(scen, cs, 5, 25);
  const RunResult b = run(scen, cs, 5, 25);
  EXPECT_EQ(a.metrics.accepted_new(), b.metrics.accepted_new());
  EXPECT_EQ(a.metrics.handoff_attempts(), b.metrics.handoff_attempts());
  EXPECT_DOUBLE_EQ(a.center_utilization, b.center_utilization);
  EXPECT_EQ(a.events, b.events);
}

TEST(SessionDriver, DifferentReplicationsDiffer) {
  auto scen = small_scenario(42);
  const PolicyFactory cs = make_complete_sharing_factory();
  const RunResult a = run(scen, cs, 0, 25);
  const RunResult b = run(scen, cs, 1, 25);
  EXPECT_NE(a.events, b.events);
}

TEST(SessionDriver, UniformSpatialMapLoadsNeighborCells) {
  auto scen = small_scenario();
  scen.spatial.kind = workload::SpatialKind::kUniform;
  const RunResult r = run(scen, make_complete_sharing_factory(), 6, 20);
  // Metrics still only count the centre's 20 offered calls.
  EXPECT_EQ(r.metrics.offered_new(), 20u);
  // But neighbour cells saw traffic: total events far exceed the
  // single-cell case.
  scen.spatial.kind = workload::SpatialKind::kCenterOnly;
  const RunResult single = run(scen, make_complete_sharing_factory(), 6, 20);
  EXPECT_GT(r.events, 3 * single.events);
}

TEST(SessionDriver, HotspotMapScalesNeighborLoadByRing) {
  // rings=2 hotspot with decay 0.5: ring-1 cells get 10 of 20 requests,
  // ring-2 cells get 5; event counts must sit between center-only and
  // uniform.
  auto scen = small_scenario();
  scen.rings = 2;
  scen.spatial.kind = workload::SpatialKind::kHotspot;
  scen.spatial.hotspot_decay = 0.5;
  const PolicyFactory cs = make_complete_sharing_factory();
  const RunResult hotspot = run(scen, cs, 3, 20);
  scen.spatial.kind = workload::SpatialKind::kCenterOnly;
  const RunResult center = run(scen, cs, 3, 20);
  scen.spatial.kind = workload::SpatialKind::kUniform;
  const RunResult uniform = run(scen, cs, 3, 20);
  EXPECT_EQ(hotspot.metrics.offered_new(), 20u);
  EXPECT_GT(hotspot.events, center.events);
  EXPECT_LT(hotspot.events, uniform.events);
}

TEST(SessionDriver, GuardChannelReducesDropsVsCompleteSharing) {
  // Classic CAC sanity: reserving for handoffs cannot *increase* dropping.
  auto scen = small_scenario(11);
  scen.traffic.fixed_speed_kmh = 90.0;
  scen.traffic.arrival_window_s = 200.0;  // heavy load
  std::uint64_t drops_cs = 0, drops_gc = 0;
  std::uint64_t ho_cs = 0, ho_gc = 0;
  const PolicyFactory cs = make_complete_sharing_factory();
  const PolicyFactory gc = make_guard_channel_factory(8.0);
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    const auto rcs = run(scen, cs, rep, 60);
    const auto rgc = run(scen, gc, rep, 60);
    drops_cs += rcs.metrics.dropped();
    drops_gc += rgc.metrics.dropped();
    ho_cs += rcs.metrics.handoff_attempts();
    ho_gc += rgc.metrics.handoff_attempts();
  }
  const double cdp_cs =
      ho_cs ? static_cast<double>(drops_cs) / ho_cs : 0.0;
  const double cdp_gc =
      ho_gc ? static_cast<double>(drops_gc) / ho_gc : 0.0;
  EXPECT_LE(cdp_gc, cdp_cs + 0.02);
}

}  // namespace
}  // namespace facsp::core
