// Steady-state allocation tests for the session driver and the multi-cell
// engine (counter: tests/alloc_counter.h):
//
//   * the session driver's event loop allocates per admission, not per
//     event: a FACS-P driver on the handover-storm cell, driven through
//     begin + advance_until, stays within the nodes its per-call maps take
//     (sessions_, BaseStation::held_ and FACS-P's counter entries for an
//     admitted call; held_ and counters on the target for a handoff) plus a
//     fixed slack for container growth, while it fires many more events;
//   * an epoch observer costs only one-time buffer growth: EpochStats and
//     its routes persist across barriers, so an observed handover-storm run
//     allocates at most 64 more times than an identical unobserved one;
//   * a sparse replication's allocations follow the shards it builds and
//     the calls it admits, not the grid: one centre-generating replication
//     on 3,000 and on 6,000 cells builds the same shards and allocates the
//     same to within a fixed constant;
//   * decide_batch through make_facs_p_factory(), on the inter-cell handoff
//     batches the drain loop presents, allocates nothing once warm with
//     metrics and tracing on — and the tracer proves the spans were
//     recorded, so the audit is not vacuous.
#include <gtest/gtest.h>

#include <vector>

#include "cac/facs_p.h"
#include "cac/policy.h"
#include "cellular/network.h"
#include "core/multicell.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "workload/catalog.h"

#include "../alloc_counter.h"

namespace facsp::core {
namespace {

using testutil::allocations;

TEST(SessionDriverAlloc, EventLoopAllocatesPerAdmissionNotPerEvent) {
  const ScenarioConfig scen =
      workload::catalog_scenario("multicell-handover-storm");
  cac::FacsPPolicy policy;
  SessionDriver driver(scen, policy, 0);
  driver.begin(100);

  const std::size_t before = allocations();
  driver.advance_until(scen.horizon_s);
  const std::size_t allocated = allocations() - before;

  const RunResult r = driver.result();
  ASSERT_TRUE(driver.idle());
  // Heap, map and bucket growth: a few dozen reallocations and rehashes.
  constexpr std::size_t kGrowthSlack = 64;
  const std::size_t bound = 3 * r.metrics.accepted_new() +
                            2 * r.metrics.handoff_successes() + kGrowthSlack;
  EXPECT_LE(allocated, bound)
      << allocated << " allocations for " << r.events << " events, "
      << r.metrics.accepted_new() << " admissions and "
      << r.metrics.handoff_successes() << " handoffs";
  // Not vacuous: an allocation per event would be far over the bound.
  EXPECT_GT(r.events, 3 * bound);
}

TEST(MultiCellAlloc, EpochObserverAddsOnlyOneTimeBufferGrowth) {
  const ScenarioConfig scen =
      workload::catalog_scenario("multicell-handover-storm");
  const auto run_once = [&scen](bool observed) {
    MultiCellEngine engine(scen, make_facs_p_factory(), 0);
    std::uint64_t sink = 0;
    if (observed)
      engine.set_epoch_observer(
          [&sink](const MultiCellEngine::EpochStats& es) {
            sink += es.departures + es.routes.size();
          });
    const std::size_t before = allocations();
    engine.run(100);
    return allocations() - before;
  };
  run_once(false);  // warm catalog/config one-time state
  const std::size_t plain = run_once(false);
  const std::size_t observed = run_once(true);
  EXPECT_LE(observed, plain + 64)
      << "observed run made " << observed << " allocations, plain run "
      << plain;
}

/// One warm replication of the handover storm on a `cells`-cell grid where
/// only the centre offers calls, from engine construction to its result.
struct SparseReplication {
  std::size_t allocations = 0;
  std::size_t shards_built = 0;
  std::uint64_t admissions = 0;  ///< admitted new calls and handovers
};

SparseReplication sparse_replication(int cells) {
  ScenarioConfig scen = workload::catalog_scenario("multicell-handover-storm");
  scen.multicell.cells = cells;
  scen.multicell.workload_cells = 1;
  const PolicyFactory factory = make_facs_p_factory();
  const auto once = [&] {
    SparseReplication out;
    const std::size_t before = allocations();
    MultiCellEngine engine(scen, factory, 0);
    const MultiCellResult result = engine.run(60);
    out.allocations = allocations() - before;
    for (int k = 0; k < engine.cell_count(); ++k)
      out.shards_built += engine.built(k) ? 1 : 0;
    out.admissions = result.aggregate.metrics.accepted_new() +
                     result.aggregate.metrics.handoff_successes();
    return out;
  };
  once();  // warm catalog/config one-time state
  return once();
}

TEST(MultiCellAlloc, SparseReplicationAllocatesPerBuiltShardNotPerCell) {
  const SparseReplication small = sparse_replication(3000);
  const SparseReplication large = sparse_replication(6000);
  // The handovers never reach either grid's rim, so both build the same
  // shards and admit the same calls...
  ASSERT_EQ(small.shards_built, large.shards_built);
  ASSERT_EQ(small.admissions, large.admissions);
  ASSERT_LT(small.shards_built, 3000u / 10);
  // ...and 3,000 more cells cost at most a few allocations' size classes,
  // not one per cell.
  constexpr std::size_t kGridSlack = 8;
  const std::size_t diff = large.allocations > small.allocations
                               ? large.allocations - small.allocations
                               : small.allocations - large.allocations;
  EXPECT_LE(diff, kGridSlack) << small.allocations << " allocations on 3000 "
                              << "cells, " << large.allocations << " on 6000";
  // A built shard: about 15 allocations for its slot, driver, network,
  // streams and policy, and about 20 for the first growth of its containers
  // (event heap, per-call maps, inbox and batch buffers).  An admitted
  // call: its three map nodes (session, held channel, FACS-P counter entry).
  constexpr std::size_t kPerShard = 36;
  constexpr std::size_t kPerAdmission = 3;
  constexpr std::size_t kFixed = 64;
  EXPECT_LE(large.allocations, kPerShard * large.shards_built +
                                   kPerAdmission * large.admissions + kFixed)
      << large.allocations << " allocations for " << large.shards_built
      << " shards built and " << large.admissions << " admissions";
}

/// Inter-cell handoff batch: the request mix the engine's drain loop
/// presents to decide_batch.
std::vector<cac::AdmissionRequest> handoff_batch(std::size_t count) {
  sim::RandomStream rng(7);
  std::vector<cac::AdmissionRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    cac::AdmissionRequest req;
    req.id = 1 + i;
    const auto svc = static_cast<cellular::ServiceClass>(rng.uniform_int(0, 2));
    req.service = svc;
    req.bandwidth = cellular::service_bandwidth(svc);
    req.kind = cellular::RequestKind::kHandoff;
    req.speed_kmh = rng.uniform(0.0, 120.0);
    req.angle_deg = rng.uniform(-60.0, 60.0);
    req.distance_m = 400.0;
    req.mobile.position = {-400.0, 0.0};
    req.mobile.speed_kmh = req.speed_kmh;
    req.mobile.heading_deg = req.angle_deg;
    req.now = 100.0;
    reqs.push_back(req);
  }
  return reqs;
}

TEST(MultiCellAlloc, WarmDecideBatchAllocatesNothingWithObservabilityOn) {
  constexpr std::size_t kBatch = 64;
  constexpr int kBatches = 2000;
  const cellular::CellularNetwork network(0, 500.0, 40.0);
  sim::RngFactory rng(42);
  const auto policy = make_facs_p_factory()(network, rng);
  const std::vector<cac::AdmissionRequest> reqs = handoff_batch(kBatch);
  std::vector<cac::AdmissionDecision> out(kBatch);

  // Metric registration and the thread's trace ring allocate during the
  // warm-up call, before the counted region.
  obs::set_metrics_enabled(true);
  obs::Tracer::start();
  policy->decide_batch(reqs, network.center(), out);

  const std::size_t before = allocations();
  for (int b = 0; b < kBatches; ++b)
    policy->decide_batch(reqs, network.center(), out);
  const std::size_t allocated = allocations() - before;
  const std::uint64_t traced = obs::Tracer::recorded_events();
  obs::Tracer::clear();
  obs::set_metrics_enabled(false);

  EXPECT_EQ(allocated, 0u);
  // Every counted decide_batch call records a span.
  EXPECT_GE(traced, static_cast<std::uint64_t>(kBatches));
}

}  // namespace
}  // namespace facsp::core
