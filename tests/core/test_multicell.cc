// The multi-cell sharded engine (core/multicell.h):
//
//   * a 1-cell engine run is the single-world run: it lands on the
//     golden paper-grid cells;
//   * sharded runs are bit-identical for every engine thread count
//     ({1, 2, 4, 8}, per-cell and aggregate);
//   * handover conservation: every departure routes to a hex neighbour or
//     off the edge, delivered arrivals are admitted or dropped (never
//     lost), per-BS channel counters stay consistent and non-negative,
//     and per-cell sums match the network-wide totals at every drain;
//   * shards built on first use equal eagerly built ones, cell by cell and
//     barrier by barrier, and a sparse grid builds only what it reaches;
//   * multi-cell scenarios compose with the declarative sweep layer
//     (serial vs parallel ResultTables byte-for-byte, `sim.cells` as a
//     param axis).
#include "core/multicell.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "obs/metrics.h"
#include "core/report.h"
#include "core/sweep.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

ScenarioConfig storm_scenario(int engine_threads = 1) {
  ScenarioConfig s = workload::catalog_scenario("multicell-handover-storm");
  s.multicell.threads = engine_threads;
  return s;
}

/// Every cell's row, read after run().
std::vector<MultiCellEngine::Cell> cells_of(const MultiCellEngine& engine) {
  std::vector<MultiCellEngine::Cell> cells;
  for (int k = 0; k < engine.cell_count(); ++k)
    cells.push_back(engine.cell(k));
  return cells;
}

void expect_same_metrics(const cellular::MetricsCollector& a,
                         const cellular::MetricsCollector& b) {
  EXPECT_EQ(a.offered_new(), b.offered_new());
  EXPECT_EQ(a.accepted_new(), b.accepted_new());
  EXPECT_EQ(a.handoff_attempts(), b.handoff_attempts());
  EXPECT_EQ(a.handoff_successes(), b.handoff_successes());
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.completed(), b.completed());
}

// --- 1-cell degeneration ---------------------------------------------------

TEST(MultiCellEngine, OneCellRunReproducesPaperGridGoldenCells) {
  // The PR 3 golden cells (captured pre-refactor at full precision):
  // paper scenario, FACS-P, N = 60.  The engine must land on them exactly.
  struct Golden {
    std::uint64_t rep;
    double acceptance, dropping, utilization, completion;
  };
  constexpr Golden kGolden[] = {
      {0, 90, 0, 11.835524683657104, 100},
      {1, 85, 0, 18.062061758336171, 100},
      {2, 50, 0, 28.029436210054261, 100},
  };
  const ScenarioConfig scen = paper_scenario();
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("rep=" + std::to_string(g.rep));
    MultiCellEngine engine(scen, make_facs_p_factory(), g.rep);
    const CellMetrics m =
        CellMetrics::from_run(60, g.rep, engine.run(60).aggregate);
    EXPECT_EQ(m.acceptance_percent, g.acceptance);
    EXPECT_EQ(m.dropping_percent, g.dropping);
    EXPECT_EQ(m.utilization_percent, g.utilization);
    EXPECT_EQ(m.completion_percent, g.completion);
  }
}

// --- sharded determinism ---------------------------------------------------

TEST(MultiCellEngine, ShardedRunsAreBitIdenticalForEveryThreadCount) {
  MultiCellEngine serial(storm_scenario(1), make_facs_p_factory(), 0);
  const MultiCellResult base = serial.run(100);
  const std::vector<MultiCellEngine::Cell> base_cells = cells_of(serial);
  ASSERT_EQ(base_cells.size(), 7u);
  // Sanity: real inter-cell traffic flowed.
  std::uint64_t total_in = 0;
  for (const auto& c : base_cells) total_in += c.handoffs_in;
  EXPECT_GT(total_in, 0u);

  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MultiCellEngine engine(storm_scenario(threads), make_facs_p_factory(), 0);
    const MultiCellResult got = engine.run(100);
    const std::vector<MultiCellEngine::Cell> got_cells = cells_of(engine);
    ASSERT_EQ(got_cells.size(), base_cells.size());
    for (std::size_t k = 0; k < base_cells.size(); ++k) {
      SCOPED_TRACE("cell=" + std::to_string(k));
      expect_same_metrics(base_cells[k].run.metrics, got_cells[k].run.metrics);
      EXPECT_EQ(base_cells[k].run.center_utilization,
                got_cells[k].run.center_utilization);
      EXPECT_EQ(base_cells[k].run.events, got_cells[k].run.events);
      EXPECT_EQ(base_cells[k].handoffs_out, got_cells[k].handoffs_out);
      EXPECT_EQ(base_cells[k].handoffs_in, got_cells[k].handoffs_in);
      EXPECT_EQ(base_cells[k].left_world, got_cells[k].left_world);
    }
    expect_same_metrics(base.aggregate.metrics, got.aggregate.metrics);
    EXPECT_EQ(base.aggregate.center_utilization,
              got.aggregate.center_utilization);
    EXPECT_EQ(base.aggregate.duration_s, got.aggregate.duration_s);
    EXPECT_EQ(base.aggregate.events, got.aggregate.events);
  }
}

TEST(MultiCellEngine, RunToRunAgreementOnSameSeeds) {
  MultiCellEngine a(storm_scenario(), make_facs_factory(), 3);
  MultiCellEngine b(storm_scenario(), make_facs_factory(), 3);
  const MultiCellResult ra = a.run(60);
  const MultiCellResult rb = b.run(60);
  expect_same_metrics(ra.aggregate.metrics, rb.aggregate.metrics);
  EXPECT_EQ(ra.aggregate.center_utilization, rb.aggregate.center_utilization);
}

// --- routing ---------------------------------------------------------------

TEST(MultiCellEngine, RouteTargetPicksHexNeighboursOrTheEdge) {
  MultiCellEngine engine(storm_scenario(), make_facs_p_factory(), 0);
  ASSERT_EQ(engine.cell_count(), 7);
  // From the centre every heading lands on some ring-1 neighbour.
  for (double heading = -175.0; heading <= 180.0; heading += 5.0) {
    const int dst = engine.route_target(0, heading);
    ASSERT_GE(dst, 1) << "heading " << heading;
    ASSERT_LT(dst, 7) << "heading " << heading;
    EXPECT_EQ(cellular::hex_distance(engine.cell_coord(0),
                                     engine.cell_coord(dst)),
              1);
  }
  // From an edge cell, heading straight away from the centre leaves the
  // 7-cell world; heading back towards it re-enters.
  const cellular::HexLayout unit(1.0);
  for (int cell = 1; cell < 7; ++cell) {
    const double outward = cellular::heading_deg(
        unit.center(cellular::HexCoord{0, 0}),
        unit.center(engine.cell_coord(cell)));
    EXPECT_EQ(engine.route_target(cell, outward), -1) << "cell " << cell;
    const int back = engine.route_target(
        cell, outward > 0.0 ? outward - 180.0 : outward + 180.0);
    EXPECT_EQ(back, 0) << "cell " << cell;
  }
}

TEST(MultiCellEngine, RouteTargetMatchesTheSpiralLayoutOnALargeGrid) {
  // 330 cells: rings 0..9 complete, ring 10 partial.  Cells are numbered
  // along hex_ring's walk, ring by ring, and every neighbour lookup agrees
  // with a search of that numbering.
  ScenarioConfig s = storm_scenario();
  s.multicell.cells = 330;
  MultiCellEngine engine(s, make_facs_p_factory(), 0);
  ASSERT_EQ(engine.cell_count(), 330);
  std::vector<cellular::HexCoord> spiral;
  for (int radius = 0; spiral.size() < 330u; ++radius)
    for (const cellular::HexCoord& c :
         cellular::hex_ring(cellular::HexCoord{0, 0}, radius))
      spiral.push_back(c);
  spiral.resize(330);
  for (int k = 0; k < 330; ++k)
    ASSERT_EQ(engine.cell_coord(k), spiral[static_cast<std::size_t>(k)]) << k;

  const cellular::HexLayout unit(1.0);
  const auto dirs = cellular::hex_neighbors(cellular::HexCoord{0, 0});
  for (int k = 0; k < 330; ++k)
    for (const cellular::HexCoord& d : dirs) {
      const cellular::HexCoord from = engine.cell_coord(k);
      const cellular::HexCoord to{from.q + d.q, from.r + d.r};
      const auto it = std::find(spiral.begin(), spiral.end(), to);
      const int want =
          it == spiral.end() ? -1 : static_cast<int>(it - spiral.begin());
      const double heading = cellular::heading_deg(
          unit.center(cellular::HexCoord{0, 0}), unit.center(d));
      ASSERT_EQ(engine.route_target(k, heading), want)
          << "cell " << k << " direction (" << d.q << ", " << d.r << ")";
    }
}

// --- conservation properties ----------------------------------------------

/// Conservation at every barrier and over the run.  Unbuilt shards hold
/// nothing, so the per-cell sums run over built ones.
void expect_handover_conservation(const ScenarioConfig& scen) {
  MultiCellEngine engine(scen, make_facs_p_factory(), 1);
  std::uint64_t epochs = 0, total_departures = 0;
  engine.set_epoch_observer([&](const MultiCellEngine::EpochStats& es) {
    ++epochs;
    total_departures += es.departures;
    // Every departure is accounted for exactly once...
    ASSERT_EQ(es.delivered + es.left_world, es.departures);
    // ...and every delivered arrival is admitted or dropped, never lost.
    ASSERT_EQ(es.admitted + es.dropped, es.delivered);
    ASSERT_EQ(es.routes.size(), es.departures);
    // Each route goes to a hex neighbour of its source (or off the edge).
    for (const auto& [from, to] : es.routes) {
      ASSERT_GE(from, 0);
      ASSERT_LT(from, engine.cell_count());
      if (to >= 0)
        ASSERT_EQ(cellular::hex_distance(engine.cell_coord(from),
                                         engine.cell_coord(to)),
                  1);
    }
    // Channel accounting: per-BS counters consistent and non-negative,
    // and the per-cell sums reproduce the network-wide totals.
    double used_sum = 0.0;
    std::uint64_t session_sum = 0;
    for (int cell = 0; cell < engine.cell_count(); ++cell) {
      if (!engine.built(cell)) continue;
      session_sum += engine.driver(cell).session_count();
      for (const cellular::BaseStation* bs :
           engine.driver(cell).network().stations()) {
        const cellular::LoadState& load = bs->load();
        ASSERT_GE(load.used, 0.0);
        ASSERT_LE(load.used, load.capacity + 1e-9);
        ASSERT_NEAR(load.used, load.rt_used + load.nrt_used, 1e-9);
        ASSERT_GE(load.rt_used, 0.0);
        ASSERT_GE(load.nrt_used, 0.0);
        used_sum += load.used;
      }
    }
    ASSERT_EQ(session_sum, es.active_sessions);
    // Whole-BU bandwidths make the engine's running total exact.
    ASSERT_EQ(used_sum, es.used_bu);
  });

  const MultiCellResult result = engine.run(100);
  ASSERT_GT(epochs, 0u);
  ASSERT_GT(total_departures, 0u);

  // Cumulative conservation: in-grid departures equal delivered arrivals...
  std::uint64_t out_sum = 0, in_sum = 0, left_sum = 0;
  for (const auto& c : cells_of(engine)) {
    out_sum += c.handoffs_out;
    in_sum += c.handoffs_in;
    left_sum += c.left_world;
  }
  EXPECT_EQ(out_sum, in_sum);
  EXPECT_EQ(out_sum + left_sum, total_departures);
  // ...and every admitted call ended exactly once, somewhere: completions
  // plus drops across all cells equal the admitted new calls.
  EXPECT_EQ(result.aggregate.metrics.completed() +
                result.aggregate.metrics.dropped(),
            result.aggregate.metrics.accepted_new());
  // Inter-cell attempts were recorded in the destination cells' collectors.
  EXPECT_EQ(result.aggregate.metrics.handoff_attempts(), in_sum);
  // Nothing is still holding channels after the drain completed.
  for (int cell = 0; cell < engine.cell_count(); ++cell) {
    if (!engine.built(cell)) continue;
    EXPECT_EQ(engine.driver(cell).session_count(), 0u);
    for (const cellular::BaseStation* bs :
         engine.driver(cell).network().stations())
      EXPECT_EQ(bs->load().used, 0.0);
  }
}

TEST(MultiCellEngine, HandoverConservationHoldsAtEveryDrain) {
  expect_handover_conservation(storm_scenario());
}

TEST(MultiCellEngine, HandoverConservationHoldsOnASparseGrid) {
  // Most shards are built mid-run by their first inbound handover.
  ScenarioConfig s = storm_scenario();
  s.multicell.cells = 100;
  s.multicell.workload_cells = 1;
  expect_handover_conservation(s);
}

TEST(MultiCellEngine, EveryCellOffersItsOwnWorkload) {
  MultiCellEngine engine(storm_scenario(), make_facs_p_factory(), 0);
  const MultiCellResult result = engine.run(40);
  const std::vector<MultiCellEngine::Cell> cells = cells_of(engine);
  ASSERT_EQ(cells.size(), 7u);
  for (const auto& c : cells)
    EXPECT_EQ(c.run.metrics.offered_new(), 40u);
  EXPECT_EQ(result.aggregate.metrics.offered_new(), 7u * 40u);
  // Shards simulate different worlds: their workloads must not be clones.
  EXPECT_NE(cells[0].run.center_utilization,
            cells[1].run.center_utilization);
}

// --- sweep-layer composition ----------------------------------------------

SweepSpec multicell_sweep(int threads) {
  SweepSpec spec;
  spec.replications = 2;
  spec.threads = threads;
  spec.policy_axis({"facs-p", "facs"});
  spec.scenario_axis({"multicell-ring1", "multicell-handover-storm"});
  spec.n_axis({20, 40});
  return spec;
}

TEST(MultiCellSweep, SerialVsParallelResultTablesByteForByte) {
  const ResultTable serial = SweepRunner(multicell_sweep(1)).run();
  const std::string csv = result_csv_string(serial);
  const std::string json = result_json_string(serial);
  ASSERT_EQ(serial.rows.size(), 8u);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ResultTable parallel = SweepRunner(multicell_sweep(threads)).run();
    EXPECT_EQ(result_csv_string(parallel), csv);
    EXPECT_EQ(result_json_string(parallel), json);
  }
}

TEST(MultiCellSweep, CellsIsASweepableParamAxis) {
  SweepSpec spec;
  spec.base = workload::catalog_scenario("multicell-ring1");
  spec.replications = 2;
  spec.param_axis("sim.cells", {"1", "7"});
  spec.n_axis({30});
  const SweepRunner runner(spec);
  std::vector<CellMetrics> cells;
  const ResultTable table = runner.run(&cells);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].coords[1], "1");
  EXPECT_EQ(table.rows[1].coords[1], "7");
  // 1 shard vs 7 shards simulate different worlds.
  EXPECT_NE(table.rows[0].utilization_percent.mean(),
            table.rows[1].utilization_percent.mean());
}

TEST(MultiCellConfig, ValidationAndRoundTrip) {
  ScenarioConfig s = paper_scenario();
  s.multicell.cells = 0;
  EXPECT_THROW(s.validate(), ConfigError);
  s.multicell.cells = 7;
  s.multicell.epoch_s = 0.0;
  EXPECT_THROW(s.validate(), ConfigError);
  s.multicell.epoch_s = 5.0;
  s.multicell.entry_fraction = 0.9;  // beyond the hex inradius ratio
  EXPECT_THROW(s.validate(), ConfigError);
}

TEST(MultiCellConfig, EventDrivenKeysValidate) {
  ScenarioConfig s = storm_scenario();
  s.multicell.workload_cells = -1;
  EXPECT_THROW(s.validate(), ConfigError);
  s.multicell.workload_cells = 3;
  s.validate();
}

// --- event-driven scheduling ------------------------------------------------

/// One observed replication: its aggregate, every cell's row and a copy of
/// every barrier's EpochStats.
struct Observed {
  RunResult aggregate;
  std::vector<MultiCellEngine::Cell> cells;
  std::vector<MultiCellEngine::EpochStats> epochs;
};

void expect_same_multicell_result(const Observed& a, const Observed& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t k = 0; k < a.cells.size(); ++k) {
    SCOPED_TRACE("cell=" + std::to_string(k));
    EXPECT_EQ(a.cells[k].coord, b.cells[k].coord);
    expect_same_metrics(a.cells[k].run.metrics, b.cells[k].run.metrics);
    for (const cellular::ServiceClass sc : cellular::kAllServices)
      EXPECT_EQ(a.cells[k].run.metrics.acceptance_percent(sc),
                b.cells[k].run.metrics.acceptance_percent(sc));
    for (const cellular::UserPriority p :
         {cellular::UserPriority::kLow, cellular::UserPriority::kNormal,
          cellular::UserPriority::kHigh})
      EXPECT_EQ(a.cells[k].run.metrics.acceptance_percent(p),
                b.cells[k].run.metrics.acceptance_percent(p));
    EXPECT_EQ(a.cells[k].run.center_utilization,
              b.cells[k].run.center_utilization);
    EXPECT_EQ(a.cells[k].run.duration_s, b.cells[k].run.duration_s);
    EXPECT_EQ(a.cells[k].run.events, b.cells[k].run.events);
    EXPECT_EQ(a.cells[k].handoffs_out, b.cells[k].handoffs_out);
    EXPECT_EQ(a.cells[k].handoffs_in, b.cells[k].handoffs_in);
    EXPECT_EQ(a.cells[k].left_world, b.cells[k].left_world);
  }
  expect_same_metrics(a.aggregate.metrics, b.aggregate.metrics);
  EXPECT_EQ(a.aggregate.center_utilization, b.aggregate.center_utilization);
  EXPECT_EQ(a.aggregate.duration_s, b.aggregate.duration_s);
  EXPECT_EQ(a.aggregate.events, b.aggregate.events);
}

/// Runs `engine` with an observer that keeps a copy of every barrier's
/// EpochStats.
Observed run_observed(MultiCellEngine& engine, int n) {
  Observed out;
  engine.set_epoch_observer(
      [&out](const MultiCellEngine::EpochStats& es) {
        out.epochs.push_back(es);
      });
  out.aggregate = engine.run(n).aggregate;
  out.cells = cells_of(engine);
  return out;
}

void expect_same_epoch(const MultiCellEngine::EpochStats& a,
                       const MultiCellEngine::EpochStats& b) {
  EXPECT_EQ(a.t_end, b.t_end);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.left_world, b.left_world);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.active_sessions, b.active_sessions);
  EXPECT_EQ(a.used_bu, b.used_bu);
}

TEST(MultiCellEngine, EventSkippingIsBitIdenticalToFullDrains) {
  // The eager bulk-synchronous schedule (every shard built up front and
  // drained every epoch, no fast-forward) and the event-driven schedule
  // (shards built on first use, idle epochs skipped) must produce
  // byte-identical results — every field of every cell, never-touched
  // cells included, and the aggregate, at every thread count.  The sparse
  // grids leave most shards unbuilt in the event-driven run.
  ScenarioConfig sparse_storm = storm_scenario();
  sparse_storm.multicell.cells = 1000;
  sparse_storm.multicell.workload_cells = 1;
  for (const ScenarioConfig& scen :
       {paper_scenario(), storm_scenario(),
        workload::catalog_scenario("multicell-sparse-100"), sparse_storm}) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("cells=" + std::to_string(scen.multicell.cells) +
                   " threads=" + std::to_string(threads));
      ScenarioConfig s = scen;
      s.multicell.threads = threads;

      MultiCellEngine full(s, make_facs_p_factory(), 0);
      full.set_force_full_drains(true);
      const Observed base = run_observed(full, 60);

      MultiCellEngine skipping(s, make_facs_p_factory(), 0);
      const Observed got = run_observed(skipping, 60);
      expect_same_multicell_result(base, got);
      const auto& base_epochs = base.epochs;
      const auto& got_epochs = got.epochs;

      // Barrier by barrier: the event-driven run's barriers are the eager
      // run's non-skipped ones (same t_end), with identical stats; every
      // barrier it skipped routed nothing.
      std::size_t j = 0;
      for (const MultiCellEngine::EpochStats& es : base_epochs) {
        if (j < got_epochs.size() && got_epochs[j].t_end == es.t_end) {
          SCOPED_TRACE("epoch t_end=" + std::to_string(es.t_end));
          expect_same_epoch(es, got_epochs[j]);
          ++j;
        } else {
          EXPECT_EQ(es.departures, 0u);
        }
      }
      EXPECT_EQ(j, got_epochs.size());
      EXPECT_GT(j, 0u);
    }
  }
}

TEST(MultiCellEngine, WorkloadCellsRestrictsFreshTraffic) {
  ScenarioConfig s = storm_scenario();
  s.multicell.workload_cells = 1;
  MultiCellEngine engine(s, make_facs_p_factory(), 0);
  const MultiCellResult result = engine.run(40);
  const std::vector<MultiCellEngine::Cell> cells = cells_of(engine);
  ASSERT_EQ(cells.size(), 7u);
  EXPECT_EQ(cells[0].run.metrics.offered_new(), 40u);
  for (std::size_t k = 1; k < cells.size(); ++k)
    EXPECT_EQ(cells[k].run.metrics.offered_new(), 0u);
  EXPECT_EQ(result.aggregate.metrics.offered_new(), 40u);
  // The quiet neighbours still light up on inbound handovers.
  std::uint64_t in_sum = 0;
  for (std::size_t k = 1; k < cells.size(); ++k)
    in_sum += cells[k].handoffs_in;
  EXPECT_GT(in_sum, 0u);
}

struct SparseCase {
  int cells;
  std::uint64_t built_below;  ///< shards one replication may build, exclusive
};

class SparseGrid : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseGrid, DrainsProportionalToActivity) {
  // `cells` cells, one generating: the engine must drain the active
  // neighbourhood only, not sweep the grid — >= 10x fewer shard drains
  // than cells x epochs (the bulk-synchronous cost), per the
  // engine.shards_drained counter.
  const int cells = GetParam().cells;
  ScenarioConfig s = storm_scenario();
  s.multicell.cells = cells;
  s.multicell.workload_cells = 1;

  obs::Registry& reg = obs::Registry::instance();
  const std::uint64_t drained0 = reg.counter("engine.shards_drained").value();
  const std::uint64_t epochs0 = reg.counter("engine.epochs").value();
  const std::uint64_t built0 = reg.counter("engine.shards_built").value();

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  MultiCellEngine engine(s, make_facs_p_factory(), 0);
  std::uint64_t observed_epochs = 0;
  engine.set_epoch_observer(
      [&](const MultiCellEngine::EpochStats&) { ++observed_epochs; });
  const MultiCellResult result = engine.run(60);
  obs::set_metrics_enabled(was_enabled);

  const std::uint64_t drained =
      reg.counter("engine.shards_drained").value() - drained0;
  const std::uint64_t built =
      reg.counter("engine.shards_built").value() - built0;
  const std::uint64_t epochs = reg.counter("engine.epochs").value() - epochs0;
  const auto grid = static_cast<std::uint64_t>(cells);

  ASSERT_GT(epochs, 0u);
  ASSERT_GT(drained, 0u);
  EXPECT_GT(result.aggregate.metrics.offered_new(), 0u);
  // engine.epochs counts the barriers actually run, the same ones the
  // observer sees.
  EXPECT_EQ(epochs, observed_epochs);
  // The bulk-synchronous engine would have drained every cell at every
  // barrier this run held (skipped epochs are not counted, which makes the
  // bound stricter than cells x the whole window's epochs).
  EXPECT_LE(drained * 10, grid * epochs)
      << "drained " << drained << " shards over " << epochs << " epochs";
  // Construction follows activity too: only the shards the handovers
  // reached were ever built.
  EXPECT_GT(built, 1u);
  EXPECT_LT(built, GetParam().built_below)
      << "built " << built << " of " << cells << " shards";
}

// A replication reaches most of a 100-cell grid but under a quarter of a
// 1000-cell one.
INSTANTIATE_TEST_SUITE_P(Cells, SparseGrid,
                         ::testing::Values(SparseCase{100, 100},
                                           SparseCase{1000, 250}),
                         [](const auto& info) {
                           return std::to_string(info.param.cells) + "Cells";
                         });

TEST(MultiCellEngine, DriverOfAnUnbuiltShardIsAContractViolation) {
  ScenarioConfig s = storm_scenario();
  s.multicell.workload_cells = 1;
  MultiCellEngine engine(s, make_facs_p_factory(), 0);
  // Nothing is built before run(); an unbuilt cell reads as the idle cell.
  EXPECT_FALSE(engine.built(0));
  EXPECT_THROW(engine.driver(0), ContractViolation);
  EXPECT_EQ(engine.cell(0).run.duration_s,
            SessionDriver::idle_result().duration_s);
  EXPECT_EQ(engine.cell(0).run.events, 0u);
  engine.run(10);
  EXPECT_TRUE(engine.built(0));  // the generating cell
  EXPECT_NO_THROW(engine.driver(0));
  EXPECT_GT(engine.cell(0).run.events, 0u);
  EXPECT_THROW(engine.driver(-1), ContractViolation);
  EXPECT_THROW(engine.driver(engine.cell_count()), ContractViolation);
  EXPECT_THROW(engine.cell(engine.cell_count()), ContractViolation);
}

}  // namespace
}  // namespace facsp::core
