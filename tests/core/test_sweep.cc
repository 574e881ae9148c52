// The declarative sweep layer (core/sweep.h): spec validation, grid
// resolution, and — most importantly — the determinism guarantees:
//
//   * the paper grid as a SweepSpec reproduces the captured golden
//     per-cell metrics, and a nested serial run_single loop,
//     bit-identically at threads {1, 2, 8};
//   * multi-axis sweeps (policy x scenario x N, and every registry policy
//     on the catalog matrix) serialise byte-for-byte identically for
//     serial and parallel execution.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "core/paper.h"
#include "core/report.h"
#include "workload/catalog.h"

namespace facsp::core {
namespace {

ScenarioConfig quick_scenario() {
  ScenarioConfig s = paper_scenario(3);
  s.traffic.arrival_window_s = 300.0;
  s.traffic.mean_holding_s = 120.0;
  return s;
}

// --- spec structure --------------------------------------------------------

TEST(SweepSpec, GridSizeIsAxisProductTimesReplications) {
  SweepSpec spec;
  spec.policy_axis({"facs-p", "gc"});
  spec.scenario_axis({"paper-grid", "bursty-onoff"});
  spec.param_axis("traffic.arrival.mean_on_s", {"30", "60", "120"});
  spec.n_axis({20, 40});
  spec.replications = 5;
  EXPECT_EQ(spec.grid_size(), 2u * 2u * 3u * 2u);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 3u * 2u * 5u);
  EXPECT_NO_THROW(spec.validate());
}

TEST(SweepSpec, PaperGridIs10To100) {
  const SweepSpec spec = SweepSpec::paper_grid(5);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "policy");
  EXPECT_EQ(spec.axes[0].label(0), "facs-p");
  const std::vector<int>& ns = spec.axes[1].n_values;
  ASSERT_EQ(ns.size(), 10u);
  EXPECT_EQ(ns.front(), 10);
  EXPECT_EQ(ns.back(), 100);
  EXPECT_EQ(ns, paper_n_values());
  EXPECT_EQ(spec.replications, 5);
}

TEST(SweepSpec, ValidateRejectsStructuralErrors) {
  {
    SweepSpec spec;
    spec.replications = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.threads = -2;
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.n_axis({});  // empty N axis
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  for (const double level :
       {1.5, 1.0, 0.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    // A bad CI level must fail before any cell simulates, not when the
    // table is later written.
    SCOPED_TRACE("ci_level=" + std::to_string(level));
    SweepSpec spec;
    spec.ci_level = level;
    spec.replications = 2;
    spec.n_axis({10});
    EXPECT_THROW(spec.validate(), ConfigError);
    EXPECT_THROW(SweepRunner{spec}, ConfigError);
  }
  {
    SweepSpec spec;
    spec.n_axis({10}).n_axis({20});  // two N axes
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.param_axis("seed", {"1"}).param_axis("seed", {"2"});  // dup name
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.param_axis("seed", {});  // empty axis
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    // A param listed before the scenario axis would be overwritten by the
    // scenario choice — rejected, not silently ignored.
    SweepSpec spec;
    spec.param_axis("traffic.arrival.mean_on_s", {"30"});
    spec.scenario_axis({"paper-grid"});
    EXPECT_THROW(spec.validate(), ConfigError);
  }
  {
    SweepSpec spec;
    spec.n_axis({0});  // n must be >= 1
    EXPECT_THROW(spec.validate(), ConfigError);
  }
}

TEST(SweepRunner, UnknownPolicyAndParamFailAtConstruction) {
  {
    SweepSpec spec;
    spec.fallback_policy = "no-such-policy";
    EXPECT_THROW(SweepRunner{spec}, ConfigError);
  }
  {
    SweepSpec spec;
    spec.param_axis("no.such.key", {"1"});
    EXPECT_THROW(SweepRunner{spec}, ConfigError);
  }
  {
    SweepSpec spec;
    EXPECT_THROW(spec.policy_axis({"bogus"}),
                 ConfigError);
  }
  {
    EXPECT_THROW(scenario_choices({"no-such-scenario"}), ConfigError);
  }
}

TEST(SweepRunner, EmptySpecIsOneFallbackCell) {
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.replications = 2;
  const SweepRunner runner(spec);
  EXPECT_EQ(runner.grid_size(), 1u);
  EXPECT_EQ(runner.cell_count(), 2u);
  std::vector<CellMetrics> cells;
  const ResultTable table = runner.run(&cells);
  ASSERT_EQ(table.rows.size(), 1u);
  // Absent axes are normalised to explicit single-value ones, so even this
  // degenerate table records which policy and N produced it.
  EXPECT_EQ(table.axes, (std::vector<std::string>{"policy", "n"}));
  EXPECT_EQ(table.rows[0].coords, (std::vector<std::string>{"facs-p", "60"}));
  EXPECT_EQ(table.rows[0].n, 60);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(table.rows[0].acceptance_percent.count(), 2u);
}

TEST(SweepRunner, RowsAreRowMajorWithLastAxisFastest) {
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.replications = 1;
  spec.policy_axis({"gc", "cs"});
  spec.n_axis({5, 7});
  const ResultTable table = SweepRunner(spec).run();
  ASSERT_EQ(table.rows.size(), 4u);
  ASSERT_EQ(table.axes, (std::vector<std::string>{"policy", "n"}));
  EXPECT_EQ(table.rows[0].coords, (std::vector<std::string>{"gc", "5"}));
  EXPECT_EQ(table.rows[1].coords, (std::vector<std::string>{"gc", "7"}));
  EXPECT_EQ(table.rows[2].coords, (std::vector<std::string>{"cs", "5"}));
  EXPECT_EQ(table.rows[3].coords, (std::vector<std::string>{"cs", "7"}));
  EXPECT_EQ(table.rows[3].n, 7);
}

TEST(SweepRunner, ParamAxisActuallyModifiesTheScenario) {
  // Sweeping the seed key: both cells share (policy, n) but must simulate
  // different worlds, so the continuous utilization metric differs.
  SweepSpec spec;
  spec.base = quick_scenario();
  spec.replications = 1;
  spec.param_axis("seed", {"3", "4"});
  spec.n_axis({20});
  const ResultTable table = SweepRunner(spec).run();
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_NE(table.rows[0].utilization_percent.mean(),
            table.rows[1].utilization_percent.mean());
}

// --- determinism guarantees ------------------------------------------------

// The PR 3 golden cells (tests/workload/test_workload_golden.cc, captured
// pre-refactor at full precision): paper scenario, FACS-P, N = 60.
struct GoldenCell {
  std::uint64_t rep;
  double acceptance_percent;
  double dropping_percent;
  double utilization_percent;
  double completion_percent;
};

constexpr GoldenCell kPaperGolden[] = {
    {0, 90, 0, 11.835524683657104, 100},
    {1, 85, 0, 18.062061758336171, 100},
    {2, 50, 0, 28.029436210054261, 100},
};

TEST(SweepRunner, PaperGridSpecReproducesGoldenCellsAtEveryThreadCount) {
  for (const int threads : {1, 2, 8}) {
    SweepSpec spec = SweepSpec::paper_grid(/*replications=*/3);
    spec.threads = threads;
    const SweepRunner runner(spec);
    std::vector<CellMetrics> cells;
    runner.run(&cells);
    ASSERT_EQ(cells.size(), 30u);  // 10 N-values x 3 replications
    // N = 60 is the 6th value of the paper's x grid.
    const std::size_t base = 5u * 3u;
    for (const GoldenCell& g : kPaperGolden) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rep=" + std::to_string(g.rep));
      const CellMetrics& m = cells[base + g.rep];
      EXPECT_EQ(m.n, 60);
      EXPECT_EQ(m.replication, g.rep);
      EXPECT_EQ(m.acceptance_percent, g.acceptance_percent);
      EXPECT_EQ(m.dropping_percent, g.dropping_percent);
      EXPECT_EQ(m.utilization_percent, g.utilization_percent);
      EXPECT_EQ(m.completion_percent, g.completion_percent);
    }
  }
}

void expect_bit_identical(const sim::SummaryStats& a,
                          const sim::SummaryStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.ci_half_width(0.95), b.ci_half_width(0.95));
}

TEST(SweepRunner, PaperGridSpecMatchesNestedRunSingleLoop) {
  // Oracle independent of SweepRunner: a nested serial loop over
  // Experiment::run_single that reduces in (n, replication) order.  Every
  // aggregate must be bit-equal (EXPECT_EQ on doubles, no tolerance).
  constexpr std::uint64_t kReps = 3;
  const Experiment exp(paper_scenario(), make_facs_p_factory(), "facs-p");
  std::vector<ResultRow> oracle;
  for (const int n : paper_n_values()) {
    ResultRow row;
    row.n = n;
    for (std::uint64_t r = 0; r < kReps; ++r) {
      const RunResult run = exp.run_single(n, r);
      const double acceptance = run.metrics.acceptance_percent();
      row.acceptance_percent.add(acceptance);
      row.blocking_percent.add(100.0 - acceptance);
      row.dropping_percent.add(100.0 * run.metrics.dropping_probability());
      row.utilization_percent.add(100.0 * run.center_utilization);
      row.completion_percent.add(100.0 * run.metrics.completion_ratio());
    }
    oracle.push_back(row);
  }
  for (const int threads : {1, 2, 8}) {
    SweepSpec spec = SweepSpec::paper_grid(static_cast<int>(kReps));
    spec.threads = threads;
    const ResultTable table = SweepRunner(spec).run();
    ASSERT_EQ(table.rows.size(), oracle.size());
    for (std::size_t i = 0; i < table.rows.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(oracle[i].n));
      const ResultRow& row = table.rows[i];
      EXPECT_EQ(row.n, oracle[i].n);
      for (const auto metric :
           {&ResultRow::acceptance_percent, &ResultRow::blocking_percent,
            &ResultRow::dropping_percent, &ResultRow::utilization_percent,
            &ResultRow::completion_percent})
        expect_bit_identical(row.*metric, oracle[i].*metric);
    }
  }
}

SweepSpec multi_axis_spec(int threads) {
  // policy x scenario x N, >= 2 values per axis.  Scenario axis mixes a
  // catalog entry with an inline config; both shrunk so the matrix stays
  // ctest-cheap.
  ScenarioConfig bursty = workload::catalog_scenario("bursty-onoff");
  bursty.traffic.mean_holding_s = 120.0;
  SweepSpec spec;
  spec.replications = 2;
  spec.threads = threads;
  spec.policy_axis({"facs-p", "gc"});
  spec.scenario_axis({ScenarioChoice{"quick-paper", quick_scenario()},
                      ScenarioChoice{"quick-bursty", bursty}});
  spec.n_axis({8, 16});
  return spec;
}

TEST(SweepRunner, MultiAxisParallelVsSerialByteForByte) {
  const ResultTable serial = SweepRunner(multi_axis_spec(1)).run();
  const std::string serial_csv = result_csv_string(serial);
  const std::string serial_json = result_json_string(serial);
  ASSERT_EQ(serial.rows.size(), 8u);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ResultTable parallel = SweepRunner(multi_axis_spec(threads)).run();
    EXPECT_EQ(result_csv_string(parallel), serial_csv);
    EXPECT_EQ(result_json_string(parallel), serial_json);
  }
}

TEST(SweepRunner, RepeatedRunsOfOneRunnerAgree) {
  const SweepRunner runner(multi_axis_spec(8));
  const ResultTable a = runner.run();
  const ResultTable b = runner.run();
  EXPECT_EQ(result_csv_string(a), result_csv_string(b));
  EXPECT_EQ(result_json_string(a), result_json_string(b));
}

// Catalog-scenario matrix: thread invariance must hold for every workload
// the catalog can produce and every registry policy — FACS-P's batched
// fuzzy path, FGC's per-cell policy-RNG stream, SCC's geometry.  Each
// scenario is shrunk (shorter holding) so the matrix stays ctest-cheap; the
// workload *shape* (arrival process, spatial map) is untouched.
SweepSpec catalog_matrix_spec(const char* scenario, int threads) {
  SweepSpec spec;
  spec.base = workload::catalog_scenario(scenario);
  spec.base.traffic.mean_holding_s = 120.0;
  spec.policy_axis(policy_names());
  spec.n_axis({5, 12, 20});
  spec.replications = 4;
  spec.threads = threads;
  return spec;
}

class SweepRunnerCatalogMatrix : public ::testing::TestWithParam<const char*> {
};

INSTANTIATE_TEST_SUITE_P(Scenarios, SweepRunnerCatalogMatrix,
                         ::testing::Values("bursty-onoff", "hotspot-ring2",
                                           "flash-crowd", "mix-shift"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST_P(SweepRunnerCatalogMatrix, EveryPolicyByteIdenticalAtThreads28) {
  const ResultTable serial =
      SweepRunner(catalog_matrix_spec(GetParam(), 1)).run();
  ASSERT_EQ(serial.rows.size(), policy_names().size() * 3u);
  const std::string serial_csv = result_csv_string(serial);
  const std::string serial_json = result_json_string(serial);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(std::string(GetParam()) +
                 " threads=" + std::to_string(threads));
    const ResultTable parallel =
        SweepRunner(catalog_matrix_spec(GetParam(), threads)).run();
    EXPECT_EQ(result_csv_string(parallel), serial_csv);
    EXPECT_EQ(result_json_string(parallel), serial_json);
  }
}

TEST(SweepRunner, RawCellsComeBackInRowMajorReplicationOrder) {
  const SweepRunner runner(multi_axis_spec(4));
  std::vector<CellMetrics> cells;
  const ResultTable table = runner.run(&cells);
  ASSERT_EQ(cells.size(), 16u);
  std::size_t i = 0;
  for (const ResultRow& row : table.rows) {
    for (std::uint64_t r = 0; r < 2; ++r, ++i) {
      EXPECT_EQ(cells[i].n, row.n);
      EXPECT_EQ(cells[i].replication, r);
    }
  }
  // The rows were reduced from exactly these cells, including the derived
  // CBP (blocking = 100 - acceptance, computed per replication *before*
  // aggregation).
  sim::SummaryStats acc, blocked;
  for (std::size_t c = 0; c < 2; ++c) {
    acc.add(cells[c].acceptance_percent);
    blocked.add(100.0 - cells[c].acceptance_percent);
  }
  EXPECT_EQ(acc.mean(), table.rows[0].acceptance_percent.mean());
  EXPECT_EQ(blocked.mean(), table.rows[0].blocking_percent.mean());
  EXPECT_EQ(blocked.variance(), table.rows[0].blocking_percent.variance());
}

}  // namespace
}  // namespace facsp::core
