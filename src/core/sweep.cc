#include "core/sweep.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "core/config_io.h"
#include "core/paper.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"
#include "workload/catalog.h"

namespace facsp::core {

std::vector<ScenarioChoice> scenario_choices(
    const std::vector<std::string>& catalog_names) {
  std::vector<ScenarioChoice> out;
  out.reserve(catalog_names.size());
  for (const std::string& name : catalog_names)
    out.push_back({name, workload::catalog_scenario(name)});
  return out;
}

std::vector<PolicyChoice> policy_choices(
    const std::vector<std::string>& names) {
  std::vector<PolicyChoice> out;
  out.reserve(names.size());
  for (const std::string& name : names)
    out.push_back({name, policy_factory_by_name(name)});
  return out;
}

std::size_t SweepAxis::size() const noexcept {
  switch (kind) {
    case Kind::kPolicy:
      return policies.size();
    case Kind::kScenario:
      return scenarios.size();
    case Kind::kParam:
      return values.size();
    case Kind::kN:
      return n_values.size();
  }
  return 0;
}

std::string SweepAxis::label(std::size_t i) const {
  switch (kind) {
    case Kind::kPolicy:
      return policies[i].name;
    case Kind::kScenario:
      return scenarios[i].name;
    case Kind::kParam:
      return values[i];
    case Kind::kN:
      return std::to_string(n_values[i]);
  }
  return {};
}

SweepSpec& SweepSpec::policy_axis(std::initializer_list<const char*> names) {
  return policy_axis(std::vector<std::string>(names.begin(), names.end()));
}

SweepSpec& SweepSpec::policy_axis(const std::vector<std::string>& names) {
  return policy_axis(policy_choices(names));
}

SweepSpec& SweepSpec::policy_axis(std::vector<PolicyChoice> choices) {
  SweepAxis axis;
  axis.kind = SweepAxis::Kind::kPolicy;
  axis.name = "policy";
  axis.policies = std::move(choices);
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::scenario_axis(
    std::initializer_list<const char*> catalog_names) {
  return scenario_axis(
      std::vector<std::string>(catalog_names.begin(), catalog_names.end()));
}

SweepSpec& SweepSpec::scenario_axis(
    const std::vector<std::string>& catalog_names) {
  return scenario_axis(scenario_choices(catalog_names));
}

SweepSpec& SweepSpec::scenario_axis(std::vector<ScenarioChoice> choices) {
  SweepAxis axis;
  axis.kind = SweepAxis::Kind::kScenario;
  axis.name = "scenario";
  axis.scenarios = std::move(choices);
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::param_axis(std::string key,
                                 std::vector<std::string> values) {
  SweepAxis axis;
  axis.kind = SweepAxis::Kind::kParam;
  axis.name = std::move(key);
  axis.values = std::move(values);
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec& SweepSpec::n_axis(std::vector<int> values) {
  SweepAxis axis;
  axis.kind = SweepAxis::Kind::kN;
  axis.name = "n";
  axis.n_values = std::move(values);
  axes.push_back(std::move(axis));
  return *this;
}

SweepSpec SweepSpec::paper_grid(int replications) {
  SweepSpec spec;
  spec.base = paper_scenario();
  spec.policy_axis({"facs-p"});
  spec.n_axis(paper_n_values());
  spec.replications = replications;
  return spec;
}

std::size_t SweepSpec::grid_size() const noexcept {
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) total *= axis.size();
  return total;
}

std::size_t SweepSpec::cell_count() const noexcept {
  return grid_size() * static_cast<std::size_t>(replications > 0 ? replications
                                                                 : 0);
}

void SweepSpec::validate() const {
  if (replications < 1)
    throw ConfigError("sweep: replications must be >= 1");
  sim::ThreadPool::validate_threads(threads, "sweep");
  // Negated so a NaN level is rejected too.
  if (!(ci_level > 0.0 && ci_level < 1.0))
    throw ConfigError("sweep: ci_level must be in (0, 1)");
  if (fallback_n < 1) throw ConfigError("sweep: fallback_n must be >= 1");
  std::set<std::string> names;
  int policy_axes = 0, scenario_axes = 0, n_axes = 0;
  bool saw_param = false;
  for (const SweepAxis& axis : axes) {
    if (axis.name.empty()) throw ConfigError("sweep: axis with empty name");
    if (!names.insert(axis.name).second)
      throw ConfigError("sweep: duplicate axis '" + axis.name + "'");
    if (axis.size() == 0)
      throw ConfigError("sweep: axis '" + axis.name + "' has no values");
    switch (axis.kind) {
      case SweepAxis::Kind::kPolicy:
        ++policy_axes;
        break;
      case SweepAxis::Kind::kScenario:
        if (saw_param)
          throw ConfigError(
              "sweep: scenario axis listed after a param axis — the scenario "
              "choice would overwrite the param; list the scenario axis "
              "first");
        ++scenario_axes;
        break;
      case SweepAxis::Kind::kParam:
        saw_param = true;
        break;
      case SweepAxis::Kind::kN:
        ++n_axes;
        for (const int n : axis.n_values)
          if (n < 1)
            throw ConfigError("sweep: n axis value " + std::to_string(n) +
                              " (must be >= 1)");
        break;
    }
  }
  if (policy_axes > 1) throw ConfigError("sweep: more than one policy axis");
  if (scenario_axes > 1)
    throw ConfigError("sweep: more than one scenario axis");
  if (n_axes > 1) throw ConfigError("sweep: more than one n axis");
}

SweepRunner::SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {
  spec_.validate();

  // Normalise: an absent policy / N axis becomes an explicit single-value
  // axis (fallback_policy first, fallback_n last), so every ResultTable is
  // self-describing — each row's coordinates always name the policy and N
  // that produced it, even when the caller swept neither.  Size-1 axes do
  // not change the grid enumeration, only add a coordinate column.
  bool has_policy = false, has_n = false;
  for (const SweepAxis& axis : spec_.axes) {
    has_policy = has_policy || axis.kind == SweepAxis::Kind::kPolicy;
    has_n = has_n || axis.kind == SweepAxis::Kind::kN;
  }
  if (!has_policy) {
    SweepSpec implicit;
    implicit.policy_axis(std::vector<std::string>{spec_.fallback_policy});
    spec_.axes.insert(spec_.axes.begin(), std::move(implicit.axes.front()));
  }
  if (!has_n) spec_.n_axis({spec_.fallback_n});

  const std::size_t grid = spec_.grid_size();
  rows_.reserve(grid);
  for (std::size_t i = 0; i < grid; ++i) {
    // Mixed-radix digits of i over the axis sizes, last axis fastest
    // (row-major).
    std::vector<std::size_t> digit(spec_.axes.size(), 0);
    std::size_t rem = i;
    for (std::size_t a = spec_.axes.size(); a-- > 0;) {
      digit[a] = rem % spec_.axes[a].size();
      rem /= spec_.axes[a].size();
    }

    ScenarioConfig scenario = spec_.base;
    const PolicyChoice* policy = nullptr;  // always set: normalised above
    int n = spec_.fallback_n;
    std::vector<std::string> coords;
    coords.reserve(spec_.axes.size());
    for (std::size_t a = 0; a < spec_.axes.size(); ++a) {
      const SweepAxis& axis = spec_.axes[a];
      const std::size_t v = digit[a];
      switch (axis.kind) {
        case SweepAxis::Kind::kPolicy:
          policy = &axis.policies[v];
          break;
        case SweepAxis::Kind::kScenario:
          scenario = axis.scenarios[v].config;
          break;
        case SweepAxis::Kind::kParam:
          apply_scenario_key(scenario, axis.name, axis.values[v]);
          break;
        case SweepAxis::Kind::kN:
          n = axis.n_values[v];
          break;
      }
      coords.push_back(axis.label(v));
    }
    // Experiment's constructor validates the resolved scenario, so a bad
    // param combination fails here — before any cell simulates.
    rows_.push_back(ResolvedCell{std::move(coords), n,
                                 Experiment(scenario, policy->factory,
                                            policy->name)});
  }
}

ResultTable SweepRunner::run(std::vector<CellMetrics>* cells) const {
  const std::size_t reps = static_cast<std::size_t>(spec_.replications);
  const std::size_t total = rows_.size() * reps;

  // Phase 1 — simulate: every (row, replication) cell writes its own
  // pre-sized slot; worker scheduling can only change when a slot is
  // produced, never its value.
  std::vector<CellMetrics> grid(total);
  // Never more workers than cells: surplus threads would only spawn and
  // join (results are thread-count-invariant either way).
  sim::ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
      sim::ThreadPool::resolve_threads(spec_.threads),
      std::max<std::size_t>(total, 1))));
  // Resolved once, outside the fan-out, so cells never touch the registry
  // mutex; progress/duration recording is a few relaxed atomics per cell.
  obs::Counter* cells_done = nullptr;
  obs::Histogram* cell_ns = nullptr;
  if (obs::metrics_enabled()) {
    cells_done = &obs::Registry::instance().counter("sweep.cells_done");
    cell_ns = &obs::Registry::instance().histogram("sweep.cell_ns");
  }
  pool.parallel_for(total, [&](std::size_t cell) {
    obs::ScopedSpan span("sweep", "cell", static_cast<std::int64_t>(cell),
                         cell_ns);
    const ResolvedCell& row = rows_[cell / reps];
    const std::uint64_t r = static_cast<std::uint64_t>(cell % reps);
    grid[cell] =
        CellMetrics::from_run(row.n, r, row.experiment.run_single(row.n, r));
    if (cells_done != nullptr) cells_done->add(1);
  });

  // Phase 2 — reduce serially in (row-major, replication) order: the exact
  // SummaryStats::add sequence a nested serial loop performs (Welford
  // accumulation is order-sensitive, so the fixed order is what buys
  // bit-identical aggregates for every thread count).
  ResultTable table;
  table.axes.reserve(spec_.axes.size());
  for (const SweepAxis& axis : spec_.axes) table.axes.push_back(axis.name);
  table.replications = spec_.replications;
  table.ci_level = spec_.ci_level;
  table.rows.reserve(rows_.size());
  std::size_t cell = 0;
  for (const ResolvedCell& rc : rows_) {
    ResultRow out;
    out.coords = rc.coords;
    out.n = rc.n;
    for (std::size_t r = 0; r < reps; ++r, ++cell) {
      const CellMetrics& m = grid[cell];
      out.acceptance_percent.add(m.acceptance_percent);
      out.blocking_percent.add(100.0 - m.acceptance_percent);
      out.dropping_percent.add(m.dropping_percent);
      out.utilization_percent.add(m.utilization_percent);
      out.completion_percent.add(m.completion_percent);
    }
    table.rows.push_back(std::move(out));
  }
  if (cells != nullptr) *cells = std::move(grid);
  return table;
}

}  // namespace facsp::core
