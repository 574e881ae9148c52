// Scenario runner: drive single runs or declarative multi-axis sweeps from
// the command line — no recompilation, shareable setups, structured output.
//
//   $ ./scenario_runner --list-scenarios
//   $ ./scenario_runner --scenario bursty-onoff facs-p 60 16
//   $ ./scenario_runner --scenario paper-grid --policies facs-p,gc \
//         --sweep n=20,40,60 --sweep traffic.arrival.kind=uniform,onoff \
//         --reps 8 --threads 0 --out curves
//
// The second form runs one cell and prints per-replication metrics; the
// third runs a policy x arrival-kind x N sweep and writes curves.csv +
// curves.json (stable schema, see docs/experiments.md).  Thread count is a
// pure throughput knob: results are bit-identical for every value.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/config_io.h"
#include "core/multicell.h"
#include "core/paper.h"
#include "core/report.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/decision_loop.h"
#include "serve/trace.h"
#include "sim/stats.h"
#include "workload/catalog.h"

using namespace facsp;

namespace {

// The one place every flag is documented.  Keep this in sync with
// docs/experiments.md.
int usage(const char* argv0, FILE* dst) {
  std::fprintf(
      dst,
      "usage: %s [options] [<policy> [N [reps [threads]]]]\n"
      "\n"
      "Catalog and config inspection (print and exit):\n"
      "  --help                  this message\n"
      "  --list-scenarios        catalog names + descriptions\n"
      "  --list-policies         policy registry names\n"
      "  --list-keys             every config key a --sweep axis can set\n"
      "  --dump-default          the paper baseline as a config file\n"
      "  --dump-scenario <name>  any catalog entry as a config file\n"
      "\n"
      "Base scenario (default: the paper Sec. 4 baseline):\n"
      "  --scenario <name>       start from a catalog entry\n"
      "  --config <file>         start from a key=value config file\n"
      "  --seed <u64>            override the scenario seed (reproduce any\n"
      "                          sweep cell in isolation)\n"
      "  --cells <int>           override sim.cells: shard the world into\n"
      "                          that many super-grid cells (multi-cell\n"
      "                          engine; single runs print per-cell rows)\n"
      "  --cell-threads <int>    override sim.threads: workers draining\n"
      "                          shards in parallel, 0 = all cores (pure\n"
      "                          throughput knob, bit-identical results)\n"
      "  --workload-cells <int>  override sim.workload_cells: only the\n"
      "                          first k spiral cells offer fresh traffic\n"
      "                          (sparse grids; 0 = every cell generates)\n"
      "\n"
      "Sweep axes (any of these selects sweep mode):\n"
      "  --policies <p1,p2,...>  policy axis (see --list-policies)\n"
      "  --sweep <axis=v1,v2,..> add an axis; repeatable.  axis is 'n',\n"
      "                          'scenario', or any scenario config key,\n"
      "                          e.g. --sweep traffic.arrival.mean_on_s=30,60\n"
      "\n"
      "Execution and output:\n"
      "  --n <int>               request count when no n axis (default 60)\n"
      "  --reps <int>            replications per cell (default 8)\n"
      "  --threads <int>         worker threads, 0 = all cores (default 1);\n"
      "                          in a multi-cell single run this drives the\n"
      "                          shard workers unless --cell-threads is set\n"
      "  --out <prefix>          write <prefix>.csv and <prefix>.json\n"
      "  --trace <file>          record a Chrome trace-event JSON of the\n"
      "                          run (open in Perfetto / chrome://tracing)\n"
      "  --metrics <file>        write a metrics snapshot after the run\n"
      "                          (.csv suffix -> CSV, otherwise JSON)\n"
      "\n"
      "Decision-server traces (see docs/serving.md):\n"
      "  trace record --out <trace.csv> [--scenario ... --seed ...]\n"
      "  trace replay <trace.csv> [--policy ... --threads ...]\n"
      "  ('%s trace --help' for the full flag list)\n"
      "\n"
      "Single-run mode (no axes): positional <policy> [N [reps [threads]]]\n"
      "prints per-replication metrics, as before; the legacy\n"
      "<config-file> <policy> [N [reps [threads]]] form still works (a\n"
      "first positional that is no policy name is a config file).\n"
      "Policies: facs-p | facs-pr | facs | scc | gc | fgc | cs.\n",
      argv0, argv0);
  return dst == stderr ? 2 : 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  for (std::string& tok : core::split_fields(s, ','))
    if (!tok.empty()) out.push_back(std::move(tok));
  return out;
}

int parse_int(const std::string& v, const char* what) {
  try {
    std::size_t used = 0;
    const int x = std::stoi(v, &used);
    if (used != v.size()) throw std::invalid_argument("trailing characters");
    return x;
  } catch (const std::exception&) {
    throw ConfigError(std::string("bad ") + what + " '" + v + "'");
  }
}

std::uint64_t parse_u64(const std::string& v, const char* what) {
  // stoull silently accepts "7abc" and wraps "-1"; a seed typo must not
  // silently reproduce the wrong cell.
  try {
    if (v.empty() || v[0] == '-') throw std::invalid_argument("negative");
    std::size_t used = 0;
    const std::uint64_t x = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument("trailing characters");
    return x;
  } catch (const std::exception&) {
    throw ConfigError(std::string("bad ") + what + " '" + v + "'");
  }
}

struct SweepAxisArg {
  std::string axis;
  std::vector<std::string> values;
};

/// --trace / --metrics lifecycle shared by every subcommand: switch the
/// observability layer on before the run, flush the artifacts after.
struct ObsSession {
  std::string trace_path;
  std::string metrics_path;

  void begin() const {
    if (!metrics_path.empty()) obs::set_metrics_enabled(true);
    if (!trace_path.empty()) obs::Tracer::start();
  }
  void finish() const {
    if (!trace_path.empty()) {
      obs::Tracer::stop();
      obs::Tracer::write_json(trace_path);
      std::printf("wrote trace %s (%llu events)\n", trace_path.c_str(),
                  static_cast<unsigned long long>(
                      obs::Tracer::recorded_events()));
    }
    if (!metrics_path.empty()) {
      obs::write_snapshot(metrics_path);
      std::printf("wrote metrics %s\n", metrics_path.c_str());
    }
  }
};

struct Options {
  std::optional<std::string> scenario_name;
  std::optional<std::string> config_file;
  std::optional<std::uint64_t> seed;
  std::optional<int> cells;
  std::optional<int> cell_threads;
  std::optional<int> workload_cells;
  std::vector<std::string> policies;
  std::vector<SweepAxisArg> sweeps;
  std::optional<std::string> out;
  ObsSession obs;
  std::string policy = "facs-p";
  int n = 60;
  int reps = 8;
  /// Empty = not given (sweeps default to 1; multi-cell single runs fall
  /// back to the scenario's sim.threads).
  std::optional<int> threads;
  bool sweep_mode = false;
};

void print_single_run(const core::ResultTable& table,
                      const std::vector<core::CellMetrics>& cells,
                      const Options& opt, const std::string& scenario_label) {
  const int threads = opt.threads.value_or(1);
  std::printf("scenario: %s  policy: %s  N=%d  replications=%d  threads=%s\n\n",
              scenario_label.c_str(), opt.policy.c_str(), opt.n, opt.reps,
              threads == 0 ? "auto" : std::to_string(threads).c_str());
  for (const core::CellMetrics& cell : cells)
    std::printf("  rep %2llu: accept %5.1f%%  drop %5.2f%%  util %5.1f%%\n",
                static_cast<unsigned long long>(cell.replication),
                cell.acceptance_percent, cell.dropping_percent,
                cell.utilization_percent);
  const core::ResultRow& row = table.rows.front();
  std::printf(
      "\nmean over %d replications:\n"
      "  acceptance  %5.1f%%  ±%.1f (95%% CI)\n"
      "  dropping    %5.2f%%\n"
      "  utilization %5.1f%%\n",
      opt.reps, row.acceptance_percent.mean(),
      row.acceptance_percent.ci_half_width(), row.dropping_percent.mean(),
      row.utilization_percent.mean());
}

void print_sweep(const core::ResultTable& table) {
  std::printf("%zu cells x %d replications\n\n", table.rows.size(),
              table.replications);
  for (const std::string& axis : table.axes) std::printf("%-18s ", axis.c_str());
  std::printf("%10s %9s %8s %8s\n", "accept%", "ci", "drop%", "util%");
  for (const core::ResultRow& row : table.rows) {
    for (const std::string& coord : row.coords)
      std::printf("%-18s ", coord.c_str());
    std::printf("%10.2f ±%-8.2f %8.3f %8.2f\n",
                row.acceptance_percent.mean(),
                row.acceptance_percent.ci_half_width(table.ci_level),
                row.dropping_percent.mean(), row.utilization_percent.mean());
  }
}

// Multi-cell single run: per-replication engine runs, per-cell and
// aggregate rows (CBP = new-call blocking, CDP = handoff dropping — the
// paper's split).  --out writes the same rows as a ResultTable with a
// `cell` coordinate column ("cell0".."cellN", "all").
int run_multicell_single(const core::ScenarioConfig& base, const Options& opt,
                         const std::string& scenario_label) {
  // Same input hygiene as the sweep path (which validates via SweepSpec).
  if (opt.reps < 1) throw ConfigError("replications must be >= 1");
  if (opt.n < 1) throw ConfigError("N must be >= 1");
  const core::PolicyFactory factory = core::policy_factory_by_name(opt.policy);
  const int cells = base.multicell.cells;

  struct Row {
    std::string label;
    core::ResultRow result;
    double ho_in = 0.0, ho_out = 0.0, left = 0.0;  // mean per replication
  };
  std::vector<Row> rows(static_cast<std::size_t>(cells) + 1);
  for (int rep = 0; rep < opt.reps; ++rep) {
    core::MultiCellEngine engine(base, factory,
                                 static_cast<std::uint64_t>(rep));
    const core::MultiCellResult result = engine.run(opt.n);
    // The same per-replication derivation + reduction the sweep layer
    // performs (CellMetrics::from_run, CBP = 100 - acceptance), so this
    // table's digits match a --sweep table of the same runs exactly.
    const auto add = [&](Row& row, const core::RunResult& r) {
      const core::CellMetrics m = core::CellMetrics::from_run(
          opt.n, static_cast<std::uint64_t>(rep), r);
      row.result.acceptance_percent.add(m.acceptance_percent);
      row.result.blocking_percent.add(100.0 - m.acceptance_percent);
      row.result.dropping_percent.add(m.dropping_percent);
      row.result.utilization_percent.add(m.utilization_percent);
      row.result.completion_percent.add(m.completion_percent);
    };
    for (int k = 0; k < cells; ++k) {
      Row& row = rows[static_cast<std::size_t>(k)];
      const core::MultiCellEngine::Cell cell = engine.cell(k);
      add(row, cell.run);
      row.ho_in += static_cast<double>(cell.handoffs_in);
      row.ho_out += static_cast<double>(cell.handoffs_out);
      row.left += static_cast<double>(cell.left_world);
    }
    add(rows.back(), result.aggregate);
  }
  for (int k = 0; k < cells; ++k) {
    rows[static_cast<std::size_t>(k)].label = "cell" + std::to_string(k);
    Row& row = rows[static_cast<std::size_t>(k)];
    row.ho_in /= opt.reps;
    row.ho_out /= opt.reps;
    row.left /= opt.reps;
  }
  rows.back().label = "all";
  for (Row& row : rows) row.result.n = opt.n;

  std::printf(
      "scenario: %s  policy: %s  N=%d/cell  replications=%d  cells=%d  "
      "cell-threads=%s\n\n",
      scenario_label.c_str(), opt.policy.c_str(), opt.n, opt.reps, cells,
      base.multicell.threads == 0
          ? "auto"
          : std::to_string(base.multicell.threads).c_str());
  std::printf("%-8s %9s %8s %8s %8s %8s %8s %8s\n", "cell", "accept%",
              "CBP%", "CDP%", "util%", "ho_in", "ho_out", "left");
  for (const Row& row : rows) {
    std::printf("%-8s %9.2f %8.2f %8.2f %8.2f", row.label.c_str(),
                row.result.acceptance_percent.mean(),
                row.result.blocking_percent.mean(),
                row.result.dropping_percent.mean(),
                row.result.utilization_percent.mean());
    if (row.label == "all")
      std::printf(" %8s %8s %8s\n", "-", "-", "-");
    else
      std::printf(" %8.1f %8.1f %8.1f\n", row.ho_in, row.ho_out, row.left);
  }
  std::printf(
      "\naggregate over %d replications: accept %.2f%% ±%.2f (95%% CI), "
      "CBP %.2f%%, CDP %.2f%%\n",
      opt.reps, rows.back().result.acceptance_percent.mean(),
      rows.back().result.acceptance_percent.ci_half_width(),
      rows.back().result.blocking_percent.mean(),
      rows.back().result.dropping_percent.mean());

  if (opt.out) {
    core::ResultTable table;
    table.axes = {"policy", "cell", "n"};
    table.replications = opt.reps;
    for (Row& row : rows) {
      row.result.coords = {opt.policy, row.label, std::to_string(opt.n)};
      table.rows.push_back(std::move(row.result));
    }
    core::write_result_csv(table, *opt.out + ".csv");
    core::write_result_json(table, *opt.out + ".json");
    std::printf("\nwrote %s.csv and %s.json\n", opt.out->c_str(),
                opt.out->c_str());
  }
  return 0;
}

int run(const Options& opt) {
  // --- base scenario -------------------------------------------------------
  core::ScenarioConfig base;
  std::string scenario_label = "paper";
  if (opt.scenario_name && opt.config_file)
    throw ConfigError("--scenario and --config are mutually exclusive");
  if (opt.scenario_name) {
    scenario_label = *opt.scenario_name;
    base = workload::catalog_scenario(scenario_label);
  } else if (opt.config_file) {
    scenario_label = *opt.config_file;
    base = core::load_scenario_file(scenario_label);
  } else {
    base = core::paper_scenario();
  }
  if (opt.seed) base.seed = *opt.seed;
  if (opt.cells) base.multicell.cells = *opt.cells;
  if (opt.cell_threads) base.multicell.threads = *opt.cell_threads;
  if (opt.workload_cells) base.multicell.workload_cells = *opt.workload_cells;
  if (opt.cells || opt.cell_threads || opt.workload_cells) base.validate();

  // Multi-cell single runs surface per-cell rows via the engine directly;
  // sweeps keep aggregating (the engine runs inside every sweep cell).
  // There is no per-replication parallelism on this path, so a plain
  // --threads (or positional threads) drives the shard workers instead of
  // being silently ignored; an explicit --cell-threads still wins.
  if (!opt.sweep_mode && base.multicell.cells > 1) {
    if (!opt.cell_threads && opt.threads) {
      base.multicell.threads = *opt.threads;
      base.validate();
    }
    return run_multicell_single(base, opt, scenario_label);
  }

  // --- axes, in canonical order: policy, scenario, params, n ---------------
  core::SweepSpec spec;
  spec.base = base;
  spec.fallback_policy = opt.policy;
  spec.fallback_n = opt.n;
  spec.replications = opt.reps;
  spec.threads = opt.threads.value_or(1);

  if (!opt.policies.empty()) spec.policy_axis(opt.policies);
  for (const SweepAxisArg& s : opt.sweeps) {
    if (s.axis == "scenario") {
      auto choices = core::scenario_choices(s.values);
      if (opt.seed)
        for (auto& choice : choices) choice.config.seed = *opt.seed;
      spec.scenario_axis(std::move(choices));
    }
  }
  for (const SweepAxisArg& s : opt.sweeps)
    if (s.axis != "scenario" && s.axis != "n")
      spec.param_axis(s.axis, s.values);
  for (const SweepAxisArg& s : opt.sweeps) {
    if (s.axis == "n") {
      std::vector<int> ns;
      for (const std::string& v : s.values)
        ns.push_back(parse_int(v, "n value"));
      spec.n_axis(std::move(ns));
    }
  }

  // --- execute -------------------------------------------------------------
  const core::SweepRunner runner(std::move(spec));
  std::vector<core::CellMetrics> cells;
  const core::ResultTable table = runner.run(&cells);

  if (opt.sweep_mode)
    print_sweep(table);
  else
    print_single_run(table, cells, opt, scenario_label);

  if (opt.out) {
    core::write_result_csv(table, *opt.out + ".csv");
    core::write_result_json(table, *opt.out + ".json");
    std::printf("\nwrote %s.csv and %s.json\n", opt.out->c_str(),
                opt.out->c_str());
  }
  return 0;
}

// `trace record` / `trace replay`: capture the decision server's request
// stream to a byte-stable CSV, and feed it back through the serving loop
// (see docs/serving.md).  Kept here rather than in decision_server so one
// tool owns every scenario-driving CLI.
int run_trace(int argc, char** argv) {
  const auto trace_usage = [&](FILE* dst) {
    std::fprintf(
        dst,
        "usage: %s trace record --out <trace.csv> [options]\n"
        "       %s trace replay <trace.csv> [options]\n"
        "\n"
        "record options: --scenario <name> | --config <file>, --seed <u64>,\n"
        "  --duration <s> (default 60), --rate <req/s> (default 2000),\n"
        "  --shards <int> (default 4), --handoff-fraction <f>\n"
        "replay options: --policy <name>, --shards <int>, --threads <int>,\n"
        "  --duration <s> (default: derived from the trace),\n"
        "  --batch-window <s>, --batch-max <int>, --out <prefix>,\n"
        "  --trace <perfetto.json>, --metrics <file>\n"
        "\n"
        "Recorded traces pin the policy inputs completely (the noisy\n"
        "predicted angles are recorded, not re-drawn), so a replay's\n"
        "telemetry CSV is byte-identical across runs, machines and thread\n"
        "counts.\n",
        argv[0], argv[0]);
    return dst == stderr ? 2 : 0;
  };
  if (argc < 3) return trace_usage(stderr);
  const std::string mode = argv[2];
  if (mode == "--help" || mode == "-h") return trace_usage(stdout);
  if (mode != "record" && mode != "replay") {
    std::fprintf(stderr, "error: unknown trace subcommand '%s'\n\n",
                 mode.c_str());
    return trace_usage(stderr);
  }

  serve::ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario_label = "paper-grid";
  std::optional<std::string> out;
  std::optional<std::string> trace_path;
  ObsSession obs_session;
  bool duration_given = false;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc)
        throw ConfigError(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return trace_usage(stdout);
    if (arg == "--scenario") {
      config.scenario_label = value("--scenario");
      config.scenario = workload::catalog_scenario(config.scenario_label);
    } else if (arg == "--config") {
      config.scenario_label = value("--config");
      config.scenario = core::load_scenario_file(config.scenario_label);
    } else if (arg == "--seed")
      config.scenario.seed = parse_u64(value("--seed"), "--seed");
    else if (arg == "--duration") {
      config.duration_s = parse_int(value("--duration"), "--duration");
      duration_given = true;
    } else if (arg == "--rate")
      config.requests_per_s = parse_int(value("--rate"), "--rate");
    else if (arg == "--handoff-fraction")
      config.handoff_fraction = std::stod(value("--handoff-fraction"));
    else if (arg == "--shards")
      config.shards = parse_int(value("--shards"), "--shards");
    else if (arg == "--threads")
      config.threads = parse_int(value("--threads"), "--threads");
    else if (arg == "--policy")
      config.policy = value("--policy");
    else if (arg == "--batch-window")
      config.batch_window_s = std::stod(value("--batch-window"));
    else if (arg == "--batch-max")
      config.batch_max = parse_int(value("--batch-max"), "--batch-max");
    else if (arg == "--out")
      out = value("--out");
    else if (arg == "--trace")
      obs_session.trace_path = value("--trace");
    else if (arg == "--metrics")
      obs_session.metrics_path = value("--metrics");
    else if (arg[0] != '-' && mode == "replay" && !trace_path)
      trace_path = arg;
    else {
      std::fprintf(stderr, "error: unknown trace flag '%s'\n\n", arg.c_str());
      return trace_usage(stderr);
    }
  }

  if (mode == "record") {
    if (!out) throw ConfigError("trace record: --out <trace.csv> is required");
    const std::vector<serve::StampedRequest> trace =
        serve::record_trace(config);
    serve::write_trace_file(trace, *out);
    std::printf("recorded %zu requests (%lld s at %d req/s, seed %llu) to %s\n",
                trace.size(), static_cast<long long>(config.duration_s),
                config.requests_per_s,
                static_cast<unsigned long long>(config.scenario.seed),
                out->c_str());
    return 0;
  }

  if (!trace_path)
    throw ConfigError("trace replay: a recorded <trace.csv> is required");
  if (!duration_given) config.duration_s = 0;  // derive from the trace
  serve::DecisionServer server(config,
                               serve::read_trace_file(*trace_path));
  obs_session.begin();
  const serve::ServerResult result = server.run();
  obs_session.finish();
  const std::string prefix = out.value_or("replay");
  serve::write_telemetry_csv(result, prefix + "_telemetry.csv");
  serve::write_latency_csv(result, prefix + "_latency.csv");
  serve::write_summary_json(config, result, prefix + "_summary.json");
  serve::write_summary_json(config, result, std::cout);
  std::printf("wrote %s_telemetry.csv, %s_latency.csv, %s_summary.json\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "trace")
      return run_trace(argc, argv);
    Options opt;
    std::vector<std::string> positional;

    const auto flag_value = [&](int& i, const char* flag) -> std::string {
      if (i + 1 >= argc)
        throw ConfigError(std::string(flag) + " needs a value");
      return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") return usage(argv[0], stdout);
      if (arg == "--list-scenarios") {
        for (const auto& entry :
             workload::ScenarioCatalog::instance().entries())
          std::printf("%-14s %s\n", entry.name.c_str(),
                      entry.description.c_str());
        return 0;
      }
      if (arg == "--list-policies") {
        for (const std::string& name : core::policy_names())
          std::printf("%s\n", name.c_str());
        return 0;
      }
      if (arg == "--list-keys") {
        for (const std::string& key : core::scenario_keys())
          std::printf("%s\n", key.c_str());
        return 0;
      }
      if (arg == "--dump-default") {
        core::save_scenario(core::paper_scenario(), std::cout);
        return 0;
      }
      if (arg == "--dump-scenario") {
        core::save_scenario(
            workload::catalog_scenario(flag_value(i, "--dump-scenario")),
            std::cout);
        return 0;
      }
      if (arg == "--scenario") {
        opt.scenario_name = flag_value(i, "--scenario");
      } else if (arg == "--config") {
        opt.config_file = flag_value(i, "--config");
      } else if (arg == "--seed") {
        opt.seed = parse_u64(flag_value(i, "--seed"), "--seed");
      } else if (arg == "--cells") {
        opt.cells = parse_int(flag_value(i, "--cells"), "--cells");
      } else if (arg == "--cell-threads") {
        opt.cell_threads =
            parse_int(flag_value(i, "--cell-threads"), "--cell-threads");
      } else if (arg == "--workload-cells") {
        opt.workload_cells =
            parse_int(flag_value(i, "--workload-cells"), "--workload-cells");
      } else if (arg == "--policies") {
        if (!opt.policies.empty()) throw ConfigError("policy axis given twice");
        opt.policies = split_csv(flag_value(i, "--policies"));
        if (opt.policies.empty()) throw ConfigError("--policies is empty");
        opt.sweep_mode = true;
      } else if (arg == "--sweep") {
        const std::string value = flag_value(i, "--sweep");
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos || eq == 0)
          throw ConfigError("--sweep expects <axis=v1,v2,...>, got '" +
                            value + "'");
        SweepAxisArg axis;
        axis.axis = value.substr(0, eq);
        axis.values = split_csv(value.substr(eq + 1));
        if (axis.values.empty())
          throw ConfigError("--sweep axis '" + axis.axis + "' has no values");
        if (axis.axis == "policy") {
          if (!opt.policies.empty())
            throw ConfigError("policy axis given twice");
          opt.policies = axis.values;
        } else {
          opt.sweeps.push_back(std::move(axis));
        }
        opt.sweep_mode = true;
      } else if (arg == "--n") {
        opt.n = parse_int(flag_value(i, "--n"), "--n");
      } else if (arg == "--reps") {
        opt.reps = parse_int(flag_value(i, "--reps"), "--reps");
      } else if (arg == "--threads") {
        opt.threads = parse_int(flag_value(i, "--threads"), "--threads");
      } else if (arg == "--out") {
        opt.out = flag_value(i, "--out");
      } else if (arg == "--trace") {
        opt.obs.trace_path = flag_value(i, "--trace");
      } else if (arg == "--metrics") {
        opt.obs.metrics_path = flag_value(i, "--metrics");
      } else if (arg.size() >= 2 && arg[0] == '-' && !std::isdigit(
                     static_cast<unsigned char>(arg[1]))) {
        std::fprintf(stderr, "error: unknown flag '%s'\n\n", arg.c_str());
        return usage(argv[0], stderr);
      } else {
        positional.push_back(arg);
      }
    }

    // Positional tail: <policy> [N [reps [threads]]] (single-run style,
    // still honoured in sweep mode for the fallback policy / N).  The
    // pre-flag CLI put a config file first — keep that working: a first
    // positional that is not a registry policy name is a config file.
    std::size_t p = 0;
    if (!positional.empty() && !opt.scenario_name && !opt.config_file) {
      const std::vector<std::string> names = core::policy_names();
      if (std::find(names.begin(), names.end(), positional[0]) ==
          names.end()) {
        opt.config_file = positional[0];
        p = 1;
      }
    }
    if (positional.size() > p + 4) {
      std::fprintf(stderr, "error: too many positional arguments\n\n");
      return usage(argv[0], stderr);
    }
    if (positional.size() >= p + 1) opt.policy = positional[p];
    if (positional.size() >= p + 2)
      opt.n = parse_int(positional[p + 1], "positional N");
    if (positional.size() >= p + 3)
      opt.reps = parse_int(positional[p + 2], "positional reps");
    if (positional.size() >= p + 4)
      opt.threads = parse_int(positional[p + 3], "positional threads");

    opt.obs.begin();
    const int rc = run(opt);
    opt.obs.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
