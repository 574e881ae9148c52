// The simulation workloads: the same multi-cell engine driven two opposite
// ways.
//
//   city-sparse — a 1000-cell grid where only the centre cell generates
//     traffic, replicated sequentially.  Most of the wall time is engine
//     and policy construction; the decision path barely runs.
//   storm-sweep — policy {facs-p, facs, scc} x sim.cells {7, 19} on the
//     handover storm through core::SweepRunner at 4 threads.  Every shard
//     is busy: drains, barriers and decide_batch dominate.
//
// On city-sparse one "request" is one replication (engine build + run) and
// latency_* are replication wall times; on storm-sweep it is one sweep job.
// max_rate_rps is replications completed per wall second of the timed job,
// and decisions_per_s counts the engine's admission decisions (new calls
// plus handoff attempts) per wall second of the job.
#include <sstream>

#include "cellular/network.h"
#include "cellular/traffic.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "core/multicell.h"
#include "core/report.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "workload/catalog.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"fuzzy.flc1_ns", "ns"},
    {"fuzzy.flc2_ns", "ns"},
    {"fuzzy.batch_ns_per_item", "ns"},
    {"fuzzy.policy_build_us", "us"},
    {"cac.decide_ns", "ns"},
    {"cac.decide_batch_ns_per_item", "ns"},
    {"cac.admitted_ratio", "ratio"},
    {"serve.process_batch_ns_per_item", "ns"},
    {"serve.finish_second_us", "us"},
    {"serve.batch_fill", "ratio"},
    {"serve.replay_decisions_per_s", "1/s"},
    {"serve.trace_read_ns_per_row", "ns"},
    {"net.decode_ns", "ns"},
    {"net.encode_ns", "ns"},
    {"net.submit_ns_per_req", "ns"},
    {"net.loop_residual_ns_per_req", "ns"},
    {"net.shed", "count"},
    {"net.error_frames", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.syscalls_per_req", "count"},
    {"core.engine_build_ms", "ms"},
    {"core.engine_run_ms", "ms"},
    {"core.epochs", "count"},
    {"core.shards_drained", "count"},
    {"core.drains_per_epoch", "ratio"},
    {"core.handover_admitted_ratio", "ratio"},
    {"sweep.cell_ms", "ms"},
    {"sweep.parallel_efficiency", "ratio"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"workload.generate_ns_per_req", "ns"},
    {"obs.on_off_ratio", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

}  // namespace

void zero_layer_metrics(Report& report) {
  for (const LayerMetric& m : kLayerMetrics) report.add(m.name, m.unit, 0.0, 0);
}

double policy_build_us(const facsp::core::PolicyFactory& factory,
                       const facsp::core::ScenarioConfig& scen,
                       std::uint64_t seed) {
  facsp::cellular::CellularNetwork net(scen.rings, scen.cell_radius_m,
                                       scen.capacity_bu);
  facsp::sim::RngFactory rng(seed);
  std::vector<double> us;
  for (int k = 0; k < 21; ++k) {
    Timed t("fuzzy/policy_build");
    auto p = factory(net, rng);
    us.push_back(t.elapsed_s() * 1e6);
  }
  return median(us);
}


namespace {

using namespace facsp;

constexpr int kSetups = 7;

/// One replication, built and run by hand so build and run time separate,
/// with the conservation invariants checked at every barrier.
struct Replication {
  double build_s = 0, run_s = 0;
  std::uint64_t decisions = 0, events = 0, epochs = 0;
  std::uint64_t delivered = 0, handover_admitted = 0;
  bool conserved = true;
  core::RunResult aggregate;
};

Replication replicate(const core::ScenarioConfig& scen,
                      const core::PolicyFactory& factory, std::uint64_t rep,
                      int n) {
  Replication out;
  double t = now_s();
  std::unique_ptr<core::MultiCellEngine> engine;
  {
    Timed span("core/engine_build", static_cast<std::int64_t>(rep));
    engine = std::make_unique<core::MultiCellEngine>(scen, factory, rep);
  }
  out.build_s = now_s() - t;
  engine->set_epoch_observer(
      [&out](const core::MultiCellEngine::EpochStats& es) {
        ++out.epochs;
        out.delivered += es.delivered;
        out.handover_admitted += es.admitted;
        out.conserved = out.conserved &&
                        es.delivered + es.left_world == es.departures &&
                        es.admitted + es.dropped == es.delivered &&
                        es.routes.size() == es.departures;
      });
  t = now_s();
  {
    Timed span("core/engine_run", static_cast<std::int64_t>(rep));
    out.aggregate = engine->run(n).aggregate;
  }
  out.run_s = now_s() - t;
  out.decisions = out.aggregate.metrics.offered_new() +
                  out.aggregate.metrics.handoff_attempts();
  out.events = out.aggregate.events;
  return out;
}

bool same_run(const core::RunResult& a, const core::RunResult& b) {
  return a.events == b.events && a.duration_s == b.duration_s &&
         a.center_utilization == b.center_utilization &&
         a.metrics.offered_new() == b.metrics.offered_new() &&
         a.metrics.accepted_new() == b.metrics.accepted_new() &&
         a.metrics.handoff_attempts() == b.metrics.handoff_attempts() &&
         a.metrics.handoff_successes() == b.metrics.handoff_successes() &&
         a.metrics.dropped() == b.metrics.dropped() &&
         a.metrics.completed() == b.metrics.completed();
}

std::uint64_t shards_drained() {
  return obs::Registry::instance().counter("engine.shards_drained").value();
}

double generate_ns_per_req(const core::ScenarioConfig& scen, int n,
                           std::uint64_t seed) {
  cellular::CellularNetwork net(scen.rings, scen.cell_radius_m,
                                scen.capacity_bu);
  std::vector<double> ns;
  for (int k = 0; k < 15; ++k) {
    cellular::TrafficGenerator gen(scen.traffic, net.layout(),
                                   cellular::HexCoord{0, 0},
                                   net.center().position(),
                                   sim::RandomStream(seed + k), 1);
    Timed t("workload/generate", n);
    const auto reqs = gen.generate(n);
    ns.push_back(t.elapsed_s() * 1e9 / static_cast<double>(reqs.size()));
  }
  return median(ns);
}

/// Replication latencies, one vector per round (job).  Like socket-storm's
/// per-pass percentiles, each percentile is taken per round and the median
/// over rounds is reported: a few seconds of a slower host then move one
/// round's value, not the run's.  The sample count is every replication.
void add_latencies(Report& report,
                   const std::vector<std::vector<double>>& rounds_us) {
  std::vector<double> p50, p99;
  std::uint64_t samples = 0;
  for (const std::vector<double>& r : rounds_us) {
    p50.push_back(quantile(r, 0.5));
    p99.push_back(quantile(r, 0.99));
    samples += r.size();
  }
  report.add("latency_p50_us", "us", median(p50), samples, rel_spread(p50));
  report.add("latency_p99_us", "us", median(p99), samples, rel_spread(p99));
}

// --- city-sparse -----------------------------------------------------------

constexpr int kSparseN = 60;

core::ScenarioConfig sparse_scenario(std::uint64_t seed, bool smoke) {
  core::ScenarioConfig s =
      workload::catalog_scenario("multicell-handover-storm");
  core::apply_scenario_key(s, "sim.cells", smoke ? "100" : "1000");
  core::apply_scenario_key(s, "sim.workload_cells", "1");
  s.seed = seed;
  s.validate();
  return s;
}

struct SparseJob {
  double wall_s = 0, build_s = 0, run_s = 0;
  std::uint64_t decisions = 0, events = 0, epochs = 0;
  std::uint64_t delivered = 0, handover_admitted = 0;
  std::vector<double> lat_us;
};

}  // namespace

void run_city_sparse(Report& report) {
  const Options& opt = report.options();
  const int reps = opt.smoke ? 2 : 32;
  const double t_start = now_s();

  std::vector<double> setups;
  core::ScenarioConfig scen;
  core::PolicyFactory factory;
  for (int k = 0; k < kSetups; ++k) {
    Timed span("bench/setup");
    const double t0 = k == 0 ? t_start : now_s();
    scen = sparse_scenario(opt.seed, opt.smoke);
    factory = core::policy_factory_by_name("facs-p");
    (void)replicate(scen, factory, 0, kSparseN);  // warm-up
    setups.push_back(now_s() - t0);
  }
  report.note("grid " + std::to_string(scen.multicell.cells) +
              " cells, workload_cells 1, facs-p, N " +
              std::to_string(kSparseN) + ", " + std::to_string(reps) +
              " sequential replications per job");

  std::vector<core::RunResult> reference;
  auto job = [&]() {
    SparseJob j;
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r) {
      const Replication rep =
          replicate(scen, factory, static_cast<std::uint64_t>(r), kSparseN);
      j.build_s += rep.build_s;
      j.run_s += rep.run_s;
      j.decisions += rep.decisions;
      j.events += rep.events;
      j.epochs += rep.epochs;
      j.delivered += rep.delivered;
      j.handover_admitted += rep.handover_admitted;
      j.lat_us.push_back((rep.build_s + rep.run_s) * 1e6);
      report.attempted(1);
      report.check(rep.conserved, "handover conservation broken in replication " +
                                      std::to_string(r));
      if (reference.size() < static_cast<std::size_t>(reps)) {
        reference.push_back(rep.aggregate);
      } else {
        report.check(same_run(reference[static_cast<std::size_t>(r)],
                              rep.aggregate),
                     "replication " + std::to_string(r) +
                         " differs between jobs");
      }
    }
    j.wall_s = now_s() - t0;
    return j;
  };

  // Shard drains stay under cells x epochs / 10 (the engine must not sweep
  // the grid); the drain counter counts only while metrics are on.
  auto drain_check = [&]() {
    const bool was = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
    const std::uint64_t d0 = shards_drained();
    const Replication rep = replicate(scen, factory, 0, kSparseN);
    const std::uint64_t drained = shards_drained() - d0;
    obs::set_metrics_enabled(was);
    report.check(drained * 10 <= static_cast<std::uint64_t>(
                                     scen.multicell.cells) * rep.epochs,
                 "drained " + std::to_string(drained) + " shards over " +
                     std::to_string(rep.epochs) + " epochs");
  };

  if (!opt.trace) {
    // Jobs fill the window; a job that would not fit in it is not started.
    std::vector<double> walls, dps, rates;
    std::vector<std::vector<double>> lat_us;
    const double t_measure = now_s();
    do {
      const SparseJob j = job();
      walls.push_back(j.wall_s);
      dps.push_back(static_cast<double>(j.decisions) / j.wall_s);
      rates.push_back(reps / j.wall_s);
      lat_us.push_back(j.lat_us);
    } while (now_s() - t_measure + walls.back() <= opt.seconds);
    drain_check();
    report.add_samples("decisions_per_s", "1/s", dps);
    add_latencies(report, lat_us);
    report.add_samples("max_rate_rps", "1/s", rates);
    report.add_samples("run_s", "s", walls);
    report.add_samples("setup_s", "s", setups);
    report.add("peak_rss_mb", "MiB", peak_rss_mb());
    return;
  }

  zero_layer_metrics(report);
  std::vector<double> plain;
  for (int k = 0; k < 3; ++k) plain.push_back(job().wall_s);

  obs::Tracer::start(kTraceRing);
  obs::Tracer::set_thread_name("perfbench-main");
  obs::set_metrics_enabled(true);
  std::vector<double> walls, build_ms, run_ms, epochs, drained, events,
      events_s, ho_ratio;
  const double t_measure = now_s();
  do {
    const std::uint64_t d0 = shards_drained();
    const SparseJob j = job();
    walls.push_back(j.wall_s);
    build_ms.push_back(j.build_s * 1e3);
    run_ms.push_back(j.run_s * 1e3);
    epochs.push_back(static_cast<double>(j.epochs));
    drained.push_back(static_cast<double>(shards_drained() - d0));
    events.push_back(static_cast<double>(j.events));
    events_s.push_back(static_cast<double>(j.events) / j.run_s);
    ho_ratio.push_back(j.delivered == 0 ? 0.0
                                        : static_cast<double>(j.handover_admitted) /
                                              static_cast<double>(j.delivered));
  } while (now_s() - t_measure < opt.seconds / 2);
  drain_check();

  report.add_samples("core.engine_build_ms", "ms", build_ms);
  report.add_samples("core.engine_run_ms", "ms", run_ms);
  report.add_samples("core.epochs", "count", epochs);
  report.add_samples("core.shards_drained", "count", drained);
  report.add("core.drains_per_epoch", "ratio", median(drained) / median(epochs));
  report.add_samples("core.handover_admitted_ratio", "ratio", ho_ratio);
  report.add_samples("sim.events", "count", events);
  report.add_samples("sim.events_per_s", "1/s", events_s);
  report.add("fuzzy.policy_build_us", "us",
             policy_build_us(factory, scen, opt.seed), 21);
  report.add("workload.generate_ns_per_req", "ns",
             generate_ns_per_req(scen, kSparseN, opt.seed), 15);
  report.add("bench.trace_overhead", "ratio", median(walls) / median(plain) - 1.0);
  report.note("job: build " + std::to_string(median(build_ms)) + " ms + run " +
              std::to_string(median(run_ms)) + " ms of " +
              std::to_string(median(walls) * 1e3) + " ms wall");
  obs::set_metrics_enabled(false);
  flush_spans();
  obs::Tracer::stop();
}

// --- storm-sweep -------------------------------------------------------------

namespace {

constexpr int kStormN = 100;

core::SweepSpec storm_spec(std::uint64_t seed, bool smoke, int threads) {
  core::SweepSpec spec;
  spec.base = workload::catalog_scenario("multicell-handover-storm");
  spec.base.seed = seed;
  spec.policy_axis({"facs-p", "facs", "scc"});
  spec.param_axis("sim.cells", {"7", "19"});
  spec.n_axis({kStormN});
  spec.replications = smoke ? 1 : 8;
  spec.threads = threads;
  return spec;
}

std::string table_csv(const core::ResultTable& t) {
  std::ostringstream os;
  core::write_result_csv(t, os);
  return os.str();
}

bool same_cells(const std::vector<core::CellMetrics>& a,
                const std::vector<core::CellMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].n != b[i].n || a[i].replication != b[i].replication ||
        a[i].acceptance_percent != b[i].acceptance_percent ||
        a[i].dropping_percent != b[i].dropping_percent ||
        a[i].utilization_percent != b[i].utilization_percent ||
        a[i].completion_percent != b[i].completion_percent)
      return false;
  }
  return true;
}

/// Every sweep cell re-run by hand, serially, in the sweep's row-major
/// order: decision and event counts, the build/run split, and the sweep's
/// raw cells to compare against.
struct DirectPass {
  std::vector<core::CellMetrics> cells;
  double build_s = 0, run_s = 0;
  std::uint64_t decisions = 0, events = 0, epochs = 0;
  std::uint64_t delivered = 0, handover_admitted = 0;
  bool conserved = true;
};

DirectPass direct_pass(const core::SweepSpec& spec) {
  DirectPass d;
  for (const char* policy : {"facs-p", "facs", "scc"}) {
    const core::PolicyFactory factory = core::policy_factory_by_name(policy);
    for (const char* cells : {"7", "19"}) {
      core::ScenarioConfig scen = spec.base;
      core::apply_scenario_key(scen, "sim.cells", cells);
      scen.validate();
      for (int r = 0; r < spec.replications; ++r) {
        const Replication rep =
            replicate(scen, factory, static_cast<std::uint64_t>(r), kStormN);
        d.cells.push_back(core::CellMetrics::from_run(
            kStormN, static_cast<std::uint64_t>(r), rep.aggregate));
        d.build_s += rep.build_s;
        d.run_s += rep.run_s;
        d.decisions += rep.decisions;
        d.events += rep.events;
        d.epochs += rep.epochs;
        d.delivered += rep.delivered;
        d.handover_admitted += rep.handover_admitted;
        d.conserved = d.conserved && rep.conserved;
      }
    }
  }
  return d;
}

}  // namespace

void run_storm_sweep(Report& report) {
  const Options& opt = report.options();
  const double t_start = now_s();
  std::vector<double> setups;
  std::unique_ptr<core::SweepRunner> runner;
  for (int k = 0; k < kSetups; ++k) {
    Timed span("bench/setup");
    const double t0 = k == 0 ? t_start : now_s();
    runner = std::make_unique<core::SweepRunner>(storm_spec(opt.seed, opt.smoke, 4));
    // Warm-up: one replication of every configuration of the grid.
    for (const char* policy : {"facs-p", "facs", "scc"}) {
      for (const char* cells : {"7", "19"}) {
        core::ScenarioConfig scen = runner->spec().base;
        core::apply_scenario_key(scen, "sim.cells", cells);
        (void)replicate(scen, core::policy_factory_by_name(policy), 0, kStormN);
      }
    }
    setups.push_back(now_s() - t0);
  }
  const core::SweepSpec& spec = runner->spec();
  const double cells = static_cast<double>(runner->cell_count());
  report.note("sweep: policy {facs-p, facs, scc} x sim.cells {7, 19}, N " +
              std::to_string(kStormN) + ", " +
              std::to_string(spec.replications) +
              " replications, 4 threads (" + std::to_string(runner->cell_count()) +
              " simulations per job)");

  std::string reference_csv;
  std::vector<core::CellMetrics> reference_cells;
  auto sweep_job = [&](const core::SweepRunner& r, const char* what) {
    std::vector<core::CellMetrics> raw;
    const double t0 = now_s();
    core::ResultTable table;
    {
      Timed span("sweep/run", static_cast<std::int64_t>(r.cell_count()));
      table = r.run(&raw);
    }
    const double wall = now_s() - t0;
    report.attempted(r.cell_count());
    const std::string csv = table_csv(table);
    if (reference_csv.empty()) {
      reference_csv = csv;
      reference_cells = raw;
    } else {
      report.check(csv == reference_csv,
                   std::string(what) + ": ResultTable differs from the first job");
      report.check(same_cells(raw, reference_cells),
                   std::string(what) + ": raw cells differ from the first job");
    }
    return wall;
  };
  auto check_direct = [&](const DirectPass& d) {
    report.check(d.conserved, "handover conservation broken in a direct run");
    report.check(same_cells(d.cells, reference_cells),
                 "hand-driven engines disagree with the sweep's cells");
  };

  if (!opt.trace) {
    // A sweep user waits for the whole sweep: here the request is one job,
    // and latency_* are percentiles of the job walls.  Jobs fill the window;
    // a job that would not fit in it is not started.
    std::vector<double> walls;
    const double t_measure = now_s();
    do {
      walls.push_back(sweep_job(*runner, "sweep job"));
    } while (now_s() - t_measure + walls.back() <= opt.seconds);
    // After the window: every sweep cell again by hand, for the checks and
    // the job's decision count.
    const DirectPass d = direct_pass(spec);
    check_direct(d);
    std::vector<double> dps, rates, wall_us;
    for (const double wall : walls) {
      dps.push_back(static_cast<double>(d.decisions) / wall);
      rates.push_back(cells / wall);
      wall_us.push_back(wall * 1e6);
    }
    report.add_samples("decisions_per_s", "1/s", dps);
    add_latencies(report, {wall_us});
    report.add_samples("max_rate_rps", "1/s", rates);
    report.add_samples("run_s", "s", walls);
    report.add_samples("setup_s", "s", setups);
    report.add("peak_rss_mb", "MiB", peak_rss_mb());
    return;
  }

  zero_layer_metrics(report);
  std::vector<double> plain;
  for (int k = 0; k < 3; ++k) plain.push_back(sweep_job(*runner, "untraced sweep job"));

  obs::Tracer::start(kTraceRing);
  obs::Tracer::set_thread_name("perfbench-main");
  obs::set_metrics_enabled(true);
  // Three traced 4-thread jobs: every job starts a fresh pool, and every
  // pool thread gets its own trace ring.
  std::vector<double> t4;
  for (int k = 0; k < 3; ++k) t4.push_back(sweep_job(*runner, "traced sweep job"));
  const core::SweepRunner serial(storm_spec(opt.seed, opt.smoke, 1));
  std::vector<double> t1;
  for (int k = 0; k < 2; ++k) t1.push_back(sweep_job(serial, "traced 1-thread sweep job"));

  const std::uint64_t d0 = shards_drained();
  const DirectPass d = direct_pass(spec);
  const double drained = static_cast<double>(shards_drained() - d0);
  check_direct(d);

  report.add("core.engine_build_ms", "ms", d.build_s * 1e3, d.cells.size());
  report.add("core.engine_run_ms", "ms", d.run_s * 1e3, d.cells.size());
  report.add("core.epochs", "count", static_cast<double>(d.epochs));
  report.add("core.shards_drained", "count", drained);
  report.add("core.drains_per_epoch", "ratio",
             drained / static_cast<double>(d.epochs));
  report.add("core.handover_admitted_ratio", "ratio",
             static_cast<double>(d.handover_admitted) /
                 static_cast<double>(d.delivered));
  report.add("sweep.cell_ms", "ms", median(t1) * 1e3 / cells, t1.size());
  report.add("sweep.parallel_efficiency", "ratio",
             median(t1) / (4.0 * median(t4)), t1.size());
  report.add("sim.events", "count", static_cast<double>(d.events));
  report.add("sim.events_per_s", "1/s", static_cast<double>(d.events) / d.run_s);
  core::ScenarioConfig scen19 = spec.base;
  core::apply_scenario_key(scen19, "sim.cells", "19");
  report.add("fuzzy.policy_build_us", "us",
             policy_build_us(core::policy_factory_by_name("facs-p"), scen19,
                             opt.seed),
             21);
  report.add("workload.generate_ns_per_req", "ns",
             generate_ns_per_req(scen19, kStormN, opt.seed), 15);
  report.add("bench.trace_overhead", "ratio", median(t4) / median(plain) - 1.0);
  report.note("direct pass: build " + std::to_string(d.build_s * 1e3) +
              " ms + run " + std::to_string(d.run_s * 1e3) + " ms over " +
              std::to_string(d.cells.size()) + " replications");
  obs::set_metrics_enabled(false);
  flush_spans();
  obs::Tracer::stop();
}

}  // namespace perfbench
