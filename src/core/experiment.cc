#include "core/experiment.h"

#include <mutex>
#include <utility>
#include <vector>

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/guard_channel.h"
#include "cac/scc.h"
#include "common/error.h"
#include "common/expects.h"
#include "core/multicell.h"

namespace facsp::core {

CellMetrics CellMetrics::from_run(int n, std::uint64_t replication,
                                  const RunResult& run) {
  CellMetrics m;
  m.n = n;
  m.replication = replication;
  m.acceptance_percent = run.metrics.acceptance_percent();
  m.dropping_percent = 100.0 * run.metrics.dropping_probability();
  m.utilization_percent = 100.0 * run.center_utilization;
  m.completion_percent = 100.0 * run.metrics.completion_ratio();
  return m;
}

Experiment::Experiment(ScenarioConfig scenario, PolicyFactory factory,
                       std::string policy_label)
    : scenario_(scenario),
      factory_(std::move(factory)),
      label_(std::move(policy_label)) {
  scenario_.validate();
  FACSP_EXPECTS(static_cast<bool>(factory_));
}

RunResult Experiment::run_single(int n, std::uint64_t replication) const {
  // Every run — including the single-world paper run — goes through the
  // multi-cell engine.  With the default multicell.cells = 1 it builds
  // exactly one SessionDriver with the legacy seed roots ("driver" /
  // "policy" under (scenario.seed, replication)), and every session that
  // leaves the one-cell grid completes — the single-world semantics.  The
  // golden-cell tests pin the results.
  MultiCellEngine engine(scenario_, factory_, replication);
  return engine.run(n).aggregate;
}

// FACS-P's FLC1/FLC2 depend only on the config, so both FACS-P factories
// build the pair once, here, and every policy they return shares it; a
// policy's own state is its RTC/NRTC counters and inference scratch.
PolicyFactory make_facs_p_factory(cac::FacsPConfig config) {
  const cac::FacsPControllers flcs = cac::make_facs_p_controllers(config);
  return [config, flcs](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::FacsPPolicy>(config, flcs);
  };
}

PolicyFactory make_facs_pr_factory(cac::FacsPrConfig config) {
  const cac::FacsPControllers flcs =
      cac::make_facs_p_controllers(config.base);
  return [config, flcs](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::FacsPrPolicy>(config, flcs);
  };
}

// FACS's FLC2 depends only on the config, but its FLC1-D distance universe
// is the network's cell radius, which a sweep axis can vary between calls.
// So the factory builds FLC2 once and FLC1-D once per radius it meets; the
// memo is shared by every copy of the factory and may be hit from several
// sweep workers at once.
PolicyFactory make_facs_factory(cac::FacsConfig config) {
  struct Controllers {
    std::shared_ptr<const fuzzy::FuzzyController> flc2;
    std::mutex mutex;
    std::vector<
        std::pair<double, std::shared_ptr<const fuzzy::FuzzyController>>>
        flc1_by_radius;
  };
  auto flcs = std::make_shared<Controllers>();
  flcs->flc2 = cac::make_facs_flc2(config.flc2);
  return [config, flcs](const cellular::CellularNetwork& network,
                        sim::RngFactory&) {
    cac::FacsConfig cfg = config;
    if (cfg.flc1.cell_radius_m <= 0.0)
      cfg.flc1.cell_radius_m = network.layout().cell_radius();
    std::shared_ptr<const fuzzy::FuzzyController> flc1;
    {
      const std::lock_guard<std::mutex> lock(flcs->mutex);
      for (const auto& [radius, flc] : flcs->flc1_by_radius)
        if (radius == cfg.flc1.cell_radius_m) {
          flc1 = flc;
          break;
        }
      if (flc1 == nullptr) {
        flc1 = cac::make_facs_flc1(cfg.flc1);
        flcs->flc1_by_radius.emplace_back(cfg.flc1.cell_radius_m, flc1);
      }
    }
    return std::make_unique<cac::FacsPolicy>(cfg, std::move(flc1), flcs->flc2);
  };
}

PolicyFactory make_scc_factory(cac::SccConfig config) {
  return [config](const cellular::CellularNetwork& network,
                  sim::RngFactory&) {
    return std::make_unique<cac::SccPolicy>(network, config);
  };
}

PolicyFactory make_guard_channel_factory(cellular::Bandwidth guard_bu) {
  return [guard_bu](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::GuardChannelPolicy>(guard_bu);
  };
}

PolicyFactory make_fractional_guard_factory(cellular::Bandwidth guard_bu) {
  return [guard_bu](const cellular::CellularNetwork&, sim::RngFactory& rng) {
    return std::make_unique<cac::FractionalGuardChannelPolicy>(
        guard_bu, rng.stream("fgc"));
  };
}

PolicyFactory make_complete_sharing_factory() {
  return [](const cellular::CellularNetwork&, sim::RngFactory&) {
    return std::make_unique<cac::CompleteSharingPolicy>();
  };
}

namespace {

// The single policy-name table: lookup, name listing and error messages all
// derive from it, so the three can never drift apart.
struct PolicyRegistryEntry {
  const char* name;
  PolicyFactory (*make)();
};

constexpr PolicyRegistryEntry kPolicyRegistry[] = {
    {"facs-p", [] { return make_facs_p_factory(); }},
    {"facs-pr", [] { return make_facs_pr_factory(); }},
    {"facs", [] { return make_facs_factory(); }},
    {"scc", [] { return make_scc_factory(); }},
    {"gc", [] { return make_guard_channel_factory(8.0); }},
    {"fgc", [] { return make_fractional_guard_factory(8.0); }},
    {"cs", [] { return make_complete_sharing_factory(); }},
};

}  // namespace

PolicyFactory policy_factory_by_name(std::string_view name) {
  for (const PolicyRegistryEntry& entry : kPolicyRegistry)
    if (name == entry.name) return entry.make();
  std::string valid;
  for (const PolicyRegistryEntry& entry : kPolicyRegistry) {
    if (!valid.empty()) valid += '|';
    valid += entry.name;
  }
  throw ConfigError("unknown policy '" + std::string(name) + "' (" + valid +
                    ")");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const PolicyRegistryEntry& entry : kPolicyRegistry)
    names.emplace_back(entry.name);
  return names;
}

}  // namespace facsp::core
