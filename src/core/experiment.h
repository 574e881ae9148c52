// Experiment harness: one simulated (N, replication) cell for any admission
// policy, the per-cell metrics a sweep reduces, and the canonical policy
// factories (PolicyFactory and its thread-safety contract live in
// core/session.h).  Replicated sweeps run through SweepRunner
// (core/sweep.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/facs_pr.h"
#include "cac/policy.h"
#include "cac/scc.h"
#include "cellular/network.h"
#include "core/scenario.h"
#include "core/session.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace facsp::core {

/// Scalar metrics of one (n, replication) run, in the units the sweep
/// aggregates (percentages).  The single definition of "which numbers a
/// sweep reduces": SweepRunner::run (core/sweep.h) extracts every cell with
/// from_run() and performs the one reduction.
struct CellMetrics {
  int n = 0;
  std::uint64_t replication = 0;
  double acceptance_percent = 0.0;
  double dropping_percent = 0.0;
  double utilization_percent = 0.0;
  double completion_percent = 0.0;

  static CellMetrics from_run(int n, std::uint64_t replication,
                              const RunResult& run);
};

/// One resolved (scenario, policy) pair.  Policies are compared under common
/// random numbers: replication r uses the same workload for every policy.
class Experiment {
 public:
  Experiment(ScenarioConfig scenario, PolicyFactory factory,
             std::string policy_label);

  /// Run a single (N, replication) cell — used by tests, examples and
  /// SweepRunner.  Every piece of per-run state (driver, network, RNG
  /// streams, policy, inference scratch) is built locally, so concurrent
  /// calls from different threads are safe given the PolicyFactory contract
  /// (core/session.h).
  RunResult run_single(int n, std::uint64_t replication) const;

  const std::string& policy_label() const noexcept { return label_; }

 private:
  ScenarioConfig scenario_;
  PolicyFactory factory_;
  std::string label_;
};

// --- canonical policy factories ------------------------------------------

PolicyFactory make_facs_p_factory(cac::FacsPConfig config = {});
PolicyFactory make_facs_pr_factory(cac::FacsPrConfig config = {});
PolicyFactory make_facs_factory(cac::FacsConfig config = {});
PolicyFactory make_scc_factory(cac::SccConfig config = {});
PolicyFactory make_guard_channel_factory(cellular::Bandwidth guard_bu);
PolicyFactory make_fractional_guard_factory(cellular::Bandwidth guard_bu);
PolicyFactory make_complete_sharing_factory();

/// Name-keyed policy registry, shared by the sweep layer and every CLI:
/// facs-p | facs-pr | facs | scc | gc | fgc | cs (guard policies use the
/// paper's 8 BU reservation).  Throws facsp::ConfigError on unknown names,
/// listing the valid ones.
PolicyFactory policy_factory_by_name(std::string_view name);
/// The registry's names, in canonical order.
std::vector<std::string> policy_names();

}  // namespace facsp::core
