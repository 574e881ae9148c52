// The benchmark's workloads.  Each one generates its inputs from the seed,
// measures for the configured wall-clock window and reports into `report`:
// end-to-end metrics with tracing off, per-layer metrics with tracing on.
#pragma once

#include "common.h"
#include "core/experiment.h"

namespace perfbench {

/// Report every per-layer metric as 0 with its unit.  A traced run starts
/// from this, so a layer the workload does not exercise reads 0.
void zero_layer_metrics(Report& report);

/// Median wall time of one policy-factory call (the unit of per-shard
/// engine construction) on `scen`'s network, microseconds.
double policy_build_us(const facsp::core::PolicyFactory& factory,
                       const facsp::core::ScenarioConfig& scen,
                       std::uint64_t seed);

/// Loopback socket serving of a handoff-heavy trace (open-loop rate ladder
/// plus saturation passes).
void run_socket_storm(Report& report);
/// Sequential replications of a sparse 1000-cell grid.
void run_city_sparse(Report& report);
/// policy x cells sweep of the handover storm at 4 threads.
void run_storm_sweep(Report& report);

}  // namespace perfbench
