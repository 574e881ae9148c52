// Scenario configuration: everything one simulation run depends on.
// Defaults reproduce the paper's Sec. 4 setup.
#pragma once

#include <cstdint>

#include "cellular/mobility.h"
#include "cellular/service.h"
#include "cellular/traffic.h"
#include "workload/spatial.h"

namespace facsp::core {

/// Multi-cell sharding (core/multicell.h): the scenario's world is
/// replicated into `cells` shards laid out on a super hex grid, each shard
/// owning its own SessionDriver / policy / RNG streams, with explicit
/// inter-cell handovers routed between neighbouring shards at epoch
/// boundaries.  `cells = 1` is exactly the single-world simulation the
/// paper measures (bit-for-bit: the engine degenerates to one SessionDriver
/// with the legacy seed roots).
struct MultiCellConfig {
  /// Number of shards.  Shards occupy the first `cells` coordinates of the
  /// hex-disc spiral; 1 + 3r(r+1) fills r super-rings (7 = ring 1, 19 = ring 2).
  int cells = 1;
  /// Drain quantum: every shard advances its event queue `epoch_s` seconds,
  /// then inter-cell handovers are exchanged at the barrier.  Also the upper
  /// bound on handover delivery latency (departures collected during an
  /// epoch are delivered at its end).
  double epoch_s = 5.0;
  /// Sparse traffic: number of spiral cells (centre-out) that generate
  /// their own new-call workload.  0 means every cell generates (the
  /// historical behaviour); k > 0 restricts generation to cells 0..k-1 —
  /// the remaining shards only ever serve inbound handovers, which is what
  /// makes city-scale grids mostly idle and the event-driven scheduler
  /// worthwhile.
  int workload_cells = 0;
  /// Where an inbound handover re-materialises in the destination shard: at
  /// `entry_fraction * cell_radius` behind the centre BS along the travel
  /// direction.  Must stay below the hex inradius ratio (sqrt(3)/2 ~ 0.866)
  /// so the entry point is always inside the centre cell.
  double entry_fraction = 0.8;
  /// Worker threads draining shards in parallel (0 = hardware concurrency;
  /// at most sim::ThreadPool::kMaxThreads; never more than cells).  A pure
  /// throughput knob: results are bit-identical for every value.
  int threads = 1;

  /// Throws facsp::ConfigError on invalid values.
  void validate() const;
};

/// Full description of the simulated world and workload.
struct ScenarioConfig {
  // --- topology -----------------------------------------------------------
  /// Rings of cells around the centre cell (1 -> 7 cells).  The paper's
  /// figures are measured on the centre cell; neighbours exist so handoffs
  /// and SCC shadows have somewhere to go.
  int rings = 1;
  double cell_radius_m = 2000.0;
  /// Paper: "the bandwidth of the BS was considered 40 BU".
  cellular::Bandwidth capacity_bu = 40.0;

  // --- workload ------------------------------------------------------------
  cellular::TrafficConfig traffic{};
  /// Where requests are generated over the grid.  Each cell's request count
  /// is `weight * N` with the weight from this map; the headline metrics are
  /// always measured on centre-cell requests.  Default (center): only the
  /// centre generates — the paper's single-BS measurement.  `uniform`
  /// reproduces the old background_traffic=true behaviour; `hotspot` and
  /// `highway` shape the surrounding load (see docs/workloads.md).
  workload::SpatialSpec spatial{};

  // --- mobility ------------------------------------------------------------
  bool enable_mobility = true;
  cellular::MobilityConfig mobility{};
  cellular::DirectionPredictor::Config predictor{};
  /// Mobility update / cell-boundary check period (seconds).
  double mobility_update_s = 5.0;

  // --- multi-cell sharding -------------------------------------------------
  /// Config keys `sim.*`.  With the default (1 cell) the multi-cell engine
  /// reproduces this scenario's single-world run bit-for-bit.
  MultiCellConfig multicell{};

  // --- control -------------------------------------------------------------
  /// Hard stop; runs normally end earlier (when every call finished).
  double horizon_s = 24.0 * 3600.0;
  std::uint64_t seed = 42;

  /// Throws facsp::ConfigError on invalid values.
  void validate() const;
};

}  // namespace facsp::core
