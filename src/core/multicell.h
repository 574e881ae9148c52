// Multi-cell sharded simulation — the one driver loop every replication
// runs through: the scenario's world replicated into C shards on a super
// hex grid, one SessionDriver (which owns its admission policy) +
// RNG-stream family per shard, driven in bulk-synchronous epochs over a
// sim::ThreadPool with explicit inter-cell handovers exchanged at the
// epoch barriers.  With C = 1 it is the paper's single-world run.
//
// Execution model (event-driven since PR 10)
//
//   while any shard has pending events:
//     schedule:  the engine keeps an incrementally maintained index of
//                *active* shards (those with pending events).  Epochs whose
//                window provably contains no event anywhere are skipped —
//                the clock fast-forwards boundary by boundary to the one
//                holding the earliest event, without touching a shard;
//     parallel:  only shards with an event <= t_end drain their own event
//                queues; each driver collects the sessions that crossed its
//                service-area boundary in its own departure list (no shared
//                state is touched).  Shards woken mid-epoch by an inbound
//                handover join the *next* drain, preserving barrier
//                semantics;
//     barrier:   departures are routed serially in fixed (cell, event)
//                order to the hex neighbour matching the exit heading —
//                or complete if they fall off the super-grid edge — and
//                each destination cell's pending arrivals are coalesced
//                into ONE cac::AdmissionPolicy::decide_batch call against
//                its centre base station (the zero-allocation batch path
//                carrying real traffic).  Admitted sessions re-materialise
//                in the destination at the epoch boundary; rejected or
//                over-admitted ones are dropped (handoff failure).
//
// Epoch cost is therefore proportional to ACTIVE shards, not grid size: a
// 1000-cell grid with one busy neighbourhood drains a handful of shards per
// epoch and fast-forwards through quiet stretches (ctest-enforced via the
// engine.shards_drained counter).  Skipping is provably a no-op: a drain of
// a shard with no event <= t_end fires nothing and records nothing, so
// results are bit-identical to the bulk-synchronous engine — same epoch
// boundaries (the fast-forward replays the same repeated `t + epoch_s`
// additions), same delivery timestamps, same RNG draws.
//
// Construction cost follows activity too: the constructor lays out the
// spiral's coordinates and empty shard slots and nothing else per cell — a
// neighbour's index is the closed-form inverse of the spiral walk, so
// there is no grid hash.  A shard's driver and policy are built only when
// it first has work — at run() for the generating cells, at the barrier
// that first delivers a handover to it otherwise (engine.shards_built).  A
// build touches only the shard's own state, seeded from its cell id, so
// build order cannot change a result; a shard never built reports
// SessionDriver::idle_result() through cell().
//
// The barrier epilogue re-reads only the shards it drained or delivered to
// and moves running network-wide totals by their change, and the reduce
// merges only built shards into the aggregate; per-cell rows are read on
// demand through cell().  So a barrier costs O(shards touched) and a
// replication O(built shards), observer attached or not.
//
// Determinism: the parallel phase is share-nothing (each shard owns its
// driver, policy state, scratch and RNG streams — policies may share
// immutable controllers — seeded from
// hash_seed(seed, "cell", cell_id) — cell 0 keeps the legacy roots), and
// the barrier phase is serial in a fixed order (ascending cell id over the
// drain list), so results are bit-identical for every thread count.  With
// cells = 1 every departure falls off the grid's edge and completes: the
// single-world run, pinned by the golden paper-grid cells.
//
// See docs/experiments.md ("Multi-cell sharding") for the full argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cac/policy.h"
#include "cellular/hexgrid.h"
#include "core/scenario.h"
#include "core/session.h"

namespace facsp::core {

/// Outcome of one multi-cell replication: the network-wide aggregate
/// (merged counters — CBP from the new-call counter, CDP from the handoff
/// counter, exactly the paper's split).  Per-cell rows come from
/// MultiCellEngine::cell().
struct MultiCellResult {
  /// Merged view in RunResult form: counters summed across built shards in
  /// ascending cell order, utilization averaged over every cell, duration =
  /// max (the idle floor included when any shard was never built), events
  /// summed.  For cells = 1 this is the single-world RunResult.
  RunResult aggregate;
};

/// Executes one replication of a ScenarioConfig whose `multicell.cells`
/// shards form the super grid.  Constructed per (scenario, replication).
class MultiCellEngine {
 public:
  /// Lays out the grid and its routing tables only; shards are built on
  /// first use, each driver calling `factory` (kept by copy) once.
  MultiCellEngine(const ScenarioConfig& scenario, PolicyFactory factory,
                  std::uint64_t replication);

  /// One barrier's accounting, handed to the epoch observer (conservation
  /// property tests).  delivered + left_world == departures and
  /// admitted + dropped == delivered at every epoch.
  struct EpochStats {
    sim::SimTime t_end = 0.0;
    std::uint64_t departures = 0;  ///< departures collected this drain
    std::uint64_t delivered = 0;   ///< routed to an in-grid neighbour
    std::uint64_t left_world = 0;  ///< no neighbour: left the modelled area
    std::uint64_t admitted = 0;    ///< inbound handovers admitted
    std::uint64_t dropped = 0;     ///< inbound handovers rejected / over-admitted
    /// One (source cell, destination cell) record per departure, in routing
    /// order; destination -1 means the super-grid edge.
    std::vector<std::pair<int, int>> routes;
    std::uint64_t active_sessions = 0;  ///< network-wide, after the barrier
    double used_bu = 0.0;               ///< network-wide occupied bandwidth
  };
  using EpochObserver = std::function<void(const EpochStats&)>;
  void set_epoch_observer(EpochObserver obs) { observer_ = std::move(obs); }

  /// Test knob: build every shard at run(), drain EVERY shard every epoch
  /// and never fast-forward — the eager bulk-synchronous schedule.  The
  /// bit-identity suite runs each scenario both ways and compares results
  /// byte for byte.
  void set_force_full_drains(bool force) { force_full_drains_ = force; }

  /// Run the replication: every shard offers `n_requests_per_cell` new
  /// calls (shaped by its own spatial map), epochs proceed until every
  /// shard drained or the horizon hit.  Call at most once per engine.
  MultiCellResult run(int n_requests_per_cell);

  int cell_count() const noexcept { return static_cast<int>(shards_.size()); }
  const cellular::HexCoord& cell_coord(int cell) const {
    return coords_[static_cast<std::size_t>(cell)];
  }
  /// Destination shard for a departure leaving `cell` with the given
  /// heading: the hex neighbour whose direction is angularly closest, or
  /// -1 when that neighbour is off the super grid.  Exposed for tests.
  int route_target(int cell, double heading_deg) const;

  /// True once shard `cell` has been built (every cell is, once run()
  /// started with workload_cells == 0).
  bool built(int cell) const;

  /// Shard introspection for the property tests (per-BS LoadState etc.).
  /// Precondition: built(cell).
  const SessionDriver& driver(int cell) const;

  /// One cell's row of the replication.
  struct Cell {
    cellular::HexCoord coord;        ///< super-grid coordinate of the shard
    RunResult run;                   ///< the shard's metrics/utilization/events
    std::uint64_t handoffs_out = 0;  ///< departures routed to a neighbour shard
    std::uint64_t handoffs_in = 0;   ///< inter-cell attempts delivered here
    std::uint64_t left_world = 0;    ///< departures off the super-grid edge
  };
  /// Cell `k` as run() left it (its driver's result() and handoff
  /// counters), or the idle cell — SessionDriver::idle_result(), zero
  /// counters — for a shard never built.
  Cell cell(int k) const;

 private:
  struct Shard {
    std::unique_ptr<SessionDriver> driver;
    std::vector<SessionDriver::Handover> inbox;  ///< filled at barrier
    // Reused across epochs: steady-state barriers allocate nothing.
    std::vector<cac::AdmissionRequest> requests;
    std::vector<cac::AdmissionDecision> decisions;
    std::uint64_t handoffs_out = 0;
    std::uint64_t handoffs_in = 0;
    std::uint64_t left_world = 0;
    // This shard's share of the running network-wide totals, as last read.
    std::size_t sessions = 0;
    double used_bu = 0.0;
  };

  /// Built shard `cell`.
  Shard& shard(int cell) const {
    return *shards_[static_cast<std::size_t>(cell)];
  }
  /// Build shard `cell` and begin it with `n_requests` fresh calls.
  void build(int cell, int n_requests);

  /// Re-read a shard's session count and occupied bandwidth and move the
  /// running totals by the difference.
  void refresh_totals(Shard& sh);

  cellular::MobileState entry_state(
      const SessionDriver::Handover& dep) const;
  void route_epoch(sim::SimTime t_end);

  /// Active-shard index maintenance (swap-remove vector + position map —
  /// O(1) either way).  A shard is active while its event queue is
  /// non-empty; membership changes only at barriers, on the engine thread.
  void activate(int cell);
  void deactivate(int cell);

  ScenarioConfig scenario_;
  PolicyFactory factory_;
  std::uint64_t replication_;
  std::vector<cellular::HexCoord> coords_;
  cellular::HexCoord dir_[6] = {};  ///< the six hex neighbour offsets
  double dir_angle_[6] = {};  ///< world angle of each hex neighbour direction
  std::vector<std::unique_ptr<Shard>> shards_;  ///< null until built
  std::vector<int> built_;       ///< cells with a driver (ascending)
  std::vector<int> active_;      ///< cells with pending events (unordered)
  std::vector<int> active_pos_;  ///< cell -> index in active_, or -1
  std::vector<int> drain_;       ///< this epoch's drain list (ascending)
  std::vector<int> touched_;     ///< cells that received inbound handovers
  std::uint64_t sessions_total_ = 0;  ///< sum of every Shard::sessions
  double used_total_ = 0.0;           ///< sum of every Shard::used_bu
  EpochStats stats_;  ///< reused across barriers: steady state allocates
                      ///< nothing even with an observer attached
  EpochObserver observer_;
  bool force_full_drains_ = false;
  bool started_ = false;
};

}  // namespace facsp::core
