#include "core/multicell.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/expects.h"
#include "common/math_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"

namespace facsp::core {

namespace {

/// Registered once, on the first build or epoch that runs with metrics
/// enabled; afterwards every use just dereferences cached references.
struct EngineMetrics {
  obs::Counter& epochs;
  obs::Counter& epochs_skipped;
  obs::Counter& shards_drained;
  obs::Counter& shards_built;
  obs::Counter& routed;
  obs::Counter& left_world;
  obs::Counter& admitted;
  obs::Counter& dropped;
  obs::Histogram& drain_ns;
  obs::Histogram& barrier_ns;
  obs::Gauge& sessions_resident;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::Registry::instance().counter("engine.epochs"),
        obs::Registry::instance().counter("engine.epochs_skipped"),
        obs::Registry::instance().counter("engine.shards_drained"),
        obs::Registry::instance().counter("engine.shards_built"),
        obs::Registry::instance().counter("engine.handover.routed"),
        obs::Registry::instance().counter("engine.handover.left_world"),
        obs::Registry::instance().counter("engine.handover.admitted"),
        obs::Registry::instance().counter("engine.handover.dropped"),
        obs::Registry::instance().histogram("engine.drain_ns"),
        obs::Registry::instance().histogram("engine.barrier_ns"),
        obs::Registry::instance().gauge("engine.sessions_resident"),
    };
    return m;
  }
};

/// Disjoint per-shard connection-id namespaces: migrating sessions keep
/// their origin ids, so no two shards may ever mint the same one.  2^40
/// leaves every shard the full legacy id space (spawner strides are 2^24).
constexpr cellular::ConnectionId kCellIdOffset = 1ull << 40;

/// Super-grid coordinates: the first `cells` cells of the centre-out ring
/// spiral, so cell 0 is always the centre and cells 1..6 its ring-1
/// neighbours.  Ring d starts d steps along dir[4] (the start hex_ring uses)
/// and walks d steps along each of dir[0..5] in turn.
std::vector<cellular::HexCoord> spiral_coords(
    int cells, const cellular::HexCoord (&dir)[6]) {
  std::vector<cellular::HexCoord> out;
  out.reserve(static_cast<std::size_t>(cells));
  out.push_back(cellular::HexCoord{0, 0});
  for (int d = 1; static_cast<int>(out.size()) < cells; ++d) {
    cellular::HexCoord cur{dir[4].q * d, dir[4].r * d};
    for (int side = 0; side < 6; ++side)
      for (int step = 0; step < d; ++step) {
        if (static_cast<int>(out.size()) == cells) return out;
        out.push_back(cur);
        cur = cellular::HexCoord{cur.q + dir[side].q, cur.r + dir[side].r};
      }
  }
  return out;
}

/// Position of `c` in the unbounded spiral spiral_coords() walks, in closed
/// form: ring d (the hex distance from the origin) follows the 1 + 3d(d-1)
/// cells of the rings inside it, and `c`'s side and step along that ring
/// follow from which of its edges it lies on.  Assumes hex_neighbors'
/// E, NE, NW, W, SW, SE direction order, which the routing test pins.
std::int64_t spiral_index(const cellular::HexCoord& c) {
  const std::int64_t q = c.q;
  const std::int64_t r = c.r;
  const std::int64_t d = std::max({q < 0 ? -q : q, r < 0 ? -r : r,
                                   q + r < 0 ? -(q + r) : q + r});
  if (d == 0) return 0;
  std::int64_t side = 5;  // q == -d, 0 <= r < d
  std::int64_t step = r;
  if (r == d && q < 0) {
    side = 0;
    step = q + d;
  } else if (q + r == d && q < d) {
    side = 1;
    step = q;
  } else if (q == d && r > -d) {
    side = 2;
    step = -r;
  } else if (r == -d && q > 0) {
    side = 3;
    step = d - q;
  } else if (q + r == -d && q > -d) {
    side = 4;
    step = -q;
  }
  return 1 + 3 * d * (d - 1) + side * d + step;
}

}  // namespace

MultiCellEngine::MultiCellEngine(const ScenarioConfig& scenario,
                                 PolicyFactory factory,
                                 std::uint64_t replication)
    : scenario_(scenario),
      factory_(std::move(factory)),
      replication_(replication) {
  FACSP_TRACE_SPAN("engine", "build");
  scenario_.validate();
  FACSP_EXPECTS(static_cast<bool>(factory_));

  // World angle of each hex neighbour direction (fixed E, NE, NW, W, SW, SE
  // order).  Computed from the layout geometry, not hardcoded, so a change
  // of hex orientation cannot desynchronise routing from the grid.
  const cellular::HexLayout unit(1.0);
  const auto dirs = cellular::hex_neighbors(cellular::HexCoord{0, 0});
  for (std::size_t d = 0; d < dirs.size(); ++d) {
    dir_[d] = dirs[d];
    dir_angle_[d] = cellular::heading_deg(unit.center(cellular::HexCoord{0, 0}),
                                          unit.center(dirs[d]));
  }
  coords_ = spiral_coords(scenario_.multicell.cells, dir_);

  // Empty slots only: build() fills a shard the first time it has work.
  shards_.resize(coords_.size());
}

void MultiCellEngine::build(int cell, int n_requests) {
  obs::ScopedSpan span("engine", "build", cell);
  std::unique_ptr<Shard>& slot = shards_[static_cast<std::size_t>(cell)];
  slot = std::make_unique<Shard>();
  Shard& sh = *slot;
  // Cell 0 keeps the legacy seed roots so a 1-cell engine run *is* the
  // historical single-world run, bit for bit; every other shard gets its
  // own independent family under the "cell" component.
  const std::uint64_t cell_seed =
      cell == 0 ? scenario_.seed
                : sim::hash_seed(scenario_.seed, "cell",
                                 static_cast<std::uint64_t>(cell));
  ScenarioConfig cell_scenario = scenario_;
  cell_scenario.seed = cell_seed;

  sh.driver = std::make_unique<SessionDriver>(
      cell_scenario, factory_, replication_,
      kCellIdOffset * static_cast<cellular::ConnectionId>(cell));
  sh.driver->begin(n_requests);

  built_.insert(std::lower_bound(built_.begin(), built_.end(), cell), cell);
  if (obs::metrics_enabled()) EngineMetrics::get().shards_built.add(1);
}

bool MultiCellEngine::built(int cell) const {
  FACSP_EXPECTS(cell >= 0 && cell < cell_count());
  return shards_[static_cast<std::size_t>(cell)] != nullptr;
}

const SessionDriver& MultiCellEngine::driver(int cell) const {
  FACSP_EXPECTS_MSG(built(cell), "shard " << cell << " was never built");
  return *shard(cell).driver;
}

MultiCellEngine::Cell MultiCellEngine::cell(int k) const {
  Cell c;
  if (!built(k)) {
    c.run = SessionDriver::idle_result();
  } else {
    const Shard& sh = shard(k);
    c.run = sh.driver->result();
    c.handoffs_out = sh.handoffs_out;
    c.handoffs_in = sh.handoffs_in;
    c.left_world = sh.left_world;
  }
  c.coord = coords_[static_cast<std::size_t>(k)];
  return c;
}

int MultiCellEngine::route_target(int cell, double heading_deg) const {
  std::size_t best = 0;
  double best_dist = angle_distance_deg(heading_deg, dir_angle_[0]);
  for (std::size_t d = 1; d < 6; ++d) {
    const double dist = angle_distance_deg(heading_deg, dir_angle_[d]);
    if (dist < best_dist) {
      best = d;
      best_dist = dist;
    }
  }
  const cellular::HexCoord& dir = dir_[best];
  const cellular::HexCoord& from = coords_[static_cast<std::size_t>(cell)];
  const std::int64_t k =
      spiral_index(cellular::HexCoord{from.q + dir.q, from.r + dir.r});
  return k < cell_count() ? static_cast<int>(k) : -1;
}

cellular::MobileState MultiCellEngine::entry_state(
    const SessionDriver::Handover& dep) const {
  // Re-materialise in the destination frame: entering its centre cell from
  // the side the user came from — entry_fraction * cell_radius behind the
  // centre BS along the (unchanged) travel direction.  entry_fraction stays
  // below the hex inradius ratio, so the point is always inside the cell.
  cellular::MobileState s = dep.state;
  const double h = deg_to_rad(s.heading_deg);
  const double r = scenario_.cell_radius_m * scenario_.multicell.entry_fraction;
  s.position = cellular::Point{-r * std::cos(h), -r * std::sin(h)};
  return s;
}

void MultiCellEngine::route_epoch(sim::SimTime t_end) {
  // stats_ is a member so the per-barrier buffers (routes in particular)
  // persist: clear() keeps capacity, and steady-state barriers allocate
  // nothing even with an observer attached (audited by
  // MultiCellAlloc.EpochObserverAddsOnlyOneTimeBufferGrowth).
  EpochStats& es = stats_;
  es.t_end = t_end;
  es.departures = es.delivered = es.left_world = 0;
  es.admitted = es.dropped = 0;
  es.routes.clear();

  // Inbox invariant: every inbox is empty here — phase 2 clears each one it
  // fills, right after processing it.  Only drained shards can hold
  // departures, so iterating the (ascending) drain list visits exactly the
  // shards the historical all-cells sweep routed, in the same order.
  touched_.clear();

  // Phase 1 — route departures, in fixed (cell, drain-event) order.
  for (const int k : drain_) {
    Shard& src = shard(k);
    auto& departures = src.driver->departures();
    for (const SessionDriver::Handover& dep : departures) {
      ++es.departures;
      const int dst = route_target(k, dep.state.heading_deg);
      if (observer_) es.routes.emplace_back(k, dst);
      if (dst < 0) {
        // Off the super-grid edge: the call leaves the modelled area as a
        // completion (the network did not fail it).
        ++es.left_world;
        ++src.left_world;
        if (dep.measured)
          src.driver->metrics().record_completion(dep.conn.service);
        continue;
      }
      ++es.delivered;
      ++src.handoffs_out;
      // First handover into a shard nobody built yet: build it now, empty —
      // the same state an eagerly built, never-drained shard has here.
      if (!built(dst)) build(dst, 0);
      Shard& dsh = shard(dst);
      ++dsh.handoffs_in;
      if (dsh.inbox.empty()) touched_.push_back(dst);  // first touch
      dsh.inbox.push_back(SessionDriver::Handover{
          dep.conn, entry_state(dep), t_end, dep.remaining_holding_s,
          dep.measured});
    }
    departures.clear();
  }
  std::sort(touched_.begin(), touched_.end());

  // Phase 2 — batched admission: every destination cell's pending inbound
  // handovers of this drain become ONE decide_batch call against its centre
  // BS (one load snapshot per batch; allocation re-checks capacity, so an
  // over-admitting burst degrades into drops, never negative counters).
  // Ascending cell order — the same order the historical all-cells sweep
  // processed non-empty inboxes in.
  for (const int t : touched_) {
    Shard& sh = shard(t);
    sh.requests.clear();
    for (const SessionDriver::Handover& a : sh.inbox)
      sh.requests.push_back(sh.driver->inbound_request(a));
    sh.decisions.resize(sh.inbox.size());
    sh.driver->policy().decide_batch(
        sh.requests, sh.driver->network().center(), sh.decisions);
    for (std::size_t i = 0; i < sh.inbox.size(); ++i) {
      const SessionDriver::Handover& a = sh.inbox[i];
      const bool ok = sh.decisions[i].admitted &&
                      sh.driver->admit_inbound(a, sh.requests[i]);
      if (a.measured) sh.driver->metrics().record_handoff(a.conn.service, ok);
      if (ok) {
        ++es.admitted;
      } else {
        ++es.dropped;
        if (a.measured) sh.driver->metrics().record_drop(a.conn.service);
      }
    }
    sh.inbox.clear();  // restore the invariant for the next barrier
  }

  // Network-wide totals: only this barrier's drained shards and admission
  // destinations can have changed, so only they are re-read.  A shard's
  // first reading follows its begin(), which admits nothing, so the zeros a
  // Shard starts with were right until then.
  for (const int k : drain_) refresh_totals(shard(k));
  for (const int k : touched_) refresh_totals(shard(k));
  es.active_sessions = sessions_total_;
  es.used_bu = used_total_;

  if (obs::metrics_enabled()) {
    EngineMetrics& m = EngineMetrics::get();
    m.epochs.add(1);
    m.routed.add(es.delivered);
    m.left_world.add(es.left_world);
    m.admitted.add(es.admitted);
    m.dropped.add(es.dropped);
    m.sessions_resident.set(static_cast<std::int64_t>(es.active_sessions));
  }
  if (observer_) observer_(es);
}

void MultiCellEngine::refresh_totals(Shard& sh) {
  const SessionDriver& drv = *sh.driver;
  const std::size_t sessions = drv.session_count();
  double used = 0.0;
  const cellular::CellularNetwork& net = drv.network();
  for (std::size_t b = 0; b < net.cell_count(); ++b)
    used += net.station(b).load().used;
  sessions_total_ = sessions_total_ - sh.sessions + sessions;
  // Every bandwidth is a whole 1, 5 or 10 BU, so these doubles are exact
  // integers: the running total equals an all-shards sum in any order, bit
  // for bit.
  used_total_ += used - sh.used_bu;
  sh.sessions = sessions;
  sh.used_bu = used;
}

void MultiCellEngine::activate(int cell) {
  if (active_pos_[static_cast<std::size_t>(cell)] >= 0) return;
  active_pos_[static_cast<std::size_t>(cell)] =
      static_cast<int>(active_.size());
  active_.push_back(cell);
}

void MultiCellEngine::deactivate(int cell) {
  const int pos = active_pos_[static_cast<std::size_t>(cell)];
  if (pos < 0) return;
  const int last = active_.back();
  active_[static_cast<std::size_t>(pos)] = last;
  active_pos_[static_cast<std::size_t>(last)] = pos;
  active_.pop_back();
  active_pos_[static_cast<std::size_t>(cell)] = -1;
}

MultiCellResult MultiCellEngine::run(int n_requests_per_cell) {
  FACSP_EXPECTS(!started_);
  started_ = true;

  // workload_cells > 0 restricts fresh traffic to the first spiral cells;
  // the rest start empty (and idle) and are built only when a handover
  // first reaches them — the sparse-grid regime the event-driven scheduler
  // exists for.  Full drains touch every shard, so they build them all.
  const int wc = scenario_.multicell.workload_cells;
  const int generating = wc > 0 ? std::min(wc, cell_count()) : cell_count();
  const int eager = force_full_drains_ ? cell_count() : generating;
  for (int k = 0; k < eager; ++k)
    build(k, k < generating ? n_requests_per_cell : 0);

  // Seed the active index: exactly the shards whose begin() scheduled work.
  active_.clear();
  active_.reserve(shards_.size());
  active_pos_.assign(shards_.size(), -1);
  drain_.reserve(shards_.size());
  touched_.reserve(shards_.size());
  for (const int k : built_)
    if (!shard(k).driver->idle()) activate(k);

  // Never spawn more workers than there are shards to drain: run_single
  // builds an engine per replication, so surplus threads would be pure
  // spawn/join overhead (results are thread-count-invariant either way).
  // parallel_for additionally clamps each epoch's helper count to that
  // epoch's drain-list size, so a mostly-idle grid never wakes the full
  // pool.
  sim::ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
      sim::ThreadPool::resolve_threads(scenario_.multicell.threads),
      shards_.size())));
  // Per-shard drain-time histograms, resolved lazily (registration takes the
  // registry mutex — engine thread only) the first time a shard drains with
  // metrics on.  Entries ride the name-sorted snapshot machinery as
  // "engine.shard_drain_ns{shard=k}".
  std::vector<obs::Histogram*> shard_hist(shards_.size(), nullptr);

  const sim::SimTime dt = scenario_.multicell.epoch_s;
  const sim::SimTime horizon = scenario_.horizon_s;
  sim::SimTime t = 0.0;
  while (t < horizon && !active_.empty()) {
    const bool metrics_on = obs::metrics_enabled();
    sim::SimTime t_end = std::min(t + dt, horizon);
    if (!force_full_drains_) {
      sim::SimTime t_next = std::numeric_limits<sim::SimTime>::infinity();
      for (const int k : active_)
        t_next = std::min(t_next, shard(k).driver->next_event_time());
      // Fast-forward over provably empty epochs, boundary by boundary: the
      // repeated `t + dt` additions retrace exactly the float sequence the
      // bulk-synchronous engine would have produced, so later boundaries —
      // and every arrival timestamp derived from them — stay bit-identical.
      std::uint64_t skipped = 0;
      while (t_next > t_end && t_end < horizon) {
        t = t_end;
        t_end = std::min(t + dt, horizon);
        ++skipped;
      }
      if (metrics_on && skipped > 0)
        EngineMetrics::get().epochs_skipped.add(skipped);
      // Earliest pending event past the horizon: nothing left can fire
      // (the historical engine idled through these epochs to the same
      // result).
      if (t_next > t_end) break;
    }

    // Drain list: active shards with an event inside this window, ascending
    // so the serial barrier routes in the historical fixed order.  Shards
    // woken mid-epoch (activated at the previous barrier with an arrival at
    // its t_end) naturally qualify here.
    drain_.clear();
    if (force_full_drains_) {
      for (std::size_t k = 0; k < shards_.size(); ++k)
        drain_.push_back(static_cast<int>(k));
    } else {
      for (const int k : active_)
        if (shard(k).driver->next_event_time() <= t_end) drain_.push_back(k);
      std::sort(drain_.begin(), drain_.end());
    }

    obs::Histogram* drain_hist = nullptr;
    obs::Histogram* barrier_hist = nullptr;
    if (metrics_on) {
      EngineMetrics& m = EngineMetrics::get();
      drain_hist = &m.drain_ns;
      barrier_hist = &m.barrier_ns;
      m.shards_drained.add(drain_.size());
      for (const int k : drain_) {
        obs::Histogram*& h = shard_hist[static_cast<std::size_t>(k)];
        if (h == nullptr)
          h = &obs::Registry::instance().histogram(
              obs::labeled("engine.shard_drain_ns", "shard", k));
      }
    }
    {
      FACSP_TRACE_SPAN("engine", "epoch");
      // Parallel drain: share-nothing — each shard touches only its own
      // driver, policy and departure list, so worker scheduling cannot
      // affect results.
      pool.parallel_for(drain_.size(), [&](std::size_t i) {
        const int k = drain_[i];
        obs::ScopedSpan drain(
            "engine", "shard_drain", static_cast<std::int64_t>(k),
            drain_hist,
            drain_hist != nullptr
                ? shard_hist[static_cast<std::size_t>(k)]
                : nullptr);
        shard(k).driver->advance_until(t_end);
      });
      // Serial barrier: routing + batched admission in fixed order.
      obs::ScopedSpan barrier("engine", "barrier", obs::Tracer::kNoArg,
                              barrier_hist);
      route_epoch(t_end);
    }

    // Membership maintenance, on the engine thread at the barrier: drained
    // shards that ran dry leave the index; destinations the barrier just
    // handed work to (re-)enter it.  Order matters — a drained shard whose
    // only future work is an inbound admission it just received is
    // deactivated then immediately re-activated via touched_.
    for (const int k : drain_)
      if (shard(k).driver->idle()) deactivate(k);
    for (const int k : touched_)
      if (!shard(k).driver->idle()) activate(k);
    t = t_end;
  }

  FACSP_TRACE_SPAN("engine", "reduce");
  // Only built shards are read and merged, in ascending order.  An unbuilt
  // shard would add integer zeros and a +0.0 utilization, which change no
  // bit of the sums; its duration floor still enters the max.
  RunResult agg;
  if (built_.size() < shards_.size())
    agg.duration_s = SessionDriver::idle_result().duration_s;
  double util_sum = 0.0;
  for (const int k : built_) {
    const RunResult r = shard(k).driver->result();
    agg.metrics.merge(r.metrics);
    agg.duration_s = std::max(agg.duration_s, r.duration_s);
    agg.events += r.events;
    util_sum += r.center_utilization;
  }
  agg.center_utilization = util_sum / static_cast<double>(shards_.size());
  return MultiCellResult{std::move(agg)};
}

}  // namespace facsp::core
