// Session driver: executes one replication of the paper's experiment —
// N requesting connections arriving in the centre cell, admission control,
// call holding, mobility, handoff between cells, and metric collection.
//
// The driver can run a whole replication in one call (run()) or be driven
// incrementally (begin() + advance_until()) by the multi-cell engine
// (core/multicell.h), which shards one driver per super-grid cell and
// exchanges inter-cell handovers between them at epoch boundaries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cac/policy.h"
#include "cellular/metrics.h"
#include "cellular/network.h"
#include "cellular/traffic.h"
#include "core/scenario.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace facsp::core {

/// Outcome of one replication.
struct RunResult {
  cellular::MetricsCollector metrics;
  double center_utilization = 0.0;  ///< time-averaged, centre cell
  sim::SimTime duration_s = 0.0;    ///< simulated time until the run drained
  std::uint64_t events = 0;         ///< DES events fired
};

/// Drives one simulation run.  Owns the network, the event loop and the
/// per-run random streams; the admission policy is borrowed (reset() is
/// called at the start of the run).
///
/// The loop has three kinds of event: a call arrives, a call completes, a
/// mobile moves (and maybe hands off).  Events at one instant fire in the
/// order they were scheduled.  A session's events carry the generation it
/// was created with; once the session is gone, or its id came back as a
/// new session, they are stale and skipped without firing.
class SessionDriver {
 public:
  /// `replication` seeds the run's random streams (common random numbers:
  /// the same (scenario.seed, replication) pair generates the same workload
  /// for every policy).  `id_offset` shifts every generated connection id —
  /// the multi-cell engine gives each shard a disjoint id namespace so
  /// sessions migrating between shards can never collide (0 keeps the
  /// historical single-world ids).
  SessionDriver(const ScenarioConfig& scenario, cac::AdmissionPolicy& policy,
                std::uint64_t replication, cellular::ConnectionId id_offset = 0);

  /// Simulate `n_requests` new-call requests and run until every admitted
  /// call completed, dropped, or left the network (or the horizon hit).
  /// Equivalent to begin(n_requests) + advance_until(horizon) + result().
  RunResult run(int n_requests);

  // --- incremental interface (multi-cell engine) ---------------------------

  /// A session leaving this driver's service area.  When a departure sink is
  /// installed the session's resources are released here and the record is
  /// handed to the sink (the inter-cell layer decides its fate); without a
  /// sink the call simply leaves the modelled area as a completion.
  struct CellDeparture {
    cellular::Connection conn;
    cellular::MobileState state;          ///< position just outside the disc
    sim::SimTime when = 0.0;
    sim::SimTime remaining_holding_s = 0.0;
    bool measured = true;
  };
  using DepartureSink = std::function<void(CellDeparture)>;
  void set_departure_sink(DepartureSink sink) {
    departure_sink_ = std::move(sink);
  }

  /// An inter-cell handover arriving into this driver's world at `when`
  /// (state already mapped into this driver's coordinate frame).
  struct CellArrival {
    cellular::Connection conn;
    cellular::MobileState state;
    sim::SimTime when = 0.0;
    sim::SimTime remaining_holding_s = 0.0;
    bool measured = true;
  };

  /// Schedule the replication's arrivals and reset the policy/metrics.
  /// First half of run(); must be called exactly once before advance_until.
  void begin(int n_requests);

  /// Fire events with timestamp <= t.  Returns the number fired.
  std::uint64_t advance_until(sim::SimTime t);

  /// True when no events remain (the shard drained).
  bool idle() const noexcept { return heap_.empty(); }

  /// Timestamp of the shard's earliest pending event, +infinity when
  /// idle().  The multi-cell engine's event-driven scheduler reads this to
  /// decide which shards need a drain this epoch — a shard whose next event
  /// lies beyond the epoch end can be skipped without touching it.
  sim::SimTime next_event_time() const;

  /// Snapshot of the run's metrics so far (final when idle()).
  RunResult result() const;

  /// What result() returns for a driver begun with no requests and never
  /// driven since: the multi-cell engine reports it for shards it never
  /// had to build.
  static RunResult idle_result();

  /// The admission request an inbound handover presents to the base station
  /// covering its entry position.  Consumes one direction-predictor draw,
  /// exactly like any other handoff request.
  cac::AdmissionRequest inbound_request(const CellArrival& arrival);

  /// Complete an *admitted* inbound handover: allocate on the covering BS,
  /// create the session, schedule its completion/mobility events.  Returns
  /// false — and changes nothing — when the call no longer physically fits
  /// (batched decisions are taken against one load snapshot, so a burst can
  /// over-admit); the caller records the drop.  Does not record metrics:
  /// the engine attributes the handoff attempt to this cell's collector.
  bool admit_inbound(const CellArrival& arrival,
                     const cac::AdmissionRequest& req);

  /// Mutable metrics access for the inter-cell layer (handoff attempts,
  /// drops and left-world completions are attributed per cell).
  cellular::MetricsCollector& metrics() noexcept { return metrics_; }

  /// Currently active (admitted, not yet finished) sessions in this world.
  std::size_t session_count() const noexcept { return sessions_.size(); }

  const cellular::CellularNetwork& network() const noexcept { return *network_; }

 private:
  struct Session {
    cellular::Connection conn;
    cellular::MobileState state;
    cellular::BaseStation* serving = nullptr;
    bool measured = false;  ///< true when the call originated in the centre
    std::uint64_t generation = 0;  ///< stamped on the session's events
  };

  enum class EventKind : std::uint8_t { kArrival, kCompletion, kMobility };
  struct Event {
    /// Index into arrivals_ for an arrival, else the session's id.
    std::uint64_t key = 0;
    std::uint64_t generation = 0;  ///< the session's; 0 for an arrival
    EventKind kind = EventKind::kArrival;
  };

  /// Queue `e` at `when`, which must be finite and not before now_.
  void schedule(sim::SimTime when, const Event& e);
  /// Stamp `s` with a fresh generation, queue its completion and (with
  /// mobility on) its first move, and add it to sessions_.
  void start(Session s, sim::SimTime completion_at,
             sim::SimTime first_move_at);
  /// The live session a completion or mobility event belongs to, or
  /// nullptr when the event is stale.
  Session* target(const Event& e);
  /// Drop stale events from the top of the heap.
  void skim();
  void fire(const Event& e);

  void handle_arrival(const cellular::CallRequest& req, bool measured);
  void handle_mobility(Session& s);
  void do_handoff(Session& s, cellular::BaseStation& target);
  void finish(Session& s, cellular::ConnectionState final_state);
  /// Release the session's resources and erase it *without* recording a
  /// completion or drop: its fate now belongs to the inter-cell layer.
  CellDeparture depart(Session& s);

  cac::AdmissionRequest make_request(const cellular::Connection& conn,
                                     const cellular::MobileState& state,
                                     cellular::RequestKind kind,
                                     const cellular::BaseStation& target);

  /// One request source per spawning cell: where its requests spawn, its
  /// private "traffic" stream and id range, and its spatial load weight
  /// (requests per run = round(weight * N)).  begin() builds the cell's
  /// generator only when that count is positive.
  struct Spawner {
    cellular::HexCoord coord;
    cellular::Point position;
    std::uint64_t stream = 0;  ///< index of its "traffic" stream
    cellular::ConnectionId first_id = 1;
    double weight = 1.0;
  };

  ScenarioConfig scenario_;
  cac::AdmissionPolicy& policy_;
  std::unique_ptr<cellular::CellularNetwork> network_;
  sim::EventHeap<Event> heap_;  ///< its top is live between calls
  sim::SimTime now_ = 0.0;
  sim::SimTime last_event_ = 0.0;  ///< 0 until an event fires
  std::uint64_t fired_ = 0;
  std::uint64_t next_generation_ = 1;
  std::vector<cellular::CallRequest> arrivals_;  ///< filled by begin()
  /// arrivals_[0, measured_arrivals_) come from the centre's generator.
  std::size_t measured_arrivals_ = 0;
  sim::RngFactory rng_;
  /// One spawner per cell with positive spatial weight (just the centre
  /// under the default center-only map).  Element 0 is always the centre's.
  std::vector<Spawner> traffic_;
  std::unique_ptr<cellular::MobilityModel> mobility_;
  std::unique_ptr<cellular::DirectionPredictor> predictor_;
  cellular::MetricsCollector metrics_;
  std::unordered_map<cellular::ConnectionId, Session> sessions_;
  DepartureSink departure_sink_;
};

}  // namespace facsp::core
