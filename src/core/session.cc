#include "core/session.h"

#include <algorithm>
#include <limits>

#include "common/expects.h"
#include "workload/spatial.h"

namespace facsp::core {

using cellular::Connection;
using cellular::ConnectionId;
using cellular::ConnectionState;
using cellular::RequestKind;

SessionDriver::SessionDriver(const ScenarioConfig& scenario,
                             const PolicyFactory& factory,
                             std::uint64_t replication,
                             cellular::ConnectionId id_offset)
    : scenario_(scenario),
      // The driver's streams live under their own "driver" component and
      // the policy's under "policy": two distinct top-level components of
      // the same (seed, replication) pair, so a policy's draws can never
      // alias the traffic/mobility streams no matter what stream names
      // either side picks.
      rng_(sim::hash_seed(scenario.seed, "driver", replication)) {
  scenario_.validate();
  FACSP_EXPECTS(static_cast<bool>(factory));
  network_ = std::make_unique<cellular::CellularNetwork>(
      scenario_.rings, scenario_.cell_radius_m, scenario_.capacity_bu);
  sim::RngFactory policy_rng(
      sim::hash_seed(scenario_.seed, "policy", replication));
  policy_ = factory(*network_, policy_rng);
  // Centre generator first, then one per remaining cell with positive
  // spatial weight.  Each generator gets a disjoint id range and its own
  // random stream (keyed by the station id, not the spawner index), so
  // reshaping the spatial map never perturbs another cell's workload.
  constexpr cellular::ConnectionId kIdStride = 1u << 24;
  const workload::SpatialLoadMap spatial(scenario_.spatial);
  traffic_.push_back({cellular::HexCoord{0, 0}, network_->center().position(),
                      0, 1 + id_offset,
                      spatial.weight(cellular::HexCoord{0, 0},
                                     network_->center().position())});
  for (cellular::BaseStation* bs : network_->stations()) {
    if (bs->coord() == cellular::HexCoord{0, 0}) continue;
    const double w = spatial.weight(bs->coord(), bs->position());
    if (w <= 0.0) continue;
    traffic_.push_back({bs->coord(), bs->position(), bs->id() + 1,
                        kIdStride * (bs->id() + 1) + id_offset, w});
  }
  mobility_ = std::make_unique<cellular::MobilityModel>(
      scenario_.mobility, rng_.stream("mobility"));
  predictor_ = std::make_unique<cellular::DirectionPredictor>(
      scenario_.predictor, rng_.stream("predictor"));
}

cac::AdmissionRequest SessionDriver::make_request(
    const Connection& conn, const cellular::MobileState& state,
    RequestKind kind, const cellular::BaseStation& target) {
  cac::AdmissionRequest req;
  req.id = conn.id;
  req.service = conn.service;
  req.bandwidth = conn.bandwidth;
  req.kind = kind;
  req.priority = conn.priority;
  req.speed_kmh = state.speed_kmh;
  req.angle_deg = predictor_->predict_angle_deg(state, target.position());
  req.distance_m = cellular::distance(state.position, target.position());
  req.mobile = state;
  req.now = now_;
  return req;
}

void SessionDriver::handle_arrival(const cellular::CallRequest& call,
                                   bool measured) {
  cellular::BaseStation* bs = network_->station_covering(call.mobile.position);
  FACSP_ENSURES(bs != nullptr);  // requests spawn inside their own cell

  Session s;
  s.conn.id = call.id;
  s.conn.service = call.service;
  s.conn.bandwidth = call.bandwidth;
  s.conn.priority = call.priority;
  s.conn.origin = RequestKind::kNew;
  s.conn.state = ConnectionState::kPending;
  s.conn.request_time = now_;
  s.conn.holding_time = call.holding_time;
  s.state = call.mobile;
  s.serving = bs;
  s.measured = measured;

  const auto req = make_request(s.conn, s.state, RequestKind::kNew, *bs);
  const auto decision = policy_->decide(req, *bs);
  if (measured)
    metrics_.record_new_call(call.service, call.priority,
                             decision.admitted);
  if (!decision.admitted) {
    return;  // blocked; nothing was allocated
  }

  const bool ok = bs->allocate(s.conn, now_, /*via_handoff=*/false);
  FACSP_ENSURES(ok);  // decide() verified can_fit under the same event
  policy_->on_admitted(req, *bs);
  s.conn.state = ConnectionState::kActive;
  s.conn.start_time = now_;

  start(std::move(s), now_ + call.holding_time,
        now_ + scenario_.mobility_update_s);
}

void SessionDriver::finish(Session& s, ConnectionState final_state) {
  if (s.conn.state == ConnectionState::kActive && s.serving != nullptr) {
    policy_->on_released(s.conn.id, s.serving->release(s.conn.id, now_),
                         *s.serving);
  }
  s.conn.state = final_state;
  s.conn.end_time = now_;
  if (s.measured) {
    if (final_state == ConnectionState::kCompleted)
      metrics_.record_completion(s.conn.service);
    else if (final_state == ConnectionState::kDropped)
      metrics_.record_drop(s.conn.service);
  }
  sessions_.erase(s.conn.id);
}

void SessionDriver::depart(Session& s) {
  // The completion event would fire at start + holding; what is left of the
  // call continues in whichever cell admits it.
  departures_.push_back(Handover{
      s.conn, s.state, now_,
      std::max(0.0, s.conn.start_time + s.conn.holding_time - now_),
      s.measured});
  if (s.conn.state == ConnectionState::kActive && s.serving != nullptr) {
    policy_->on_released(s.conn.id, s.serving->release(s.conn.id, now_),
                         *s.serving);
  }
  sessions_.erase(s.conn.id);
}

void SessionDriver::do_handoff(Session& s, cellular::BaseStation& target) {
  const auto req =
      make_request(s.conn, s.state, RequestKind::kHandoff, target);
  const auto decision = policy_->decide(req, target);
  if (s.measured) metrics_.record_handoff(s.conn.service, decision.admitted);
  if (!decision.admitted) {
    finish(s, ConnectionState::kDropped);
    return;
  }
  // Release on the source, then allocate on the target.
  policy_->on_released(s.conn.id, s.serving->release(s.conn.id, now_),
                       *s.serving);
  const bool ok = target.allocate(s.conn, now_, /*via_handoff=*/true);
  FACSP_ENSURES(ok);
  policy_->on_admitted(req, target);
  s.serving = &target;
  ++s.conn.handoff_count;
}

void SessionDriver::handle_mobility(Session& s) {
  const ConnectionId id = s.conn.id;
  mobility_->advance(s.state, scenario_.mobility_update_s);
  policy_->on_mobility(id, s.state, now_);

  cellular::BaseStation* here =
      network_->station_covering(s.state.position);
  if (here == nullptr) {
    // The session crosses into a neighbouring shard; the engine routes it
    // at the barrier (or completes it at the super-grid's edge).
    depart(s);
    return;
  }
  if (here != s.serving) {
    do_handoff(s, *here);
    if (!sessions_.contains(id)) return;  // dropped during handoff
  }
  schedule(now_ + scenario_.mobility_update_s,
           Event{id, s.generation, EventKind::kMobility});
}

cac::AdmissionRequest SessionDriver::inbound_request(
    const Handover& arrival) {
  cellular::BaseStation* bs =
      network_->station_covering(arrival.state.position);
  FACSP_ENSURES(bs != nullptr);  // entry_fraction keeps entries in-cell
  auto req = make_request(arrival.conn, arrival.state, RequestKind::kHandoff,
                          *bs);
  req.now = arrival.when;
  return req;
}

bool SessionDriver::admit_inbound(const Handover& arrival,
                                  const cac::AdmissionRequest& req) {
  cellular::BaseStation* bs =
      network_->station_covering(arrival.state.position);
  FACSP_ENSURES(bs != nullptr);

  Session s;
  s.conn = arrival.conn;
  s.state = arrival.state;
  s.measured = arrival.measured;
  if (!bs->allocate(s.conn, arrival.when, /*via_handoff=*/true))
    return false;  // the batch over-admitted past physical capacity
  policy_->on_admitted(req, *bs);
  s.serving = bs;
  s.conn.state = ConnectionState::kActive;
  s.conn.start_time = arrival.when;
  s.conn.holding_time = arrival.remaining_holding_s;
  ++s.conn.handoff_count;

  start(std::move(s), arrival.when + arrival.remaining_holding_s,
        arrival.when + scenario_.mobility_update_s);
  return true;
}

void SessionDriver::begin(int n_requests) {
  FACSP_EXPECTS(n_requests >= 0);
  network_->start_metrics(0.0);

  // Element 0 is the centre's generator: its calls are the measured ones.
  // A spawner offering no calls builds no generator: its stream and id
  // range are its own, so skipping it changes no other spawner's draws.
  for (std::size_t g = 0; g < traffic_.size(); ++g) {
    const Spawner& sp = traffic_[g];
    const int count =
        workload::SpatialLoadMap::scaled_requests(sp.weight, n_requests);
    if (count > 0) {
      cellular::TrafficGenerator gen(scenario_.traffic, network_->layout(),
                                     sp.coord, sp.position,
                                     rng_.stream("traffic", sp.stream),
                                     sp.first_id);
      for (const auto& call : gen.generate(count)) {
        schedule(call.arrival_time, Event{arrivals_.size(), 0,
                                          EventKind::kArrival});
        arrivals_.push_back(call);
      }
    }
    if (g == 0) measured_arrivals_ = arrivals_.size();
  }
}

void SessionDriver::schedule(sim::SimTime when, const Event& e) {
  FACSP_EXPECTS_MSG(when >= now_, "event at " << when
                                              << " is in the past (now="
                                              << now_ << ")");
  heap_.push(when, e);
}

void SessionDriver::start(Session s, sim::SimTime completion_at,
                          sim::SimTime first_move_at) {
  s.generation = next_generation_++;
  const ConnectionId id = s.conn.id;
  schedule(completion_at, Event{id, s.generation, EventKind::kCompletion});
  if (scenario_.enable_mobility)
    schedule(first_move_at, Event{id, s.generation, EventKind::kMobility});
  const bool inserted = sessions_.emplace(id, std::move(s)).second;
  FACSP_ENSURES(inserted);  // generator and shard id ranges are disjoint
}

SessionDriver::Session* SessionDriver::target(const Event& e) {
  const auto it = sessions_.find(e.key);
  if (it == sessions_.end() || it->second.generation != e.generation)
    return nullptr;
  return &it->second;
}

void SessionDriver::skim() {
  while (!heap_.empty() && heap_.top().record.kind != EventKind::kArrival &&
         target(heap_.top().record) == nullptr)
    heap_.pop();
}

void SessionDriver::fire(const Event& e) {
  switch (e.kind) {
    case EventKind::kArrival:
      handle_arrival(arrivals_[e.key], e.key < measured_arrivals_);
      return;
    case EventKind::kCompletion:
      finish(*target(e), ConnectionState::kCompleted);
      return;
    case EventKind::kMobility:
      handle_mobility(*target(e));
      return;
  }
}

std::uint64_t SessionDriver::advance_until(sim::SimTime t) {
  FACSP_EXPECTS(t >= now_);
  // skim() after every event keeps a live event on top, so the loop, idle()
  // and next_event_time() never see a stale one.
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.top().when <= t) {
    const auto e = heap_.pop();
    now_ = e.when;  // the clock advances before the event runs
    last_event_ = now_;
    fire(e.record);
    ++fired_;
    ++n;
    skim();
  }
  if (now_ < t) now_ = t;
  return n;
}

sim::SimTime SessionDriver::next_event_time() const {
  return heap_.empty() ? std::numeric_limits<sim::SimTime>::infinity()
                       : heap_.top().when;
}

namespace {
/// Floor of the averaging window, so a run that fired nothing divides by a
/// positive span.
constexpr sim::SimTime kMinDurationS = 1e-9;
}  // namespace

RunResult SessionDriver::result() const {
  RunResult result;
  result.metrics = metrics_;
  // Average over the active period (first arrival batch to last event),
  // not to the safety horizon — advance_until() parks the clock there even
  // when the system drained hours earlier.
  const sim::SimTime end = std::max(last_event_, kMinDurationS);
  result.duration_s = end;
  result.events = fired_;
  result.center_utilization =
      network_->center().average_utilization(end);
  return result;
}

RunResult SessionDriver::idle_result() {
  // No event: empty metrics, no load ever carried (utilization 0 over the
  // floor window), zero events.
  RunResult result;
  result.duration_s = kMinDurationS;
  return result;
}

}  // namespace facsp::core
