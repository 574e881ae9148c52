// Edge cases and failure-injection for the session driver.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cac/guard_channel.h"
#include "core/paper.h"
#include "core/session.h"
#include "facsp.h"  // umbrella header must compile and suffice on its own

namespace facsp::core {
namespace {

ScenarioConfig base(std::uint64_t seed = 5) {
  ScenarioConfig s = paper_scenario(seed);
  s.traffic.arrival_window_s = 200.0;
  s.traffic.mean_holding_s = 100.0;
  return s;
}

TEST(SessionEdge, SingleCellNetworkHasNoHandoffTargets) {
  // rings = 0: a lone cell.  Mobile users crossing the boundary simply
  // leave coverage; nothing may crash and nothing may be dropped.
  auto scen = base();
  scen.rings = 0;
  scen.traffic.fixed_speed_kmh = 100.0;
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 0);
  const RunResult r = driver.run(30);
  EXPECT_EQ(r.metrics.handoff_attempts(), 0u);
  EXPECT_EQ(r.metrics.dropped(), 0u);
  EXPECT_EQ(r.metrics.accepted_new(), r.metrics.completed());
}

TEST(SessionEdge, StationaryUsersNeverHandOff) {
  auto scen = base();
  scen.traffic.fixed_speed_kmh = 0.0;
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 1);
  const RunResult r = driver.run(25);
  EXPECT_EQ(r.metrics.handoff_attempts(), 0u);
  EXPECT_EQ(r.metrics.dropped(), 0u);
}

TEST(SessionEdge, TinyCellProducesManyHandoffs) {
  auto scen = base();
  scen.cell_radius_m = 250.0;  // ~15 s crossing at 60 km/h
  scen.rings = 2;
  scen.traffic.fixed_speed_kmh = 60.0;
  scen.traffic.mean_holding_s = 120.0;
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 2);
  const RunResult r = driver.run(20);
  EXPECT_GT(r.metrics.handoff_attempts(), 20u);
}

TEST(SessionEdge, HorizonCutsTheRunShort) {
  auto scen = base();
  scen.horizon_s = 50.0;  // well inside the arrival window
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 3);
  const RunResult r = driver.run(50);
  // Only arrivals before the horizon were processed.
  EXPECT_LT(r.metrics.offered_new(), 50u);
  EXPECT_LE(r.duration_s, 50.0 + 1e-9);
}

TEST(SessionEdge, CapacityOneCellStillConsistent) {
  auto scen = base();
  scen.capacity_bu = 1.0;  // only single text calls fit
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 4);
  const RunResult r = driver.run(40);
  EXPECT_EQ(r.metrics.accepted_new(),
            r.metrics.completed() + r.metrics.dropped());
  // Voice and video can never be admitted.
  EXPECT_DOUBLE_EQ(
      r.metrics.acceptance_percent(cellular::ServiceClass::kVideo), 0.0);
  EXPECT_DOUBLE_EQ(
      r.metrics.acceptance_percent(cellular::ServiceClass::kVoice), 0.0);
}

TEST(SessionEdge, AllVideoMixSaturatesInFourCalls) {
  auto scen = base();
  scen.enable_mobility = false;
  scen.traffic.mix = cellular::TrafficMix{0.0, 0.0, 1.0};
  scen.traffic.arrival_window_s = 1.0;   // effectively simultaneous
  scen.traffic.mean_holding_s = 1000.0;  // nobody leaves
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 5);
  const RunResult r = driver.run(10);
  // 40 BU / 10 BU per video = exactly 4 admissions.
  EXPECT_EQ(r.metrics.accepted_new(), 4u);
}

TEST(SessionEdge, VeryShortHoldingTimesChurnCleanly) {
  auto scen = base();
  scen.traffic.mean_holding_s = 1.0;
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 6);
  const RunResult r = driver.run(60);
  // Practically no overlap: everything admitted and completed.
  EXPECT_GT(r.metrics.acceptance_percent(), 95.0);
  EXPECT_EQ(r.metrics.accepted_new(), r.metrics.completed());
}

TEST(SessionEdge, RejectingPolicyLeavesCellEmpty) {
  // A policy that rejects everything: utilization must be exactly zero
  // and every call blocked.
  struct RejectAll final : cac::AdmissionPolicy {
    std::string_view name() const noexcept override { return "deny"; }
    cac::AdmissionDecision decide(const cac::AdmissionRequest&,
                                  const cellular::BaseStation&) override {
      return {false, -1.0, cac::Verdict::kReject};
    }
  };
  auto scen = base();
  RejectAll policy;
  SessionDriver driver(scen, policy, 7);
  const RunResult r = driver.run(30);
  EXPECT_EQ(r.metrics.accepted_new(), 0u);
  EXPECT_DOUBLE_EQ(r.metrics.acceptance_percent(), 0.0);
  EXPECT_DOUBLE_EQ(r.center_utilization, 0.0);
}

TEST(SessionEdge, ThrowingScenarioIsRejectedUpFront) {
  auto scen = base();
  scen.capacity_bu = -1.0;
  cac::CompleteSharingPolicy policy;
  EXPECT_THROW(SessionDriver(scen, policy, 0), ConfigError);
}

TEST(SessionEdge, DurationCoversLastEventNotHorizon) {
  auto scen = base();
  scen.horizon_s = 1e6;  // far beyond any activity
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 8);
  const RunResult r = driver.run(10);
  // Active period is the arrival window plus holding tails, nowhere near
  // the horizon.
  EXPECT_LT(r.duration_s, 5000.0);
  EXPECT_GT(r.duration_s, 0.0);
}

// --- the event loop ---------------------------------------------------------
// Sessions admitted through admit_inbound on a lone 500 m cell, so every
// event time is known: a session admitted at w with holding h completes at
// w + h and moves at w + 5, w + 10, ... (mobility_update_s = 5).

SessionDriver::CellArrival inbound(cellular::ConnectionId id,
                                   cellular::Point at, double speed_kmh,
                                   sim::SimTime when, sim::SimTime holding) {
  SessionDriver::CellArrival a;
  a.conn.id = id;
  a.state = cellular::MobileState{at, speed_kmh, 0.0};
  a.when = when;
  a.remaining_holding_s = holding;
  return a;
}

bool admit(SessionDriver& driver, const SessionDriver::CellArrival& a) {
  return driver.admit_inbound(a, driver.inbound_request(a));
}

ScenarioConfig lone_cell() {
  auto scen = base();
  scen.rings = 0;
  scen.cell_radius_m = 500.0;
  return scen;
}

TEST(SessionEdge, StaleEventsNeverHitASessionBackUnderItsId) {
  // A session that leaves and comes back under the same id gets a new
  // generation: the events its earlier lives left queued must not fire on
  // it.  B, parked at the centre, moves every 5 s, so a live event stays on
  // top of the heap and A's stale events stay queued beneath it instead of
  // being skimmed off an otherwise empty heap.
  const auto scen = lone_cell();
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 0);
  std::vector<SessionDriver::CellDeparture> departed;
  driver.set_departure_sink(
      [&departed](SessionDriver::CellDeparture d) { departed.push_back(d); });
  driver.begin(0);
  constexpr cellular::ConnectionId kA = 42, kB = 7;
  ASSERT_TRUE(admit(driver, inbound(kB, {0.0, 0.0}, 0.0, 0.0, 1000.0)));

  // A's first life: near the east edge heading out at 100 km/h.  It leaves
  // at its first move (t = 6); its completion at 31 stays queued.
  ASSERT_TRUE(admit(driver, inbound(kA, {400.0, 0.0}, 100.0, 1.0, 30.0)));
  EXPECT_EQ(driver.advance_until(6.0), 2u);  // B at 5, A leaves at 6
  ASSERT_EQ(departed.size(), 1u);
  EXPECT_DOUBLE_EQ(departed[0].when, 6.0);  // the clock moved first
  EXPECT_DOUBLE_EQ(departed[0].remaining_holding_s, 25.0);
  EXPECT_EQ(driver.session_count(), 1u);

  // Second life: parked; completes at 16.5 with its move at 21 queued.
  ASSERT_TRUE(admit(driver, inbound(kA, {0.0, 0.0}, 0.0, 6.0, 10.5)));
  EXPECT_EQ(driver.advance_until(16.5), 5u);  // B 10, 15; A 11, 16, 16.5
  EXPECT_EQ(driver.session_count(), 1u);

  // Third life, due to complete at 35.5.  The second life's move at 21 and
  // the first life's completion at 31 would move it or end it early.
  ASSERT_TRUE(admit(driver, inbound(kA, {0.0, 0.0}, 0.0, 16.5, 19.0)));
  EXPECT_EQ(driver.advance_until(35.0), 7u);  // B 20..35; A 21.5, 26.5, 31.5
  EXPECT_EQ(driver.session_count(), 2u);
  EXPECT_DOUBLE_EQ(driver.next_event_time(), 35.5);
  EXPECT_EQ(driver.advance_until(35.5), 1u);
  EXPECT_EQ(driver.session_count(), 1u);

  const RunResult r = driver.result();
  EXPECT_EQ(r.events, 15u);
  EXPECT_DOUBLE_EQ(r.duration_s, 35.5);
  EXPECT_EQ(departed.size(), 1u);
}

TEST(SessionEdge, AdvanceParksTheClockAndRejectsPastOrNonFiniteEvents) {
  const auto scen = lone_cell();
  cac::CompleteSharingPolicy policy;
  SessionDriver driver(scen, policy, 0);
  driver.begin(0);
  EXPECT_TRUE(driver.idle());
  ASSERT_TRUE(admit(driver, inbound(1, {0.0, 0.0}, 0.0, 0.0, 100.0)));
  EXPECT_FALSE(driver.idle());

  EXPECT_EQ(driver.advance_until(12.0), 2u);  // moves at 5 and 10
  EXPECT_DOUBLE_EQ(driver.next_event_time(), 15.0);
  EXPECT_DOUBLE_EQ(driver.result().duration_s, 10.0);  // not the horizon
  // The clock is parked at 12: earlier times are in the past, here the
  // advance target and a completion due at 11.5.
  EXPECT_THROW(driver.advance_until(11.0), ContractViolation);
  EXPECT_THROW(admit(driver, inbound(2, {0.0, 0.0}, 0.0, 11.0, 0.5)),
               ContractViolation);
  EXPECT_THROW(admit(driver, inbound(3, {0.0, 0.0}, 0.0, 12.0,
                                     std::numeric_limits<double>::infinity())),
               ContractViolation);
  EXPECT_TRUE(admit(driver, inbound(4, {0.0, 0.0}, 0.0, 12.0, 1.0)));
  EXPECT_EQ(driver.advance_until(13.0), 1u);  // 4 completes at 13
}

}  // namespace
}  // namespace facsp::core
