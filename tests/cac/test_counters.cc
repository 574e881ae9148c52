#include "cac/counters.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

#include "cac/facs_p.h"
#include "common/error.h"

namespace facsp::cac {
namespace {

using cellular::Holding;
using cellular::ServiceClass;

TEST(Counters, StartsEmpty) {
  DifferentiatedCounters c;
  EXPECT_DOUBLE_EQ(c.effective_occupancy(), 0.0);
}

TEST(Counters, EffectiveOccupancyAppliesWeights) {
  PriorityWeights w;
  w.real_time = 2.0;
  w.non_real_time = 1.0;
  w.handoff_bonus = 1.5;
  DifferentiatedCounters c(w);
  c.add({1.0, false, false});    // 1.0
  c.add({5.0, true, false});     // 10.0
  c.add({10.0, true, true});     // 2.0 * 1.5 * 10 = 30.0
  EXPECT_DOUBLE_EQ(c.effective_occupancy(), 41.0);
}

TEST(Counters, EffectiveAtLeastPhysicalWhenWeightsGeOne) {
  DifferentiatedCounters c;  // defaults >= 1
  c.add({5.0, true, false});
  c.add({1.0, false, true});
  EXPECT_GE(c.effective_occupancy(), 6.0);
}

TEST(Counters, RemoveRestoresState) {
  DifferentiatedCounters c;
  const Holding video{10.0, true, true};
  const Holding text{1.0, false, false};
  c.add(video);
  c.add(text);
  c.remove(video);
  EXPECT_DOUBLE_EQ(c.effective_occupancy(), 1.0);
  c.remove(text);
  EXPECT_DOUBLE_EQ(c.effective_occupancy(), 0.0);
}

TEST(Counters, WeightsBelowOneRejected) {
  PriorityWeights w;
  w.real_time = 0.5;
  EXPECT_THROW(DifferentiatedCounters{w}, facsp::ConfigError);
  w = {};
  w.handoff_bonus = 0.9;
  EXPECT_THROW(DifferentiatedCounters{w}, facsp::ConfigError);
}

TEST(Counters, ChurnLeavesNoDrift) {
  DifferentiatedCounters c;
  const auto holding = [](int i) {
    return Holding{i % 2 ? 5.0 : 1.0, i % 2 == 1, i % 3 == 0};
  };
  for (int i = 0; i < 500; ++i) c.add(holding(i));
  for (int i = 0; i < 500; ++i) c.remove(holding(i));
  EXPECT_DOUBLE_EQ(c.effective_occupancy(), 0.0);
}

// The weighted occupancy is fed from what the base station releases, not
// from a per-call record of its own.  Reference: the per-call ledger FACS-P
// used to keep, an id -> entry map doing the same add/remove arithmetic.
// Every Cs must keep its bits, so every comparison is exact.
struct ReferenceLedger {
  PriorityWeights weights;
  std::unordered_map<cellular::ConnectionId, Holding> entries;
  double rt_bw = 0.0, nrt_bw = 0.0, weighted = 0.0;

  double weighted_bw(const Holding& e) const {
    double w = e.real_time ? weights.real_time : weights.non_real_time;
    if (e.via_handoff) w *= weights.handoff_bonus;
    return w * e.bw;
  }
  void add(cellular::ConnectionId id, const Holding& e) {
    entries.emplace(id, e);
    (e.real_time ? rt_bw : nrt_bw) += e.bw;
    weighted += weighted_bw(e);
  }
  void remove(cellular::ConnectionId id) {
    const Holding e = entries.at(id);
    entries.erase(id);
    (e.real_time ? rt_bw : nrt_bw) -= e.bw;
    weighted -= weighted_bw(e);
    if (rt_bw < 1e-9) rt_bw = 0.0;
    if (nrt_bw < 1e-9) nrt_bw = 0.0;
    if (weighted < 1e-9) weighted = 0.0;
  }
};

TEST(FacsPCounters, WeightedOccupancyMatchesPerCallReference) {
  FacsPPolicy policy;
  std::vector<cellular::BaseStation> stations;
  for (cellular::BaseStationId b = 0; b < 3; ++b)
    stations.emplace_back(b, cellular::HexCoord{static_cast<int>(b), 0},
                          cellular::Point{1000.0 * b, 0.0}, 40.0);
  std::vector<ReferenceLedger> refs(stations.size(),
                                    ReferenceLedger{policy.config().weights});
  std::unordered_map<cellular::ConnectionId, std::size_t> where;
  std::vector<cellular::ConnectionId> live;

  // Allocate on station b and notify the policy as every caller does: the
  // request's bandwidth, class and kind are the connection's.
  const auto admit = [&](std::size_t b, cellular::ConnectionId id,
                         ServiceClass service, double bw, bool via_handoff,
                         double now) {
    AdmissionRequest req;
    req.id = id;
    req.service = service;
    req.bandwidth = bw;
    req.kind = via_handoff ? cellular::RequestKind::kHandoff
                           : cellular::RequestKind::kNew;
    cellular::Connection conn;
    conn.id = id;
    conn.service = service;
    conn.bandwidth = bw;
    if (!stations[b].allocate(conn, now, via_handoff)) return false;
    policy.on_admitted(req, stations[b]);
    refs[b].add(id, {bw, cellular::is_real_time(service), via_handoff});
    where.emplace(id, b);
    live.push_back(id);
    return true;
  };

  std::mt19937_64 rng(20260);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<int> svc_dist(0, 2);
  std::uniform_int_distribution<std::size_t> bs_dist(0, stations.size() - 1);
  // The socket path accepts any positive bandwidth, not just 1/5/10 BU.
  std::uniform_real_distribution<double> frac_bw(0.05, 6.0);
  const ServiceClass services[] = {ServiceClass::kText, ServiceClass::kVoice,
                                   ServiceClass::kVideo};
  cellular::ConnectionId next_id = 1;
  int admits = 0, releases = 0, handoffs = 0;
  for (int op = 0; op < 12000; ++op) {
    const int kind = live.empty() ? 0 : op_dist(rng);
    const double now = op * 0.01;
    if (kind < 4) {
      // A new call, or (kind 3) a handover from outside these stations.
      const ServiceClass svc = services[svc_dist(rng)];
      const double bw =
          op % 2 ? frac_bw(rng) : cellular::service_bandwidth(svc);
      admits += admit(bs_dist(rng), next_id++, svc, bw, kind == 3, now);
    } else {
      // Release a live call; for kind >= 7 it hands off to a neighbour.
      const std::size_t k =
          std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
      const cellular::ConnectionId id = live[k];
      const std::size_t from = where.at(id);
      const Holding e = refs[from].entries.at(id);
      policy.on_released(id, stations[from].release(id, now), stations[from]);
      refs[from].remove(id);
      live[k] = live.back();
      live.pop_back();
      where.erase(id);
      ++releases;
      if (kind >= 7)
        handoffs += admit((from + 1 + op % 2) % stations.size(), id,
                          e.real_time ? ServiceClass::kVoice
                                      : ServiceClass::kText,
                          e.bw, true, now);
    }
    for (std::size_t b = 0; b < stations.size(); ++b) {
      SCOPED_TRACE("op " + std::to_string(op) + " bs " + std::to_string(b));
      ASSERT_EQ(policy.counters(stations[b].id()).effective_occupancy(),
                refs[b].weighted);
      // The station's RTC/NRTC carry the old ledger's counters bit for bit.
      ASSERT_EQ(stations[b].load().rt_used, refs[b].rt_bw);
      ASSERT_EQ(stations[b].load().nrt_used, refs[b].nrt_bw);
    }
  }
  // Every path ran often.
  EXPECT_GT(admits, 1000);
  EXPECT_GT(releases, 1000);
  EXPECT_GT(handoffs, 1000);
}

}  // namespace
}  // namespace facsp::cac
