#include "cac/scc.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "cellular/network.h"
#include "common/error.h"
#include "common/math_util.h"

namespace facsp::cac {
namespace {

using cellular::CellularNetwork;
using cellular::HexCoord;
using cellular::MobileState;
using cellular::RequestKind;
using cellular::ServiceClass;

struct SccFixture : ::testing::Test {
  CellularNetwork net{2, 2000.0, 40.0};
  SccConfig cfg;

  SccFixture() {
    cfg.mean_holding_s = 300.0;
  }

  AdmissionRequest request(cellular::ConnectionId id, ServiceClass svc,
                           double speed = 60.0, double heading = 0.0,
                           RequestKind kind = RequestKind::kNew) {
    AdmissionRequest req;
    req.id = id;
    req.service = svc;
    req.bandwidth = cellular::service_bandwidth(svc);
    req.kind = kind;
    req.speed_kmh = speed;
    req.mobile = MobileState{{0.0, 0.0}, speed, heading};
    return req;
  }
};

TEST_F(SccFixture, EmptyNetworkAcceptsTextAndVoice) {
  SccPolicy scc(net, cfg);
  EXPECT_TRUE(scc.decide(request(1, ServiceClass::kText), net.center())
                  .admitted);
  EXPECT_TRUE(scc.decide(request(2, ServiceClass::kVoice), net.center())
                  .admitted);
}

TEST_F(SccFixture, CellProbabilitySumsToAtMostOneAcrossCells) {
  SccPolicy scc(net, cfg);
  const MobileState st{{0.0, 0.0}, 60.0, 30.0};
  for (double tau : {30.0, 60.0, 120.0, 180.0}) {
    double total = 0.0;
    for (const auto& cell : cellular::hex_disc({0, 0}, 2))
      total += scc.cell_probability(st, cell, tau);
    EXPECT_LE(total, 1.0 + 1e-9) << "tau=" << tau;
    EXPECT_GE(total, 0.0);
  }
}

TEST_F(SccFixture, StationaryMobileStaysInItsCell) {
  SccPolicy scc(net, cfg);
  const MobileState st{{0.0, 0.0}, 0.0, 0.0};
  EXPECT_NEAR(scc.cell_probability(st, {0, 0}, 60.0), 1.0, 1e-9);
  EXPECT_NEAR(scc.cell_probability(st, {1, 0}, 60.0), 0.0, 1e-9);
}

TEST_F(SccFixture, FastMobileShadowMovesToNextCell) {
  SccPolicy scc(net, cfg);
  // 120 km/h heading east: after 120 s it has moved ~4 km = past the
  // eastern neighbour's centre (sqrt(3)*2000 ~ 3.46 km).
  const MobileState st{{0.0, 0.0}, 120.0, 0.0};
  const double p_home = scc.cell_probability(st, {0, 0}, 120.0);
  const double p_east = scc.cell_probability(st, {1, 0}, 120.0);
  EXPECT_LT(p_home, 0.3);
  EXPECT_GT(p_east, 0.5);
}

TEST_F(SccFixture, ProjectedDemandAccumulatesActives) {
  SccPolicy scc(net, cfg);
  EXPECT_DOUBLE_EQ(scc.projected_demand({0, 0}, 60.0), 0.0);
  auto req = request(1, ServiceClass::kVideo, 0.0);  // stationary video
  scc.on_admitted(req, net.center());
  EXPECT_EQ(scc.active_count(), 1u);
  const double d = scc.projected_demand({0, 0}, 60.0);
  // Stationary -> stays; demand = bw, possibly survival-discounted.
  const double surv = cfg.discount_survival
                          ? std::exp(-60.0 / cfg.mean_holding_s)
                          : 1.0;
  EXPECT_NEAR(d, 10.0 * surv, 1e-6);
}

TEST_F(SccFixture, ReleasedActivesStopCastingShadows) {
  SccPolicy scc(net, cfg);
  auto req = request(1, ServiceClass::kVideo, 0.0);
  scc.on_admitted(req, net.center());
  scc.on_released(1, {10.0, true, false}, net.center());
  EXPECT_EQ(scc.active_count(), 0u);
  EXPECT_DOUBLE_EQ(scc.projected_demand({0, 0}, 60.0), 0.0);
}

TEST_F(SccFixture, MobilityUpdatesMoveTheShadow) {
  SccPolicy scc(net, cfg);
  auto req = request(1, ServiceClass::kVideo, 0.0);
  scc.on_admitted(req, net.center());
  // Teleport the active into the eastern neighbour.
  const auto east_center = net.layout().center({1, 0});
  scc.on_mobility(1, MobileState{east_center, 0.0, 0.0}, 100.0);
  EXPECT_NEAR(scc.projected_demand({0, 0}, 60.0), 0.0, 1e-9);
  EXPECT_GT(scc.projected_demand({1, 0}, 60.0), 0.0);
}

TEST_F(SccFixture, ReservationRejectsVideoUnderLoad) {
  // With the default 0.22 threshold (8.8 BU future headroom), a video call
  // cannot get reservations once meaningful demand is projected.
  SccPolicy scc(net, cfg);
  for (cellular::ConnectionId id = 1; id <= 1; ++id) {
    auto req = request(id, ServiceClass::kVoice, 0.0);
    // Physically allocate too, so decide() sees the BS load.
    cellular::Connection c;
    c.id = id;
    c.service = ServiceClass::kVoice;
    c.bandwidth = 5.0;
    ASSERT_TRUE(net.center().allocate(c, 0.0));
    scc.on_admitted(req, net.center());
  }
  const auto d = scc.decide(request(10, ServiceClass::kVideo, 0.0),
                            net.center());
  EXPECT_FALSE(d.admitted);
  // A text call still fits.
  EXPECT_TRUE(scc.decide(request(11, ServiceClass::kText, 0.0), net.center())
                  .admitted);
}

TEST_F(SccFixture, HandoffRequesterNotDoubleCounted) {
  SccPolicy scc(net, cfg);
  auto req = request(1, ServiceClass::kVideo, 0.0);
  scc.on_admitted(req, net.center());
  // The same connection handing off into its own cell region must not be
  // rejected because of its *own* shadow.
  auto ho = request(1, ServiceClass::kVideo, 0.0, 0.0, RequestKind::kHandoff);
  const auto with_self = scc.decide(ho, net.center());
  scc.on_released(1, {10.0, true, false}, net.center());
  auto fresh = request(1, ServiceClass::kVideo, 0.0, 0.0,
                       RequestKind::kHandoff);
  const auto without_self = scc.decide(fresh, net.center());
  EXPECT_NEAR(with_self.score, without_self.score, 1e-9);
}

TEST_F(SccFixture, ResetDropsAllState) {
  SccPolicy scc(net, cfg);
  scc.on_admitted(request(1, ServiceClass::kVideo), net.center());
  scc.reset();
  EXPECT_EQ(scc.active_count(), 0u);
}

TEST_F(SccFixture, PhysicallyFullCellRejects) {
  SccPolicy scc(net, cfg);
  for (cellular::ConnectionId id = 1; id <= 4; ++id) {
    cellular::Connection c;
    c.id = id;
    c.service = ServiceClass::kVideo;
    c.bandwidth = 10.0;
    ASSERT_TRUE(net.center().allocate(c, 0.0));
  }
  const auto d = scc.decide(request(9, ServiceClass::kText), net.center());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.verdict, Verdict::kReject);
}

// --- reach-circle filter ---------------------------------------------------
//
// cell_probability decides cells the reach circle clears or stays inside
// without projecting a node.  The reference below is the plain seven-node
// loop; the filtered result must equal it bit for bit.

double reference_probability(const CellularNetwork& net, const SccConfig& cfg,
                             const MobileState& state, const HexCoord& cell,
                             double tau) {
  constexpr std::array<std::array<double, 2>, 7> kNodes = {{
      {-2.651961356835233, 0.0009717812450995192 / 1.7724538509055160},
      {-1.673551628767471, 0.05451558281912703 / 1.7724538509055160},
      {-0.8162878828589647, 0.4256072526101278 / 1.7724538509055160},
      {0.0, 0.8102646175568073 / 1.7724538509055160},
      {0.8162878828589647, 0.4256072526101278 / 1.7724538509055160},
      {1.673551628767471, 0.05451558281912703 / 1.7724538509055160},
      {2.651961356835233, 0.0009717812450995192 / 1.7724538509055160},
  }};
  const double v_ms = state.speed_kmh / 3.6;
  const double sigma = cfg.heading_sigma_base_deg * cfg.heading_reference_kmh /
                       (std::max(0.0, state.speed_kmh) +
                        cfg.heading_reference_kmh);
  const double spread = sigma * std::sqrt(std::max(tau, 1.0) / 60.0);
  double p = 0.0;
  for (const auto& [t, w] : kNodes) {
    const double h =
        deg_to_rad(state.heading_deg + std::sqrt(2.0) * spread * t);
    const cellular::Point proj{state.position.x + v_ms * tau * std::cos(h),
                               state.position.y + v_ms * tau * std::sin(h)};
    if (net.layout().cell_at(proj) == cell) p += w;
  }
  return std::min(p, 1.0);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_matches_reference(const SccPolicy& scc, const CellularNetwork& net,
                              const SccConfig& cfg, const MobileState& st,
                              const HexCoord& cell, double tau) {
  EXPECT_EQ(bits(scc.cell_probability(st, cell, tau)),
            bits(reference_probability(net, cfg, st, cell, tau)))
      << "pos " << st.position << " v " << st.speed_kmh << " hdg "
      << st.heading_deg << " cell " << cell << " tau " << tau;
}

// Speed (km/h) whose reach over tau seconds is `reach` metres.
double speed_for_reach(double reach, double tau) { return reach / tau * 3.6; }

TEST(SccReachFilter, MatchesNodeLoopOnRandomTriples) {
  for (const double radius : {500.0, 2000.0}) {
    CellularNetwork net{2, radius, 40.0};
    const SccConfig cfg;
    const SccPolicy scc(net, cfg);
    std::mt19937_64 rng(20261020);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto around = cellular::hex_disc({0, 0}, 3);
    const auto nearby = cellular::hex_disc({0, 0}, 2);
    std::uint64_t decided_zero = 0, decided_one = 0;
    for (int i = 0; i < 60000; ++i) {
      // Mobiles anywhere within three rings (cells outside the modelled
      // disc included), slow and fast, over the policy's windows and
      // arbitrary horizons.
      const HexCoord home = around[rng() % around.size()];
      const cellular::Point c = net.layout().center(home);
      const cellular::Point pos{c.x + (2 * unit(rng) - 1) * radius,
                                c.y + (2 * unit(rng) - 1) * radius};
      const double speed =
          rng() % 8 == 0 ? 0.0 : (rng() % 2 ? 10.0 : 130.0) * unit(rng);
      const MobileState st{pos, speed, 360.0 * unit(rng) - 180.0};
      const double tau =
          rng() % 2 ? 60.0 * static_cast<double>(1 + rng() % 3)
                    : 300.0 * unit(rng);
      const HexCoord near = nearby[rng() % nearby.size()];
      const HexCoord at = net.layout().cell_at(pos).value();
      const HexCoord cell{at.q + near.q, at.r + near.r};
      const double p = scc.cell_probability(st, cell, tau);
      decided_zero += p == 0.0;
      decided_one += p == 1.0;
      expect_matches_reference(scc, net, cfg, st, cell, tau);
    }
    // Both shortcuts are exercised, not just the fall-through loop.
    EXPECT_GT(decided_zero, 1000u);
    EXPECT_GT(decided_one, 1000u);
  }
}

TEST(SccReachFilter, MatchesNodeLoopAtTheBoundsOfBothShortcuts) {
  const double radius = 2000.0;
  const double inradius = radius * std::sqrt(3.0) / 2.0;
  CellularNetwork net{1, radius, 40.0};
  const SccConfig cfg;
  const SccPolicy scc(net, cfg);
  const HexCoord cell{0, 0};
  const cellular::Point centre = net.layout().center(cell);
  const double tau = 120.0;
  for (const double d : {0.0, 1.0, 300.0, 900.0, 1500.0, 1700.0}) {
    for (const double hdg : {-150.0, -30.0, 0.0, 45.0, 90.0, 180.0}) {
      const double a = deg_to_rad(hdg + 17.0);
      const cellular::Point pos{centre.x + d * std::cos(a),
                                centre.y + d * std::sin(a)};
      for (const double delta :
           {-2e-6, -1e-6, -5e-7, -1e-9, 0.0, 1e-9, 5e-7, 1e-6, 2e-6}) {
        // Circle just clearing / just touching the circumcircle, from
        // outside (reach ~ d + R) and, for far mobiles, from the side
        // (reach ~ d - R); and just inside / on the incircle.
        for (const double reach :
             {d + radius + delta, d - radius + delta, inradius - d + delta}) {
          if (reach < 0.0) continue;
          const MobileState st{pos, speed_for_reach(reach, tau), hdg};
          expect_matches_reference(scc, net, cfg, st, cell, tau);
          expect_matches_reference(scc, net, cfg, st, {1, 0}, tau);
        }
      }
    }
  }
}

TEST(SccReachFilter, MatchesNodeLoopOnEdgesAndVertices) {
  for (const double radius : {500.0, 2000.0}) {
    CellularNetwork net{1, radius, 40.0};
    const SccConfig cfg;
    const SccPolicy scc(net, cfg);
    const auto cells = cellular::hex_disc({0, 0}, 2);
    for (const HexCoord& home : cellular::hex_disc({0, 0}, 1)) {
      const cellular::Point c = net.layout().center(home);
      for (int k = 0; k < 6; ++k) {
        // Pointy-top hexagon: vertices at 30 + 60k degrees, edge midpoints
        // at 60k degrees on the incircle.
        const double va = deg_to_rad(30.0 + 60.0 * k);
        const double ea = deg_to_rad(60.0 * k);
        const double in = radius * std::sqrt(3.0) / 2.0;
        for (const cellular::Point pos :
             {cellular::Point{c.x + radius * std::cos(va),
                              c.y + radius * std::sin(va)},
              cellular::Point{c.x + in * std::cos(ea), c.y + in * std::sin(ea)}}) {
          for (const double speed : {0.0, 4.0, 60.0, 120.0}) {
            for (const double tau : {0.0, 60.0, 180.0}) {
              const MobileState st{pos, speed, 60.0 * k - 90.0};
              for (const HexCoord& cell : cells)
                expect_matches_reference(scc, net, cfg, st, cell, tau);
            }
          }
        }
      }
    }
  }
}

TEST(SccReachFilter, StationaryMobileIsDecidedByItsCellAlone) {
  CellularNetwork net{1, 1000.0, 40.0};
  const SccConfig cfg;
  const SccPolicy scc(net, cfg);
  for (const double x : {0.0, 200.0, 700.0, 866.0, 866.0254037844386, 900.0,
                         1500.0, 1732.0, 2600.0}) {
    const MobileState st{{x, 0.25 * x}, 0.0, 10.0};
    for (const HexCoord& cell : cellular::hex_disc({0, 0}, 2))
      for (const double tau : {0.0, 60.0, 180.0})
        expect_matches_reference(scc, net, cfg, st, cell, tau);
  }
}

TEST(SccReachFilter, CellsOutsideTheModelledDiscMatchTheNodeLoop) {
  // rings = 0: every neighbour of the only station lies outside the disc.
  CellularNetwork net{0, 500.0, 40.0};
  const SccConfig cfg;
  const SccPolicy scc(net, cfg);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 5000; ++i) {
    const MobileState st{{(2 * unit(rng) - 1) * 600.0,
                          (2 * unit(rng) - 1) * 600.0},
                         120.0 * unit(rng), 360.0 * unit(rng) - 180.0};
    for (const HexCoord& cell : cellular::hex_disc({0, 0}, 2))
      expect_matches_reference(scc, net, cfg, st, cell, 60.0 + 60.0 * (i % 3));
  }
}

// --- node classifier -------------------------------------------------------
//
// A projected node is placed with scc_detail::approx_sincos and tested
// against the cell's hexagon; only nodes within the slack of an edge take
// std::cos/std::sin and cell_at.  The nodes below sit on edges and vertices,
// where that fallback must decide, and the result must still equal the
// plain seven-node loop bit for bit.

TEST(SccNodeClassifier, ApproxSinCosStaysWithinItsBoundOverTheDomain) {
  using scc_detail::approx_sincos;
  using scc_detail::kSinCosBound;
  using scc_detail::kSinCosMaxArg;
  double worst = 0.0;
  const auto check = [&worst](double x) {
    const scc_detail::SinCos sc = approx_sincos(x);
    const double err = std::max(std::fabs(sc.sin - std::sin(x)),
                                std::fabs(sc.cos - std::cos(x)));
    worst = std::max(worst, err);
    EXPECT_LE(err, kSinCosBound) << "x " << x;
  };
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> whole(-kSinCosMaxArg, kSinCosMaxArg);
  std::uniform_real_distribution<double> small(-8.0, 8.0);
  for (int i = 0; i < 1000000; ++i) {
    check(whole(rng));
    check(small(rng));
  }
  // Around every quadrant and octant boundary, where the reduction switches
  // quadrant or the reduced argument reaches pi/4.
  for (double k = -1304.0; k <= 1304.0; k += 1.0) {
    const double x = k * (kPi / 4.0);
    if (std::fabs(x) > kSinCosMaxArg) continue;
    check(x);
    check(std::nextafter(x, -2e3));
    check(std::nextafter(x, 2e3));
    for (const double d : {-1e-9, 1e-9, -1e-6, 1e-6}) check(x + d);
  }
  for (const double x : {0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-8,
                         kSinCosMaxArg, -kSinCosMaxArg})
    check(x);
  EXPECT_GT(worst, 0.0);
  std::cout << "approx_sincos: worst |error| " << worst << " (bound "
            << kSinCosBound << ")\n";
}

TEST(SccNodeClassifier, NonFiniteAndOutOfRangeArgumentsAreNotApproximated) {
  using scc_detail::approx_sincos;
  using scc_detail::kSinCosMaxArg;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {std::numeric_limits<double>::quiet_NaN(), inf, -inf,
                         std::nextafter(kSinCosMaxArg, inf),
                         -std::nextafter(kSinCosMaxArg, inf), 1e6, -1e300}) {
    const scc_detail::SinCos sc = approx_sincos(x);
    EXPECT_TRUE(std::isnan(sc.sin)) << "x " << x;
    EXPECT_TRUE(std::isnan(sc.cos)) << "x " << x;
  }
}

TEST(SccNodeClassifier, OutOfRangeHeadingsMatchTheNodeLoop) {
  // Headings beyond approx_sincos's domain give NaN nodes, which every cell
  // test sends to the exact placement.  (A NaN or infinite heading has no
  // finite node to compare: cell_at would convert NaN to int.)
  CellularNetwork net{1, 500.0, 40.0};
  const SccConfig cfg;
  const SccPolicy scc(net, cfg);
  for (const double hdg : {58000.0, 58700.0, -58700.0, 1e7, -3.3e9, 1e15}) {
    // Vertex of the home cell and an eastern mobile, so the reach circle
    // crosses several hexagons and no shortcut decides them.
    for (const cellular::Point pos :
         {cellular::Point{0.0, 500.0}, cellular::Point{300.0, -120.0}}) {
      const MobileState st{pos, 30.0, hdg};
      for (const HexCoord& cell : cellular::hex_disc({0, 0}, 2))
        for (const double tau : {60.0, 180.0})
          expect_matches_reference(scc, net, cfg, st, cell, tau);
    }
  }
}

// A mobile at `from` whose centre (t = 0) node lands on `target` after tau.
MobileState aimed_at(const cellular::Point& from, const cellular::Point& target,
                     double tau) {
  const double dx = target.x - from.x;
  const double dy = target.y - from.y;
  return MobileState{from, speed_for_reach(std::hypot(dx, dy), tau),
                     rad_to_deg(std::atan2(dy, dx))};
}

// Hexagon vertices and edge midpoints of every cell within one ring of the
// centre cell, each moved radially by -2e-6 .. 2e-6 m.
std::vector<cellular::Point> edge_targets(const CellularNetwork& net) {
  const double radius = net.layout().cell_radius();
  std::vector<cellular::Point> out;
  for (const HexCoord& home : cellular::hex_disc({0, 0}, 1)) {
    const cellular::Point c = net.layout().center(home);
    for (int k = 0; k < 6; ++k) {
      for (const auto& [deg, dist] :
           {std::pair{30.0 + 60.0 * k, radius},
            std::pair{60.0 * k, radius * std::sqrt(3.0) / 2.0}}) {
        const double a = deg_to_rad(deg);
        for (const double delta :
             {-2e-6, -1e-6, -5e-7, -1e-9, 0.0, 1e-9, 5e-7, 1e-6, 2e-6})
          out.push_back({c.x + (dist + delta) * std::cos(a),
                         c.y + (dist + delta) * std::sin(a)});
      }
    }
  }
  return out;
}

TEST(SccNodeClassifier, NodesOnEdgesAndVerticesMatchTheNodeLoop) {
  for (const double radius : {500.0, 2000.0}) {
    for (const int rings : {0, 1}) {
      CellularNetwork net{rings, radius, 40.0};
      const SccConfig cfg;
      const SccPolicy scc(net, cfg);
      // Mobiles inside the centre cell, in a neighbour and beyond the
      // modelled disc; every cell within two rings, so cells outside the
      // disc are tested too.
      const std::array<cellular::Point, 3> froms = {
          cellular::Point{0.31 * radius, -0.17 * radius},
          cellular::Point{1.9 * radius, 0.4 * radius},
          cellular::Point{-2.2 * radius, -2.6 * radius}};
      const auto cells = cellular::hex_disc({0, 0}, 2);
      for (const cellular::Point& target : edge_targets(net)) {
        for (const cellular::Point& from : froms) {
          for (const double tau : {60.0, 180.0}) {
            const MobileState st = aimed_at(from, target, tau);
            for (const HexCoord& cell : cells)
              expect_matches_reference(scc, net, cfg, st, cell, tau);
          }
        }
      }
    }
  }
}

// decide() over a 1-cell (rings = 0) and a 7-cell (rings = 1) cluster, with
// the active's and the requester's centre nodes on edges and vertices.  The
// reference repeats decide()'s arithmetic over the plain seven-node loop.
double reference_decide_score(const CellularNetwork& net, const SccConfig& cfg,
                              const AdmissionRequest& req,
                              const MobileState& active, double active_bw,
                              const cellular::BaseStation& bs) {
  double worst = 1.0;
  for (int k = 1; k <= cfg.windows; ++k) {
    const double tau = k * cfg.window_s;
    const double surv = std::exp(-tau / cfg.mean_holding_s);
    for (const HexCoord& cell :
         cellular::hex_disc(bs.coord(), cfg.cluster_radius)) {
      const cellular::BaseStation* target = net.station_at(cell);
      if (target == nullptr) continue;
      const double demand =
          0.0 + reference_probability(net, cfg, active, cell, tau) *
                    active_bw * surv;
      const double p = reference_probability(net, cfg, req.mobile, cell, tau);
      const double share =
          p > cfg.reach_probability_min ? req.bandwidth : p * req.bandwidth;
      const double cap = cfg.admit_threshold * target->capacity();
      worst = std::min(
          worst, (cap - (demand + share - 0.0)) / target->capacity());
    }
  }
  worst = std::min(worst, (bs.capacity() - (bs.load().used + req.bandwidth)) /
                              bs.capacity());
  return clamp(worst * 2.0, -1.0, 1.0);
}

TEST(SccNodeClassifier, DecideOnEdgeNodesMatchesTheNodeLoop) {
  for (const int rings : {0, 1}) {
    CellularNetwork net{rings, 500.0, 40.0};
    const SccConfig cfg;
    const auto targets = edge_targets(net);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < targets.size(); i += 5) {
      SccPolicy scc(net, cfg);
      // The active reaches its target in the first window, the requester
      // in the third.
      const MobileState active =
          aimed_at({120.0, 80.0}, targets[i], cfg.window_s);
      AdmissionRequest owner;
      owner.id = 1;
      owner.bandwidth = cellular::service_bandwidth(ServiceClass::kVoice);
      owner.mobile = active;
      scc.on_admitted(owner, net.center());
      AdmissionRequest req;
      req.id = 2;
      req.service = ServiceClass::kText;
      req.bandwidth = cellular::service_bandwidth(ServiceClass::kText);
      req.mobile = aimed_at({-90.0, 40.0}, targets[(i * 7 + 3) % targets.size()],
                            3 * cfg.window_s);
      for (const cellular::BaseStation* bs : net.stations()) {
        EXPECT_EQ(bits(scc.decide(req, *bs).score),
                  bits(reference_decide_score(net, cfg, req, active,
                                              owner.bandwidth, *bs)))
            << "rings " << rings << " target " << i << " station "
            << bs->coord();
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

// decide() projects each (mobile, window) pair once for the whole cluster;
// its margin must equal the per-cell formula over cell_probability and
// projected_demand, including a registered handoff requester's own shadow.
double reference_score(const SccPolicy& scc, const CellularNetwork& net,
                       const SccConfig& cfg, const AdmissionRequest& req,
                       const MobileState* registered, double registered_bw,
                       const cellular::BaseStation& bs) {
  double worst = 1.0;
  for (int k = 1; k <= cfg.windows; ++k) {
    const double tau = k * cfg.window_s;
    const double surv = std::exp(-tau / cfg.mean_holding_s);
    for (const HexCoord& cell : cellular::hex_disc(bs.coord(), 1)) {
      const cellular::BaseStation* target = net.station_at(cell);
      if (target == nullptr) continue;
      const double p = scc.cell_probability(req.mobile, cell, tau);
      const double share =
          p > cfg.reach_probability_min ? req.bandwidth : p * req.bandwidth;
      double demand = scc.projected_demand(cell, tau) + share;
      if (registered != nullptr)
        demand -= scc.cell_probability(*registered, cell, tau) *
                  registered_bw * surv;
      const double cap = cfg.admit_threshold * target->capacity();
      worst = std::min(worst, (cap - demand) / target->capacity());
    }
  }
  worst = std::min(worst, (bs.capacity() - (bs.load().used + req.bandwidth)) /
                              bs.capacity());
  return clamp(worst * 2.0, -1.0, 1.0);
}

TEST_F(SccFixture, DecideMatchesPerCellReferenceOnEveryStation) {
  SccPolicy scc(net, cfg);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<MobileState> states;
  for (cellular::ConnectionId id = 1; id <= 40; ++id) {
    const MobileState st{{(2 * unit(rng) - 1) * 7000.0,
                          (2 * unit(rng) - 1) * 7000.0},
                         100.0 * unit(rng), 360.0 * unit(rng) - 180.0};
    auto req = request(id, id % 3 ? ServiceClass::kText : ServiceClass::kVoice);
    req.mobile = st;
    scc.on_admitted(req, net.center());
    states.push_back(st);
  }
  for (const cellular::BaseStation* bs : net.stations()) {
    for (cellular::ConnectionId id : {5ull, 1000ull}) {
      auto req = request(id, ServiceClass::kVoice, 0.0, 0.0,
                         id == 5 ? RequestKind::kHandoff : RequestKind::kNew);
      req.mobile = MobileState{net.layout().center(bs->coord()), 30.0, 75.0};
      const MobileState* registered = id == 5 ? &states[4] : nullptr;
      const double bw = cellular::service_bandwidth(ServiceClass::kText);
      EXPECT_EQ(bits(scc.decide(req, *bs).score),
                bits(reference_score(scc, net, cfg, req, registered, bw, *bs)))
          << "station " << bs->coord() << " id " << id;
    }
  }
}

TEST(SccConfig, Validation) {
  CellularNetwork net(1, 1000.0, 40.0);
  SccConfig bad;
  bad.windows = 0;
  EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError);
  bad = {};
  bad.window_s = 0.0;
  EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError);
  bad = {};
  bad.admit_threshold = 0.0;
  EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError);
  bad = {};
  bad.admit_threshold = 1.2;
  EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError);
  bad = {};
  bad.cluster_radius = -1;
  EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError);

  // NaN fails every comparison, so each field is checked for it, and the
  // unbounded ones for infinity.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double SccConfig::*field :
       {&SccConfig::window_s, &SccConfig::admit_threshold,
        &SccConfig::mean_holding_s, &SccConfig::heading_sigma_base_deg,
        &SccConfig::heading_reference_kmh,
        &SccConfig::reach_probability_min}) {
    for (const double v : {nan, inf, -inf}) {
      bad = {};
      bad.*field = v;
      EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError) << v;
    }
  }
  for (const double v : {-0.01, 1.01}) {
    bad = {};
    bad.reach_probability_min = v;
    EXPECT_THROW(SccPolicy(net, bad), facsp::ConfigError) << v;
  }
  for (const double v : {0.0, 1.0}) {
    SccConfig ok;
    ok.reach_probability_min = v;
    EXPECT_NO_THROW(SccPolicy(net, ok)) << v;
  }
}

}  // namespace
}  // namespace facsp::cac
