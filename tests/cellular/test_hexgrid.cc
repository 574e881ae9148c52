#include "cellular/hexgrid.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/error.h"
#include "sim/rng.h"

namespace facsp::cellular {
namespace {

TEST(HexCoord, CubeInvariant) {
  const HexCoord h{3, -1};
  EXPECT_EQ(h.q + h.r + h.s(), 0);
}

TEST(HexDistance, KnownValues) {
  EXPECT_EQ(hex_distance({0, 0}, {0, 0}), 0);
  EXPECT_EQ(hex_distance({0, 0}, {1, 0}), 1);
  EXPECT_EQ(hex_distance({0, 0}, {1, -1}), 1);
  EXPECT_EQ(hex_distance({0, 0}, {2, -1}), 2);
  EXPECT_EQ(hex_distance({-2, 1}, {3, -1}), 5);
}

TEST(HexDistance, Symmetric) {
  const HexCoord a{2, -3}, b{-1, 4};
  EXPECT_EQ(hex_distance(a, b), hex_distance(b, a));
}

TEST(HexNeighbors, SixUniqueAtDistanceOne) {
  const HexCoord c{1, 2};
  const auto ns = hex_neighbors(c);
  ASSERT_EQ(ns.size(), 6u);
  std::set<std::pair<int, int>> unique;
  for (const auto& n : ns) {
    EXPECT_EQ(hex_distance(c, n), 1);
    unique.insert({n.q, n.r});
  }
  EXPECT_EQ(unique.size(), 6u);
}

TEST(HexRing, SizesAndDistances) {
  EXPECT_EQ(hex_ring({0, 0}, 0).size(), 1u);
  for (int r = 1; r <= 4; ++r) {
    const auto ring = hex_ring({0, 0}, r);
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(6 * r));
    for (const auto& h : ring) EXPECT_EQ(hex_distance({0, 0}, h), r);
  }
}

TEST(HexDisc, SizeFormula) {
  for (int r = 0; r <= 4; ++r) {
    const auto disc = hex_disc({0, 0}, r);
    EXPECT_EQ(disc.size(), static_cast<std::size_t>(1 + 3 * r * (r + 1)));
    for (const auto& h : disc) EXPECT_LE(hex_distance({0, 0}, h), r);
  }
}

TEST(HexDisc, OffCenter) {
  const HexCoord c{5, -2};
  const auto disc = hex_disc(c, 2);
  EXPECT_EQ(disc.size(), 19u);
  for (const auto& h : disc) EXPECT_LE(hex_distance(c, h), 2);
}

TEST(HexLayout, CenterOfOriginIsOrigin) {
  const HexLayout layout(1000.0);
  const Point p = layout.center({0, 0});
  EXPECT_DOUBLE_EQ(p.x, 0.0);
  EXPECT_DOUBLE_EQ(p.y, 0.0);
}

TEST(HexLayout, CenterRoundTripsThroughCellAt) {
  const HexLayout layout(2000.0);
  for (const auto& h : hex_disc({0, 0}, 3)) {
    EXPECT_EQ(layout.cell_at(layout.center(h)), h)
        << "cell (" << h.q << "," << h.r << ")";
  }
}

TEST(HexLayout, NeighborCentersAreOneCellApart) {
  const HexLayout layout(1000.0);
  const Point c = layout.center({0, 0});
  // Pointy-top hexes: adjacent centres are sqrt(3)*R apart.
  for (const auto& n : hex_neighbors({0, 0})) {
    EXPECT_NEAR(distance(c, layout.center(n)), std::sqrt(3.0) * 1000.0,
                1e-6);
  }
}

TEST(HexLayout, PointsNearBoundaryResolveToSomeAdjacentCell) {
  const HexLayout layout(1000.0);
  sim::RandomStream rng(3);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)};
    const HexCoord h = layout.cell_at(p).value();
    // The chosen cell's centre must be the nearest or near-nearest centre.
    const double d_own = distance(p, layout.center(h));
    for (const auto& n : hex_neighbors(h)) {
      EXPECT_LE(d_own, distance(p, layout.center(n)) + 1e-6);
    }
  }
}

TEST(HexLayout, RandomPointInCellStaysInCell) {
  const HexLayout layout(1500.0);
  sim::RandomStream rng(5);
  const HexCoord target{2, -1};
  for (int i = 0; i < 300; ++i) {
    const Point p = layout.random_point_in_cell(
        target, [&rng] { return rng.uniform(0.0, 1.0); });
    EXPECT_EQ(layout.cell_at(p), target);
  }
}

TEST(HexLayout, NonFiniteOrHugePointsLieInNoCell) {
  // Their axial coordinates are NaN or beyond int: converting them would be
  // undefined behaviour, so cell_at reports no cell instead.
  const HexLayout layout(500.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point& p : {Point{nan, nan}, Point{inf, 0.0}, Point{1e300, 0.0},
                         Point{0.0, -inf}, Point{0.0, nan}, Point{0.0, -1e300}})
    EXPECT_FALSE(layout.cell_at(p).has_value()) << p;
  // The last representable ring of cells still resolves.
  const HexCoord far{1 << 29, -(1 << 29)};
  EXPECT_EQ(layout.cell_at(layout.center(far)), far);
}

TEST(HexLayout, RejectsNonPositiveRadius) {
  EXPECT_THROW(HexLayout(0.0), ConfigError);
  EXPECT_THROW(HexLayout(-5.0), ConfigError);
}

TEST(Geometry, DistanceAndHeading) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(heading_deg({0, 0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(heading_deg({0, 0}, {0, 1}), 90.0);
  EXPECT_DOUBLE_EQ(heading_deg({0, 0}, {-1, 0}), 180.0);
  EXPECT_DOUBLE_EQ(heading_deg({0, 0}, {0, -1}), -90.0);
}

}  // namespace
}  // namespace facsp::cellular
