#include "cellular/network.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/error.h"

namespace facsp::cellular {
namespace {

TEST(Network, DiscSizes) {
  EXPECT_EQ(CellularNetwork(0, 1000.0, 40.0).cell_count(), 1u);
  EXPECT_EQ(CellularNetwork(1, 1000.0, 40.0).cell_count(), 7u);
  EXPECT_EQ(CellularNetwork(2, 1000.0, 40.0).cell_count(), 19u);
}

TEST(Network, CenterIsOrigin) {
  CellularNetwork net(1, 1000.0, 40.0);
  EXPECT_EQ(net.center().coord(), (HexCoord{0, 0}));
  EXPECT_DOUBLE_EQ(net.center().position().x, 0.0);
  EXPECT_DOUBLE_EQ(net.center().capacity(), 40.0);
}

TEST(Network, UniqueIdsAndCoords) {
  CellularNetwork net(2, 1000.0, 40.0);
  std::set<BaseStationId> ids;
  std::set<std::pair<int, int>> coords;
  for (const BaseStation* bs : net.stations()) {
    ids.insert(bs->id());
    coords.insert({bs->coord().q, bs->coord().r});
  }
  EXPECT_EQ(ids.size(), 19u);
  EXPECT_EQ(coords.size(), 19u);
}

TEST(Network, StationLookupByCoord) {
  CellularNetwork net(1, 1000.0, 40.0);
  EXPECT_NE(net.station_at({1, 0}), nullptr);
  EXPECT_NE(net.station_at({0, -1}), nullptr);
  EXPECT_EQ(net.station_at({2, 0}), nullptr);  // outside 1-ring disc
}

TEST(Network, StationCoveringPoints) {
  CellularNetwork net(1, 1000.0, 40.0);
  EXPECT_EQ(net.station_covering({0.0, 0.0}), &net.center());
  // Far outside the disc.
  EXPECT_EQ(net.station_covering({100000.0, 0.0}), nullptr);
  EXPECT_FALSE(net.covers({100000.0, 0.0}));
  EXPECT_TRUE(net.covers({0.0, 0.0}));
}

TEST(Network, NonFiniteOrHugePointsHaveNoCoveringStation) {
  CellularNetwork net(1, 1000.0, 40.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point& p : {Point{nan, nan}, Point{inf, 0.0}, Point{1e300, 0.0}}) {
    EXPECT_EQ(net.station_covering(p), nullptr) << p;
    EXPECT_FALSE(net.covers(p)) << p;
  }
}

TEST(Network, NeighborLookup) {
  CellularNetwork net(1, 1000.0, 40.0);
  // Centre has all 6 neighbours inside the disc.
  EXPECT_EQ(net.neighbors_of({0, 0}).size(), 6u);
  // An edge cell only has the neighbours that exist.
  const auto edge_neighbors = net.neighbors_of({1, 0});
  EXPECT_LT(edge_neighbors.size(), 6u);
  EXPECT_GE(edge_neighbors.size(), 2u);
}

TEST(Network, CellPositionsMatchLayout) {
  CellularNetwork net(2, 1500.0, 40.0);
  for (const BaseStation* bs : net.stations()) {
    const Point expect = net.layout().center(bs->coord());
    EXPECT_DOUBLE_EQ(bs->position().x, expect.x);
    EXPECT_DOUBLE_EQ(bs->position().y, expect.y);
    EXPECT_EQ(net.layout().cell_at(bs->position()), bs->coord());
  }
}

TEST(Network, StartMetricsEnablesUtilization) {
  CellularNetwork net(1, 1000.0, 40.0);
  net.start_metrics(0.0);
  for (BaseStation* bs : net.stations())
    EXPECT_DOUBLE_EQ(bs->average_utilization(10.0), 0.0);
}

TEST(Network, ValidationErrors) {
  EXPECT_THROW(CellularNetwork(-1, 1000.0, 40.0), ConfigError);
  EXPECT_THROW(CellularNetwork(1, 0.0, 40.0), ConfigError);
  EXPECT_THROW(CellularNetwork(1, 1000.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace facsp::cellular
