#include "cellular/network.h"

#include "common/error.h"

namespace facsp::cellular {

CellularNetwork::CellularNetwork(int rings, double cell_radius_m,
                                 Bandwidth capacity_bu)
    : layout_(cell_radius_m), rings_(rings) {
  if (rings < 0) throw ConfigError("network: rings must be >= 0");
  if (!(capacity_bu > 0.0))
    throw ConfigError("network: capacity must be > 0 BU");

  BaseStationId next_id = 0;
  for (const HexCoord& c : hex_disc(HexCoord{0, 0}, rings)) {
    auto bs = std::make_unique<BaseStation>(next_id++, c, layout_.center(c),
                                            capacity_bu);
    stations_map_.emplace(c, bs.get());
    stations_.push_back(std::move(bs));
  }
}

BaseStation* CellularNetwork::station_at(const HexCoord& coord) noexcept {
  const auto it = stations_map_.find(coord);
  return it == stations_map_.end() ? nullptr : it->second;
}

const BaseStation* CellularNetwork::station_at(
    const HexCoord& coord) const noexcept {
  const auto it = stations_map_.find(coord);
  return it == stations_map_.end() ? nullptr : it->second;
}

BaseStation* CellularNetwork::station_covering(const Point& p) noexcept {
  const auto cell = layout_.cell_at(p);
  return cell ? station_at(*cell) : nullptr;
}

const BaseStation* CellularNetwork::station_covering(
    const Point& p) const noexcept {
  const auto cell = layout_.cell_at(p);
  return cell ? station_at(*cell) : nullptr;
}

std::vector<BaseStation*> CellularNetwork::stations() {
  std::vector<BaseStation*> out;
  out.reserve(stations_.size());
  for (const auto& s : stations_) out.push_back(s.get());
  return out;
}

std::vector<const BaseStation*> CellularNetwork::stations() const {
  std::vector<const BaseStation*> out;
  out.reserve(stations_.size());
  for (const auto& s : stations_) out.push_back(s.get());
  return out;
}

std::vector<BaseStation*> CellularNetwork::neighbors_of(const HexCoord& coord) {
  std::vector<BaseStation*> out;
  for (const HexCoord& n : hex_neighbors(coord))
    if (BaseStation* bs = station_at(n)) out.push_back(bs);
  return out;
}

bool CellularNetwork::covers(const Point& p) const noexcept {
  return station_covering(p) != nullptr;
}

void CellularNetwork::start_metrics(sim::SimTime t0) {
  for (const auto& s : stations_) s->start_metrics(t0);
}

}  // namespace facsp::cellular
