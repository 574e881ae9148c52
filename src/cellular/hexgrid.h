// Hexagonal cell geometry.
//
// Cells are pointy-top hexagons addressed by axial coordinates (q, r); the
// world plane is continuous 2D in metres.  This supplies the coordinate
// algebra the network layer and the SCC baseline need: centre positions,
// point->cell lookup (cube rounding), neighbourhoods, rings and distances.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

namespace facsp::cellular {

/// Axial hex coordinate.
struct HexCoord {
  int q = 0;
  int r = 0;

  friend bool operator==(const HexCoord&, const HexCoord&) = default;

  /// Third cube coordinate (s = -q - r).
  int s() const noexcept { return -q - r; }
};

/// Hash so HexCoord can key unordered containers.
struct HexCoordHash {
  std::size_t operator()(const HexCoord& h) const noexcept {
    // Szudzik-style pairing of two 32-bit ints.
    const auto a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.q));
    const auto b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.r));
    return static_cast<std::size_t>(a * 0x9e3779b97f4a7c15ull ^ (b + 0x7f4a7c15ull));
  }
};

/// A point in the continuous world plane (metres).
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

double distance(const Point& a, const Point& b) noexcept;

/// Heading (degrees in (-180, 180]) of the vector from `from` to `to`.
double heading_deg(const Point& from, const Point& to) noexcept;

/// Grid-level hex distance (number of cell hops) between two coordinates.
int hex_distance(const HexCoord& a, const HexCoord& b) noexcept;

/// The 6 neighbours of a hex coordinate, in fixed order (E, NE, NW, W, SW, SE).
std::vector<HexCoord> hex_neighbors(const HexCoord& h);

/// All coordinates at exactly `radius` hops from center (radius >= 1), or
/// {center} for radius 0.
std::vector<HexCoord> hex_ring(const HexCoord& center, int radius);

/// All coordinates within `radius` hops of center (a filled disc; size
/// 1 + 3*radius*(radius+1)).
std::vector<HexCoord> hex_disc(const HexCoord& center, int radius);

/// Calls f(coord) for every coordinate of hex_disc(center, radius), in the
/// same order, without building the vector.
template <class F>
void for_each_in_disc(const HexCoord& center, int radius, F&& f) {
  for (int q = -radius; q <= radius; ++q) {
    const int r_lo = std::max(-radius, -q - radius);
    const int r_hi = std::min(radius, -q + radius);
    for (int r = r_lo; r <= r_hi; ++r) f(HexCoord{center.q + q, center.r + r});
  }
}

/// Converts between axial coordinates and world positions for pointy-top
/// hexagons with a given circumradius (centre-to-vertex, metres).
class HexLayout {
 public:
  /// cell_radius: circumradius in metres, > 0.
  explicit HexLayout(double cell_radius);

  double cell_radius() const noexcept { return radius_; }

  /// Centre of a cell in world coordinates.
  Point center(const HexCoord& h) const noexcept;

  /// Cell containing a world point (cube rounding; boundary points resolve
  /// deterministically).  None for a NaN, infinite or so distant point that
  /// its axial coordinates leave int range: no network reaches it.
  std::optional<HexCoord> cell_at(const Point& p) const noexcept;

  /// Uniformly random point inside the given cell (rejection sampling over
  /// the bounding box using the supplied uniform(0,1) generator).
  Point random_point_in_cell(const HexCoord& h,
                             const std::function<double()>& uniform01) const;

 private:
  double radius_;
};

std::ostream& operator<<(std::ostream& os, const HexCoord& h);
std::ostream& operator<<(std::ostream& os, const Point& p);

}  // namespace facsp::cellular
