#include "cellular/hexgrid.h"

#include <cmath>
#include <ostream>

#include "common/error.h"
#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::cellular {

double distance(const Point& a, const Point& b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

double heading_deg(const Point& from, const Point& to) noexcept {
  return rad_to_deg(std::atan2(to.y - from.y, to.x - from.x));
}

int hex_distance(const HexCoord& a, const HexCoord& b) noexcept {
  const int dq = a.q - b.q;
  const int dr = a.r - b.r;
  const int ds = a.s() - b.s();
  return (std::abs(dq) + std::abs(dr) + std::abs(ds)) / 2;
}

namespace {
// Fixed direction order: E, NE, NW, W, SW, SE (axial deltas).
constexpr HexCoord kDirections[6] = {{1, 0}, {1, -1}, {0, -1},
                                     {-1, 0}, {-1, 1}, {0, 1}};
}  // namespace

std::vector<HexCoord> hex_neighbors(const HexCoord& h) {
  std::vector<HexCoord> out;
  out.reserve(6);
  for (const auto& d : kDirections)
    out.push_back(HexCoord{h.q + d.q, h.r + d.r});
  return out;
}

std::vector<HexCoord> hex_ring(const HexCoord& center, int radius) {
  FACSP_EXPECTS(radius >= 0);
  if (radius == 0) return {center};
  std::vector<HexCoord> out;
  out.reserve(static_cast<std::size_t>(6 * radius));
  // Start at the cell `radius` steps in direction SW (index 4), then walk
  // around the ring, `radius` steps per side.
  HexCoord cur{center.q + kDirections[4].q * radius,
               center.r + kDirections[4].r * radius};
  for (int side = 0; side < 6; ++side) {
    for (int step = 0; step < radius; ++step) {
      out.push_back(cur);
      cur = HexCoord{cur.q + kDirections[side].q, cur.r + kDirections[side].r};
    }
  }
  return out;
}

std::vector<HexCoord> hex_disc(const HexCoord& center, int radius) {
  FACSP_EXPECTS(radius >= 0);
  std::vector<HexCoord> out;
  out.reserve(static_cast<std::size_t>(1 + 3 * radius * (radius + 1)));
  for_each_in_disc(center, radius,
                   [&out](const HexCoord& h) { out.push_back(h); });
  return out;
}

HexLayout::HexLayout(double cell_radius) : radius_(cell_radius) {
  if (!(cell_radius > 0.0) || !std::isfinite(cell_radius))
    throw ConfigError("hex layout: cell radius must be finite and > 0");
}

Point HexLayout::center(const HexCoord& h) const noexcept {
  const double sqrt3 = std::sqrt(3.0);
  return Point{radius_ * sqrt3 * (h.q + h.r / 2.0), radius_ * 1.5 * h.r};
}

std::optional<HexCoord> HexLayout::cell_at(const Point& p) const noexcept {
  const double sqrt3 = std::sqrt(3.0);
  // Inverse of center(): fractional axial coordinates.
  const double qf = (sqrt3 / 3.0 * p.x - 1.0 / 3.0 * p.y) / radius_;
  const double rf = (2.0 / 3.0 * p.y) / radius_;
  // Cube rounding.
  const double sf = -qf - rf;
  double q = std::round(qf), r = std::round(rf), s = std::round(sf);
  const double dq = std::fabs(q - qf);
  const double dr = std::fabs(r - rf);
  const double ds = std::fabs(s - sf);
  if (dq > dr && dq > ds) {
    q = -r - s;
  } else if (dr > ds) {
    r = -q - s;
  }
  // Negated test so NaN fails it too.  The bound keeps s() and neighbour
  // offsets in int range as well.
  constexpr double kMaxAxial = 1 << 30;
  if (!(std::fabs(q) <= kMaxAxial && std::fabs(r) <= kMaxAxial))
    return std::nullopt;
  return HexCoord{static_cast<int>(q), static_cast<int>(r)};
}

Point HexLayout::random_point_in_cell(
    const HexCoord& h, const std::function<double()>& uniform01) const {
  FACSP_EXPECTS(static_cast<bool>(uniform01));
  const Point c = center(h);
  const double sqrt3 = std::sqrt(3.0);
  const double half_w = radius_ * sqrt3 / 2.0;  // inradius (horizontal half-extent)
  // Rejection sampling over the bounding box; hex fills ~75% of it, so the
  // expected number of iterations is < 1.4.
  for (int tries = 0; tries < 1000; ++tries) {
    const Point p{c.x + (2.0 * uniform01() - 1.0) * half_w,
                  c.y + (2.0 * uniform01() - 1.0) * radius_};
    if (cell_at(p) == h) return p;
  }
  return c;  // pathological RNG (e.g. constant); fall back to the centre
}

std::ostream& operator<<(std::ostream& os, const HexCoord& h) {
  return os << '(' << h.q << ',' << h.r << ')';
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << '(' << p.x << ',' << p.y << ')';
}

}  // namespace facsp::cellular
