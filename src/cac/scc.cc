#include "cac/scc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "common/error.h"
#include "common/expects.h"
#include "common/math_util.h"

namespace facsp::cac {

namespace {

// 7-point Gauss-Hermite quadrature for E[f(X)], X ~ N(0,1):
// E[f(X)] ~= sum_i w_i * f(sqrt(2) * t_i), weights normalised by 1/sqrt(pi).
struct GhNode {
  double t;
  double w;
};
constexpr std::array<GhNode, 7> kGaussHermite = {{
    {-2.651961356835233, 0.0009717812450995192 / 1.7724538509055160},
    {-1.673551628767471, 0.05451558281912703 / 1.7724538509055160},
    {-0.8162878828589647, 0.4256072526101278 / 1.7724538509055160},
    {0.0, 0.8102646175568073 / 1.7724538509055160},
    {0.8162878828589647, 0.4256072526101278 / 1.7724538509055160},
    {1.673551628767471, 0.05451558281912703 / 1.7724538509055160},
    {2.651961356835233, 0.0009717812450995192 / 1.7724538509055160},
}};

// The probability of a cell every node lands in: the weights summed in node
// order, exactly as the node loop sums them.
constexpr double kAllNodes = [] {
  double p = 0.0;
  for (const GhNode& node : kGaussHermite) p += node.w;
  return std::min(p, 1.0);
}();

// The safety margin of every geometric shortcut below: a nanometre per
// kilometre of the geometry involved (the hexagon's circumradius `radius`,
// the mobile's distance `d` to its centre, the reach `r` and the mobile's
// coordinates) plus a micrometre.  It dwarfs the rounding of the projection
// and of HexLayout::cell_at, and the polynomial's error times the reach, so
// a case decided beyond it always agrees with the seven-node loop.
double edge_slack(const cellular::MobileState& mobile, double d, double r,
                  double radius) {
  return 1e-9 * (radius + d + r + std::fabs(mobile.position.x) +
                 std::fabs(mobile.position.y)) +
         1e-6;
}

// Distance of the pointy-top hexagon's edges from its centre, per metre of
// circumradius; the edge normals point at 0, 60 and 120 degrees.
constexpr double kInradius = 0.86602540378443864676;

// Cody-Waite split of pi/2: kPio2Hi carries 33 significant bits, so
// k * kPio2Hi is exact for |k| < 2^20, and pi/2 - kPio2Hi - kPio2Lo is
// below 4e-27.
constexpr double kPio2Hi = 0x1.921fb544p0;
constexpr double kPio2Lo = 0x1.0b4611a626331p-34;
constexpr double kTwoOverPi = 0.63661977236758134308;
// Adding and subtracting 1.5 * 2^52 rounds a double below 2^51 in magnitude
// to the nearest integer without a libm call (nearbyint is one without
// SSE4.1).
constexpr double kRoundShift = 0x1.8p52;

}  // namespace

namespace scc_detail {

// |x| <= 1024 gives |k| <= 652, so x - k * kPio2Hi is exact (Sterbenz) and
// the reduced argument r is within 6e-17 of x - k * pi/2, |r| <= pi/4 + 1e-16.
// Taylor series to r^15 (sine) and r^16 (cosine) truncate below 5e-17 there,
// and Horner's rounding adds under 2e-16: each result is within 3e-16 of the
// exact value, and kSinCosBound leaves room for std::sin/std::cos's own
// ulp when the two are compared.
SinCos approx_sincos(double x) noexcept {
  if (!(std::fabs(x) <= kSinCosMaxArg)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
  }
  const double k = (x * kTwoOverPi + kRoundShift) - kRoundShift;
  const double r = (x - k * kPio2Hi) - k * kPio2Lo;
  const double z = r * r;
  const double s =
      r + r * z *
              (-1.0 / 6 +
               z * (1.0 / 120 +
                    z * (-1.0 / 5040 +
                         z * (1.0 / 362880 +
                              z * (-1.0 / 39916800 +
                                   z * (1.0 / 6227020800 +
                                        z * (-1.0 / 1307674368000)))))));
  const double c =
      1.0 +
      z * (-1.0 / 2 +
           z * (1.0 / 24 +
                z * (-1.0 / 720 +
                     z * (1.0 / 40320 +
                          z * (-1.0 / 3628800 +
                               z * (1.0 / 479001600 +
                                    z * (-1.0 / 87178291200 +
                                         z * (1.0 / 20922789888000))))))));
  // k quarter turns: an odd k swaps sine and cosine, the sine's sign flips
  // for k = 2, 3 and the cosine's for k = 1, 2 (mod 4).  Bit masks select
  // them, since a branch on the quadrant mispredicts from node to node.
  const auto q = static_cast<std::uint64_t>(static_cast<std::int64_t>(k));
  const std::uint64_t swap = 0 - (q & 1);
  const auto sb = std::bit_cast<std::uint64_t>(s);
  const auto cb = std::bit_cast<std::uint64_t>(c);
  return {std::bit_cast<double>(((cb & swap) | (sb & ~swap)) ^ ((q & 2) << 62)),
          std::bit_cast<double>(((sb & swap) | (cb & ~swap)) ^
                                (((q + 1) & 2) << 62))};
}

}  // namespace scc_detail

void SccConfig::validate() const {
  // Every comparison is written to fail on NaN, and the unbounded ones also
  // reject infinity.
  const auto positive = [](double v) { return v > 0.0 && std::isfinite(v); };
  if (windows < 1) throw ConfigError("scc: windows must be >= 1");
  if (!positive(window_s))
    throw ConfigError("scc: window_s must be finite and > 0");
  if (!(admit_threshold > 0.0 && admit_threshold <= 1.0))
    throw ConfigError("scc: admit_threshold must be in (0, 1]");
  if (!positive(mean_holding_s))
    throw ConfigError("scc: mean_holding_s must be finite and > 0");
  if (cluster_radius < 0) throw ConfigError("scc: cluster_radius must be >= 0");
  if (!(heading_sigma_base_deg >= 0.0 &&
        std::isfinite(heading_sigma_base_deg)) ||
      !positive(heading_reference_kmh))
    throw ConfigError("scc: heading model parameters invalid");
  if (!(reach_probability_min >= 0.0 && reach_probability_min <= 1.0))
    throw ConfigError("scc: reach_probability_min must be in [0, 1]");
}

SccPolicy::SccPolicy(const cellular::CellularNetwork& network,
                     SccConfig config)
    : network_(network), config_(config) {
  config_.validate();
  const auto rad = static_cast<std::size_t>(config_.cluster_radius);
  cluster_.reserve(1 + 3 * rad * (rad + 1));
}

double SccPolicy::heading_sigma_deg(double speed_kmh) const noexcept {
  const double s = std::max(0.0, speed_kmh);
  return config_.heading_sigma_base_deg * config_.heading_reference_kmh /
         (s + config_.heading_reference_kmh);
}

double SccPolicy::survival(double tau) const noexcept {
  if (!config_.discount_survival) return 1.0;
  return std::exp(-tau / config_.mean_holding_s);
}

void SccPolicy::Projection::aim(const cellular::MobileState& s, double t) {
  state = &s;
  tau = t;
  reach = s.speed_kmh / 3.6 * t;
  projected = false;
  placed = 0;
}

void SccPolicy::project(Projection& pr) const {
  const cellular::MobileState& state = *pr.state;
  const double sigma = heading_sigma_deg(state.speed_kmh);
  // Heading diffuses over time: after tau seconds of random steering the
  // accumulated deviation grows like sqrt(tau / 60 s) of the per-minute
  // volatility — slow users' shadows widen much faster than vehicles'.
  const double spread = sigma * std::sqrt(std::max(pr.tau, 1.0) / 60.0);
  for (std::size_t i = 0; i < kGaussHermite.size(); ++i) {
    const double h = deg_to_rad(
        state.heading_deg + std::sqrt(2.0) * spread * kGaussHermite[i].t);
    const scc_detail::SinCos sc = scc_detail::approx_sincos(h);
    pr.heading[i] = h;
    pr.node[i] = {state.position.x + pr.reach * sc.cos,
                  state.position.y + pr.reach * sc.sin};
  }
  pr.projected = true;
}

const cellular::HexCoord& SccPolicy::exact_cell(Projection& pr,
                                                std::size_t i) const {
  if (!(pr.placed >> i & 1u)) {
    const cellular::MobileState& state = *pr.state;
    const double h = pr.heading[i];
    const cellular::Point proj{state.position.x + pr.reach * std::cos(h),
                               state.position.y + pr.reach * std::sin(h)};
    pr.cells[i] = network_.layout().cell_at(proj);
    pr.placed |= static_cast<std::uint8_t>(1u << i);
  }
  return pr.cells[i];
}

double SccPolicy::probability(Projection& pr, const cellular::HexCoord& cell,
                              const cellular::Point& centre) const {
  // Every point of the reach circle is between |d - r| and d + r from the
  // cell's centre: beyond the circumcircle no node can land in the cell,
  // and inside the incircle every node does.  A non-finite heading decides
  // nothing here; its nodes are placed one by one.
  const cellular::MobileState& state = *pr.state;
  const double radius = network_.layout().cell_radius();
  const double dx = state.position.x - centre.x;
  const double dy = state.position.y - centre.y;
  const double d = std::sqrt(dx * dx + dy * dy);
  const double r = std::fabs(pr.reach);
  const double slack = edge_slack(state, d, r, radius);
  const double edge = radius * kInradius;
  if (std::isfinite(state.heading_deg)) {
    if (std::fabs(d - r) > radius + slack) return 0.0;
    if (d + r + slack < edge) return kAllNodes;
  }
  if (!pr.projected) project(pr);
  double p = 0.0;
  for (std::size_t i = 0; i < kGaussHermite.size(); ++i) {
    // A node is inside the hexagon when its offset's largest component
    // along the three edge normals is below the inradius.  Within the slack
    // of an edge it is placed exactly.  A node approx_sincos could not
    // place is NaN, and a non-finite position or reach makes the slack NaN
    // or infinite: both comparisons then fail, and it is placed exactly too.
    const double nx = pr.node[i].x - centre.x;
    const double ny = pr.node[i].y - centre.y;
    const double m = std::max(
        std::fabs(nx), std::max(std::fabs(0.5 * nx + kInradius * ny),
                                std::fabs(0.5 * nx - kInradius * ny)));
    const bool inside = m < edge - slack ||
                        (!(m > edge + slack) && exact_cell(pr, i) == cell);
    if (inside) p += kGaussHermite[i].w;
  }
  return std::min(p, 1.0);
}

double SccPolicy::cell_probability(const cellular::MobileState& state,
                                   const cellular::HexCoord& cell,
                                   double tau) const {
  FACSP_EXPECTS(tau >= 0.0);
  Projection pr;
  pr.aim(state, tau);
  return probability(pr, cell, network_.layout().center(cell));
}

void SccPolicy::cast_shadows(double tau, cellular::ConnectionId self,
                             std::span<ClusterCell> cells) const {
  const double surv = survival(tau);
  for (ClusterCell& c : cells) c.demand = c.own = 0.0;
  Projection pr;
  for (const auto& [id, a] : actives_) {
    pr.aim(a.state, tau);
    for (ClusterCell& c : cells) {
      const double share = probability(pr, c.coord, c.centre) * a.bw * surv;
      c.demand += share;
      if (id == self) c.own = share;
    }
  }
}

double SccPolicy::projected_demand(const cellular::HexCoord& cell,
                                   double tau) const {
  // No mobile is singled out here; `own` is left unread.
  ClusterCell c{cell, network_.layout().center(cell), nullptr, 0.0, 0.0};
  cast_shadows(tau, cellular::ConnectionId{}, std::span(&c, 1));
  return c.demand;
}

AdmissionDecision SccPolicy::decide(const AdmissionRequest& req,
                                    const cellular::BaseStation& bs) {
  AdmissionDecision d;
  if (!bs.can_fit(req.bandwidth)) {
    d.admitted = false;
    d.score = -1.0;
    d.verdict = Verdict::kReject;
    return d;
  }

  // The requester's shadow cluster, restricted to the modelled disc.
  cluster_.clear();
  cellular::for_each_in_disc(
      bs.coord(), config_.cluster_radius, [this](const cellular::HexCoord& c) {
        if (const cellular::BaseStation* target = network_.station_at(c))
          cluster_.push_back(
              ClusterCell{c, network_.layout().center(c), target, 0.0, 0.0});
      });

  // Capacity headroom check for every cell of the requester's shadow
  // cluster over every future window, with the requester's own tentative
  // shadow included.  Each (mobile, window) pair is projected at most once
  // and credited to every cluster cell; a cell's demand still sums the
  // actives in map order, so it equals projected_demand() bit for bit.
  double worst_margin = 1.0;  // fraction of capacity left, worst case
  Projection requester;
  for (int k = 1; k <= config_.windows; ++k) {
    const double tau = k * config_.window_s;
    const double surv = survival(tau);
    // A handoff requester is still registered as an active mobile (its
    // source-cell release happens only after admission); its existing
    // shadow is subtracted below so it is not counted twice.  Subtracting
    // the +0.0 of an unregistered requester changes no bit.
    cast_shadows(tau, req.id, cluster_);
    requester.aim(req.mobile, tau);
    for (const ClusterCell& c : cluster_) {
      const double p_reach = probability(requester, c.coord, c.centre);
      const double req_share =
          config_.tentative_full_bandwidth
              ? (p_reach > config_.reach_probability_min ? req.bandwidth
                                                         : p_reach *
                                                               req.bandwidth)
              : p_reach * req.bandwidth * surv;
      const double demand = c.demand + req_share - c.own;
      const double cap = config_.admit_threshold * c.station->capacity();
      const double margin = (cap - demand) / c.station->capacity();
      worst_margin = std::min(worst_margin, margin);
    }
  }

  // Current instant (tau = 0): only the physical fit constrains admission —
  // reservation margins apply to *future* windows.
  {
    const double now_margin =
        (bs.capacity() - (bs.load().used + req.bandwidth)) / bs.capacity();
    worst_margin = std::min(worst_margin, now_margin);
  }

  d.score = clamp(worst_margin * 2.0, -1.0, 1.0);  // margin -> [-1, 1] score
  d.admitted = worst_margin >= 0.0;
  d.verdict = verdict_from_score(d.score);
  return d;
}

void SccPolicy::on_admitted(const AdmissionRequest& req,
                            const cellular::BaseStation& /*bs*/) {
  actives_[req.id] = Active{req.mobile, req.bandwidth};
}

void SccPolicy::on_released(cellular::ConnectionId id,
                            cellular::ServiceClass /*service*/,
                            const cellular::BaseStation& /*bs*/) {
  // A handoff releases on the source BS and re-admits on the target; the
  // re-admission path goes through decide()/on_admitted() which refreshes
  // the entry, so erasing here is correct for completions and safe for
  // handoffs (on_admitted re-inserts).
  actives_.erase(id);
}

void SccPolicy::on_mobility(cellular::ConnectionId id,
                            const cellular::MobileState& state,
                            sim::SimTime /*now*/) {
  const auto it = actives_.find(id);
  if (it != actives_.end()) it->second.state = state;
}

void SccPolicy::reset() { actives_.clear(); }

}  // namespace facsp::cac
