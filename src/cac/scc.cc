#include "cac/scc.h"

#include <algorithm>
#include <array>
#include <cmath>
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

enum class Cover { kNone, kAll, kSome };

// Where a reach circle (centre `mobile`, radius |reach|) lies against the
// hexagon of circumradius `radius` centred at `centre`.  Every point of the
// circle is between |d - reach| and d + reach from the centre, so beyond the
// circumcircle no node can land in the cell and inside the incircle every
// node does.  The slack (a nanometre per kilometre of geometry plus a
// micrometre) dwarfs the rounding of the projection and of
// HexLayout::cell_at, so a decided case always agrees with the node loop;
// only the band around the hexagon's edge falls through to that loop.
Cover cover(const cellular::MobileState& mobile, double reach,
            const cellular::Point& centre, double radius) {
  if (!std::isfinite(mobile.heading_deg)) return Cover::kSome;
  const double dx = mobile.position.x - centre.x;
  const double dy = mobile.position.y - centre.y;
  const double d = std::sqrt(dx * dx + dy * dy);
  const double r = std::fabs(reach);
  const double slack =
      1e-9 * (radius + d + r + std::fabs(mobile.position.x) +
              std::fabs(mobile.position.y)) +
      1e-6;
  if (std::fabs(d - r) > radius + slack) return Cover::kNone;
  if (d + r + slack < radius * (std::sqrt(3.0) / 2.0)) return Cover::kAll;
  return Cover::kSome;
}

}  // namespace

void SccConfig::validate() const {
  if (windows < 1) throw ConfigError("scc: windows must be >= 1");
  if (window_s <= 0.0) throw ConfigError("scc: window_s must be > 0");
  if (admit_threshold <= 0.0 || admit_threshold > 1.0)
    throw ConfigError("scc: admit_threshold must be in (0, 1]");
  if (mean_holding_s <= 0.0)
    throw ConfigError("scc: mean_holding_s must be > 0");
  if (cluster_radius < 0) throw ConfigError("scc: cluster_radius must be >= 0");
  if (heading_sigma_base_deg < 0.0 || heading_reference_kmh <= 0.0)
    throw ConfigError("scc: heading model parameters invalid");
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

SccPolicy::Projection::Projection(const cellular::MobileState& s, double t)
    : state(s), tau(t), reach(s.speed_kmh / 3.6 * t) {}

void SccPolicy::project(Projection& pr) const {
  const cellular::MobileState& state = pr.state;
  const double sigma = heading_sigma_deg(state.speed_kmh);
  // Heading diffuses over time: after tau seconds of random steering the
  // accumulated deviation grows like sqrt(tau / 60 s) of the per-minute
  // volatility — slow users' shadows widen much faster than vehicles'.
  const double spread = sigma * std::sqrt(std::max(pr.tau, 1.0) / 60.0);
  for (std::size_t i = 0; i < kGaussHermite.size(); ++i) {
    const double h = deg_to_rad(
        state.heading_deg + std::sqrt(2.0) * spread * kGaussHermite[i].t);
    const cellular::Point proj{state.position.x + pr.reach * std::cos(h),
                               state.position.y + pr.reach * std::sin(h)};
    pr.cells[i] = network_.layout().cell_at(proj);
  }
  pr.projected = true;
}

double SccPolicy::probability(Projection& pr, const cellular::HexCoord& cell,
                              const cellular::Point& centre) const {
  switch (cover(pr.state, pr.reach, centre, network_.layout().cell_radius())) {
    case Cover::kNone:
      return 0.0;
    case Cover::kAll:
      return kAllNodes;
    case Cover::kSome:
      break;
  }
  if (!pr.projected) project(pr);
  double p = 0.0;
  for (std::size_t i = 0; i < kGaussHermite.size(); ++i)
    if (pr.cells[i] == cell) p += kGaussHermite[i].w;
  return std::min(p, 1.0);
}

double SccPolicy::cell_probability(const cellular::MobileState& state,
                                   const cellular::HexCoord& cell,
                                   double tau) const {
  FACSP_EXPECTS(tau >= 0.0);
  Projection pr(state, tau);
  return probability(pr, cell, network_.layout().center(cell));
}

void SccPolicy::cast_shadows(double tau, cellular::ConnectionId self,
                             std::span<ClusterCell> cells) const {
  const double surv = survival(tau);
  for (ClusterCell& c : cells) c.demand = c.own = 0.0;
  for (const auto& [id, a] : actives_) {
    Projection pr(a.state, tau);
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
  for (int k = 1; k <= config_.windows; ++k) {
    const double tau = k * config_.window_s;
    const double surv = survival(tau);
    // A handoff requester is still registered as an active mobile (its
    // source-cell release happens only after admission); its existing
    // shadow is subtracted below so it is not counted twice.  Subtracting
    // the +0.0 of an unregistered requester changes no bit.
    cast_shadows(tau, req.id, cluster_);
    Projection requester(req.mobile, tau);
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
