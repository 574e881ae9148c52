// Shadow Cluster Concept (SCC) — Levine, Akyildiz, Naghshineh,
// IEEE/ACM ToN 1997 (paper ref [16]); the baseline of Fig. 7.
//
// Every active mobile "casts a shadow" of probable future resource demand
// over the cells around its trajectory.  Each base station sums, for a set
// of future time windows, the probability-weighted bandwidth of every active
// mobile landing in its cell; a new call is admitted only if the projected
// demand — including the tentative shadow of the requester itself — stays
// within a capacity threshold for every window and every cell of the
// requester's shadow cluster.  Rejecting new calls this way is how SCC
// "reserves" resources for on-going calls that will hand off soon.
//
// Probability model: the mobile's position at now+tau is projected along its
// estimated heading at its current speed; heading uncertainty is Gaussian
// with the same speed-dependent sigma as the rest of this repository
// (slow => volatile), integrated with 7-point Gauss-Hermite quadrature.
// Call survival over tau is exponential (paper workloads use exponential
// holding times).
//
// Every node of one projection lies on the circle of radius |v|*tau around
// the mobile.  When that circle clears a cell's circumcircle or stays inside
// its incircle by a safety margin, the cell's probability is known without
// projecting a node, and decide() projects each (mobile, window) pair at most
// once for its whole cluster.  A projected node is placed with a polynomial
// sine and cosine (no libm call) and tested against the cell's hexagon; only
// a node within the same safety margin of a hexagon edge is placed again
// with std::cos/std::sin and HexLayout::cell_at.  All of this leaves every
// result bit-identical to the plain seven-node loop (docs/performance.md,
// "SCC shadow projection" and "SCC node classifier").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cac/policy.h"
#include "cellular/network.h"

namespace facsp::cac {

/// SCC tuning parameters.
struct SccConfig {
  /// Number of future windows checked (t = window_s, 2*window_s, ...).
  int windows = 3;
  /// Window length in seconds.
  double window_s = 60.0;
  /// Future windows admit while projected demand <= admit_threshold *
  /// capacity.  Levine et al. hold back a large margin so that predicted
  /// handoffs always find room; the small default makes SCC deny
  /// bandwidth-hungry calls even at light load (its hallmark
  /// over-reservation), while the current instant is only checked
  /// physically.
  double admit_threshold = 0.22;
  /// Mean call holding time used for survival discounting.
  double mean_holding_s = 300.0;
  /// When true (default), projected demand is discounted by the chance the
  /// call ends before the window (exponential holding); false keeps the
  /// fully pessimistic reservation for ablation.
  bool discount_survival = true;
  /// Cells around the target included in the admission check (the shadow
  /// cluster's reach): 1 = target + direct neighbours.
  int cluster_radius = 1;
  /// Heading-uncertainty model (same shape as DirectionPredictor).
  double heading_sigma_base_deg = 48.0;
  double heading_reference_kmh = 18.0;
  /// Tentative-cluster semantics (Levine Sec. III): every BS the new call
  /// may reach must be able to support it, so the requester is counted at
  /// FULL bandwidth in each cell whose reach probability exceeds
  /// `reach_probability_min`.  Set false to probability-weight the
  /// requester instead (optimistic variant, for ablation).
  bool tentative_full_bandwidth = true;
  double reach_probability_min = 0.05;

  /// Throws facsp::ConfigError on invalid values.
  void validate() const;
};

/// The SCC admission policy.
class SccPolicy final : public AdmissionPolicy {
 public:
  /// The network is used for cell geometry and neighbourhood lookups and
  /// must outlive the policy.
  SccPolicy(const cellular::CellularNetwork& network, SccConfig config = {});

  std::string_view name() const noexcept override { return "SCC"; }

  AdmissionDecision decide(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) override;

  void on_admitted(const AdmissionRequest& req,
                   const cellular::BaseStation& bs) override;
  void on_released(cellular::ConnectionId id, cellular::ServiceClass service,
                   const cellular::BaseStation& bs) override;
  void on_mobility(cellular::ConnectionId id,
                   const cellular::MobileState& state,
                   sim::SimTime now) override;
  void reset() override;

  /// Probability that a mobile in `state` is inside `cell` after `tau`
  /// seconds (ignoring call termination).  Exposed for tests.
  double cell_probability(const cellular::MobileState& state,
                          const cellular::HexCoord& cell, double tau) const;

  /// Projected demand (BU) on `cell` at now+tau from all current actives.
  double projected_demand(const cellular::HexCoord& cell, double tau) const;

  std::size_t active_count() const noexcept { return actives_.size(); }

  const SccConfig& config() const noexcept { return config_; }

 private:
  struct Active {
    cellular::ConnectionId id;
    cellular::MobileState state;
    cellular::Bandwidth bw;
  };
  /// The entry for `id`, or where it would be inserted.
  std::vector<Active>::iterator find_active(cellular::ConnectionId id);

  // One mobile's shadow at one window: the reach circle every heading node
  // lies on and, once some cell needs them, the nodes' headings and
  // approximate positions.  A node's exact cell is placed only when a cell
  // test cannot decide it from the approximation.  One Projection is aimed
  // at mobile after mobile; its arrays are scratch that project() and
  // exact_cell() write before they are read.
  struct Projection {
    const cellular::MobileState* state = nullptr;
    double tau = 0.0;
    double reach = 0.0;  // signed v*tau; the circle's radius is |reach|
    bool projected = false;
    std::uint8_t placed = 0;  // bit i set: cells[i] holds node i's cell
    std::array<double, 7> heading{};  // radians
    std::array<cellular::Point, 7> node{};  // NaN where not approximated
    std::array<std::optional<cellular::HexCoord>, 7> cells{};

    // Starts the shadow of `s` at now + `t`.
    void aim(const cellular::MobileState& s, double t);
  };

  // A cell of the current decide()'s shadow cluster and its sums for the
  // window being checked.
  struct ClusterCell {
    cellular::HexCoord coord;
    cellular::Point centre;
    const cellular::BaseStation* station;
    double demand;  // projected demand of every active
    double own;     // the requester's registered shadow, if it has one
  };

  double heading_sigma_deg(double speed_kmh) const noexcept;
  double survival(double tau) const noexcept;
  // Fills every cell's demand (all actives' shares, by ascending id) and own
  // (the share of active `self`, else 0) at now+tau, projecting each active
  // at most once.
  void cast_shadows(double tau, cellular::ConnectionId self,
                    std::span<ClusterCell> cells) const;
  void project(Projection& pr) const;
  // The cell node i of `pr` lands in (none off any grid), placed with
  // std::cos/std::sin and HexLayout::cell_at on first use.
  const std::optional<cellular::HexCoord>& exact_cell(
      Projection& pr, std::size_t i) const;
  double probability(Projection& pr, const cellular::HexCoord& cell,
                     const cellular::Point& centre) const;

  const cellular::CellularNetwork& network_;
  SccConfig config_;
  // Ascending id: cast_shadows() sums shadows in this order, so a cell's
  // demand is a function of the active set alone.
  std::vector<Active> actives_;
  std::vector<ClusterCell> cluster_;  // decide() scratch, reserved up front
};

namespace scc_detail {

/// Largest |x| that approx_sincos() accepts, in radians.
inline constexpr double kSinCosMaxArg = 1024.0;
/// Bound on |approx_sincos(x).sin - sin(x)| and on the cosine's error, over
/// |x| <= kSinCosMaxArg.
inline constexpr double kSinCosBound = 1e-15;

struct SinCos {
  double sin;
  double cos;
};

/// sin(x) and cos(x) without a libm call, within kSinCosBound; both NaN
/// when x is NaN, infinite or beyond kSinCosMaxArg.  Exposed for tests.
SinCos approx_sincos(double x) noexcept;

}  // namespace scc_detail

}  // namespace facsp::cac
