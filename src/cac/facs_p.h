// FACS-P — the paper's proposed Fuzzy Admission Control System with
// Priority of on-going connections (Sec. 3).
//
// Pipeline per Fig. 4:
//   User (Sp, An, Sr) -> FLC1 -> Cv
//   (Cv, Rq, Cs)      -> FLC2 -> Accept/Reject
// with the admitted calls feeding the differentiated-service counters RTC
// (voice+video) and NRTC (text), which are the base station's LoadState.
// The Counter state Cs presented to FLC2 is the *priority-weighted*
// occupancy of those calls — the one number per station FACS-P keeps:
// real-time and handoff-continuing on-going load is inflated by weights
// >= 1, so the controller saturates earlier and protects the QoS of
// on-going calls — producing Fig. 10's crossover against plain FACS.
#pragma once

#include <memory>
#include <unordered_map>

#include "cac/counters.h"
#include "cac/facs_flc.h"
#include "cac/fuzzy_cac_base.h"

namespace facsp::cac {

/// Configuration of FACS-P.
struct FacsPConfig {
  Flc1Params flc1{};
  Flc2Params flc2{};
  PriorityWeights weights{};
  /// Varied by the defuzzification ablation (A2); the paper uses centroid.
  fuzzy::DefuzzMethod defuzz_method = fuzzy::DefuzzMethod::kCentroid;
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  double accept_threshold = 0.08;
  /// Score bonus for handoff continuations of on-going calls (stronger than
  /// FACS's: on-going connections are the priority class).
  double handoff_score_bonus = 0.30;
};

/// FACS-P's FLC1 and FLC2 built from one config.  They are fixed rule
/// bases, the same for every base station, and immutable: every policy a
/// factory returns shares one pair (see core::make_facs_p_factory).
struct FacsPControllers {
  std::shared_ptr<const fuzzy::FuzzyController> flc1;
  std::shared_ptr<const fuzzy::FuzzyController> flc2;
};
FacsPControllers make_facs_p_controllers(const FacsPConfig& config);

/// The proposed policy.  Maintains one priority-weighted occupancy per base
/// station, updated through the on_admitted / on_released notifications
/// (paper Fig. 4: the A/R output feeds the counters).
class FacsPPolicy final : public FuzzyCacBase {
 public:
  /// Builds its own controller pair: make_facs_p_controllers(config).
  explicit FacsPPolicy(const FacsPConfig& config = {});
  /// Shares `controllers`, which must have been built from `config`.
  FacsPPolicy(const FacsPConfig& config, FacsPControllers controllers);

  std::string_view name() const noexcept override { return "FACS-P"; }

  void on_admitted(const AdmissionRequest& req,
                   const cellular::BaseStation& bs) override;
  void on_released(cellular::ConnectionId id,
                   const cellular::Holding& released,
                   const cellular::BaseStation& bs) override;
  void reset() override;

  const FacsPConfig& config() const noexcept { return config_; }

  /// Weighted occupancy of one base station (created on first use; exposed
  /// for tests).
  const DifferentiatedCounters& counters(cellular::BaseStationId bs) const;

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;

 private:
  DifferentiatedCounters& counters_mut(cellular::BaseStationId bs) const;

  FacsPConfig config_;
  /// Lazily populated; mutable so the const counter_state() can create an
  /// empty occupancy for a BS it has never seen.
  mutable std::unordered_map<cellular::BaseStationId, DifferentiatedCounters>
      counters_;
  /// Last-BS memo: admission decisions hit the same cell repeatedly, so the
  /// hash lookup is skipped on the hot path.  unordered_map never invalidates
  /// value pointers on insert; reset() clears the memo with the map.
  mutable DifferentiatedCounters* last_counters_ = nullptr;
  mutable cellular::BaseStationId last_bs_ = 0;
};

}  // namespace facsp::cac
