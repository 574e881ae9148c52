// FACS — the authors' *previous* fuzzy admission control system [14][15],
// implemented as the comparison baseline of Figs. 7 and 10.
//
// Differences from FACS-P (the paper's Sec. 3 contribution):
//  * FLC1's third input is the user's Distance from the base station
//    (Near/Middle/Far) instead of the requested bandwidth, and
//  * the Counter state Cs is the *plain* occupied bandwidth — no RTC/NRTC
//    differentiated counters, no priority weighting of on-going load.
#pragma once

#include "cac/facs_flc.h"
#include "cac/fuzzy_cac_base.h"

namespace facsp::cac {

/// Configuration of the FACS baseline.
struct FacsConfig {
  Flc1DistanceParams flc1{};
  Flc2Params flc2{};
  /// Admit when the crisp A/R exceeds this (0 = the NRNA centre).
  double accept_threshold = 0.28;
  /// Handoffs carry on-going calls, so even FACS favours them mildly
  /// (classic handoff prioritisation, ref [2]); FACS-P strengthens this.
  double handoff_score_bonus = 0.15;
};

/// FACS's FLC1-D and FLC2, with the policy defuzzifier.  Immutable, so
/// several policies may share them.
std::shared_ptr<const fuzzy::FuzzyController> make_facs_flc1(
    const Flc1DistanceParams& params);
std::shared_ptr<const fuzzy::FuzzyController> make_facs_flc2(
    const Flc2Params& params);

/// The previous-work fuzzy CAC: FLC1-D (Sp, An, Di) -> Cv, FLC2 (Cv, Rq,
/// plain Cs) -> A/R.
class FacsPolicy final : public FuzzyCacBase {
 public:
  /// Builds its own controllers: make_facs_flc1(config.flc1) and
  /// make_facs_flc2(config.flc2).
  explicit FacsPolicy(const FacsConfig& config = {});
  /// Shares `flc1` and `flc2`, which must have been built from `config`.
  FacsPolicy(const FacsConfig& config,
             std::shared_ptr<const fuzzy::FuzzyController> flc1,
             std::shared_ptr<const fuzzy::FuzzyController> flc2);

  std::string_view name() const noexcept override { return "FACS"; }

  const FacsConfig& config() const noexcept { return config_; }

 protected:
  double flc1_third_input(const AdmissionRequest& req) const override;
  double counter_state(const AdmissionRequest& req,
                       const cellular::BaseStation& bs) const override;

 private:
  FacsConfig config_;
};

}  // namespace facsp::cac
