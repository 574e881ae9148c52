#include "cac/facs.h"

namespace facsp::cac {

std::shared_ptr<const fuzzy::FuzzyController> make_facs_flc1(
    const Flc1DistanceParams& params) {
  return make_flc1_distance(
      params, fuzzy::Defuzzifier(fuzzy::DefuzzMethod::kCentroid,
                                 kPolicyDefuzzResolution));
}

std::shared_ptr<const fuzzy::FuzzyController> make_facs_flc2(
    const Flc2Params& params) {
  return make_flc2(params, fuzzy::Defuzzifier(fuzzy::DefuzzMethod::kCentroid,
                                              kPolicyDefuzzResolution));
}

FacsPolicy::FacsPolicy(const FacsConfig& config)
    : FacsPolicy(config, make_facs_flc1(config.flc1),
                 make_facs_flc2(config.flc2)) {}

FacsPolicy::FacsPolicy(const FacsConfig& config,
                       std::shared_ptr<const fuzzy::FuzzyController> flc1,
                       std::shared_ptr<const fuzzy::FuzzyController> flc2)
    : FuzzyCacBase(std::move(flc1), std::move(flc2), config.accept_threshold,
                   config.handoff_score_bonus),
      config_(config) {}

double FacsPolicy::flc1_third_input(const AdmissionRequest& req) const {
  return req.distance_m;
}

double FacsPolicy::counter_state(const AdmissionRequest& /*req*/,
                                 const cellular::BaseStation& bs) const {
  return bs.load().used;
}

}  // namespace facsp::cac
