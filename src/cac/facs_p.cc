#include "cac/facs_p.h"

#include <algorithm>
#include <utility>

namespace facsp::cac {

FacsPControllers make_facs_p_controllers(const FacsPConfig& config) {
  const fuzzy::Defuzzifier defuzz(config.defuzz_method,
                                  kPolicyDefuzzResolution);
  return {make_flc1(config.flc1, defuzz), make_flc2(config.flc2, defuzz)};
}

FacsPPolicy::FacsPPolicy(const FacsPConfig& config)
    : FacsPPolicy(config, make_facs_p_controllers(config)) {}

FacsPPolicy::FacsPPolicy(const FacsPConfig& config,
                         FacsPControllers controllers)
    : FuzzyCacBase(std::move(controllers.flc1), std::move(controllers.flc2),
                   config.accept_threshold, config.handoff_score_bonus),
      config_(config) {}

DifferentiatedCounters& FacsPPolicy::counters_mut(
    cellular::BaseStationId bs) const {
  if (last_counters_ != nullptr && last_bs_ == bs) return *last_counters_;
  const auto it = counters_.find(bs);
  DifferentiatedCounters& c =
      it != counters_.end()
          ? it->second
          : counters_.emplace(bs, DifferentiatedCounters(config_.weights))
                .first->second;
  last_counters_ = &c;
  last_bs_ = bs;
  return c;
}

const DifferentiatedCounters& FacsPPolicy::counters(
    cellular::BaseStationId bs) const {
  return counters_mut(bs);
}

double FacsPPolicy::flc1_third_input(const AdmissionRequest& req) const {
  return static_cast<double>(req.bandwidth);
}

double FacsPPolicy::counter_state(const AdmissionRequest& /*req*/,
                                  const cellular::BaseStation& bs) const {
  // Priority-weighted occupancy, saturated at the Cs universe top so FLC2's
  // "Full" term receives full membership once protected load dominates.
  const double eff = counters_mut(bs.id()).effective_occupancy();
  return std::min(eff, config_.flc2.cs_max);
}

void FacsPPolicy::on_admitted(const AdmissionRequest& req,
                              const cellular::BaseStation& bs) {
  // The same values every caller passes to BaseStation::allocate, so the
  // Holding the station later releases undoes exactly this add.
  counters_mut(bs.id()).add({req.bandwidth,
                             cellular::is_real_time(req.service),
                             req.kind == cellular::RequestKind::kHandoff});
}

void FacsPPolicy::on_released(cellular::ConnectionId /*id*/,
                              const cellular::Holding& released,
                              const cellular::BaseStation& bs) {
  counters_mut(bs.id()).remove(released);
}

void FacsPPolicy::reset() {
  counters_.clear();
  last_counters_ = nullptr;
}

}  // namespace facsp::cac
