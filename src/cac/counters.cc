#include "cac/counters.h"

#include "common/error.h"
#include "common/expects.h"

namespace facsp::cac {

DifferentiatedCounters::DifferentiatedCounters(PriorityWeights weights)
    : weights_(weights) {
  if (weights_.real_time < 1.0 || weights_.non_real_time < 1.0 ||
      weights_.handoff_bonus < 1.0)
    throw ConfigError(
        "priority weights must be >= 1 (they inflate, never deflate, "
        "protected load)");
}

double DifferentiatedCounters::weight(
    const cellular::Holding& h) const noexcept {
  double w = h.real_time ? weights_.real_time : weights_.non_real_time;
  if (h.via_handoff) w *= weights_.handoff_bonus;
  return w;
}

void DifferentiatedCounters::add(const cellular::Holding& h) {
  FACSP_EXPECTS(h.bw > 0.0);
  weighted_ += weight(h) * h.bw;
}

void DifferentiatedCounters::remove(const cellular::Holding& h) {
  weighted_ -= weight(h) * h.bw;
  // Guard against floating-point drift pushing the sum below zero.
  if (weighted_ < 1e-9) weighted_ = 0.0;
}

}  // namespace facsp::cac
