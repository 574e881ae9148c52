// Priority-weighted occupancy (paper Fig. 4: RTC / NRTC -> Counter state).
//
// The paper's differentiated-service counters — the Real Time Counter
// (voice+video) and the Non Real Time Counter (text) — are the base
// station's LoadState (cellular/basestation.h); the station is the one
// ledger of on-going calls.  FACS-P keeps only the Counter state (Cs) fed to
// FLC2: the occupancy with real-time and handoff-continuing load weighted by
// priority factors >= 1.  That weighting is the paper's "priority of
// on-going connections": as protected load accumulates, the effective Cs
// saturates earlier and the controller turns conservative before the cell is
// physically full.
#pragma once

#include "cellular/basestation.h"

namespace facsp::cac {

/// Priority weighting configuration.
struct PriorityWeights {
  /// Multiplier on bandwidth held by real-time on-going connections.
  double real_time = 1.6;
  /// Multiplier on bandwidth held by non-real-time on-going connections.
  double non_real_time = 1.0;
  /// Extra multiplier on connections that arrived via handoff (they already
  /// survived at least one cell transition; dropping them is worst).
  double handoff_bonus = 1.2;
};

/// One base station's priority-weighted occupancy.  Fed with the same
/// Holding the station allocated and later released, so a remove undoes
/// exactly the add it pairs with.
class DifferentiatedCounters {
 public:
  /// Throws facsp::ConfigError for a weight below 1.
  explicit DifferentiatedCounters(PriorityWeights weights = {});

  /// An admitted connection now holds `h` on the station.
  void add(const cellular::Holding& h);

  /// The station released `h` (completion, drop or handoff-out).
  void remove(const cellular::Holding& h);

  /// Priority-weighted occupancy: the effective "Counter state" FLC2 sees.
  /// At least the station's used bandwidth when weights >= 1.
  cellular::Bandwidth effective_occupancy() const noexcept {
    return weighted_;
  }

  const PriorityWeights& weights() const noexcept { return weights_; }

 private:
  double weight(const cellular::Holding& h) const noexcept;

  PriorityWeights weights_;
  cellular::Bandwidth weighted_ = 0.0;
};

}  // namespace facsp::cac
