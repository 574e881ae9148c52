// Admission-policy interface shared by FACS-P, FACS, SCC and the classical
// baselines.  Each session driver owns one policy, built by a
// core::PolicyFactory once the driver's network exists.  The driver builds
// an AdmissionRequest per new call or handoff, asks the policy to decide,
// and notifies it of lifecycle events so stateful policies (SCC's shadow
// clusters, FACS-P's weighted occupancy) stay current.
#pragma once

#include <span>
#include <string_view>

#include "cellular/basestation.h"
#include "cellular/connection.h"
#include "cellular/mobility.h"
#include "cellular/service.h"
#include "sim/event_queue.h"

namespace facsp::cac {

/// Everything a policy may consult about one admission attempt.
struct AdmissionRequest {
  cellular::ConnectionId id = 0;
  cellular::ServiceClass service = cellular::ServiceClass::kText;
  cellular::Bandwidth bandwidth = 1.0;
  cellular::RequestKind kind = cellular::RequestKind::kNew;
  /// Priority of the *requesting* connection (the paper's future work;
  /// only FACS-PR consumes it, other policies ignore it).
  cellular::UserPriority priority = cellular::UserPriority::kNormal;

  /// Kinematics as the network *estimates* them.  angle_deg is the predicted
  /// angle between the user's travel direction and the bearing to the target
  /// base station (0 = heading straight at it); prediction error already
  /// included by the DirectionPredictor upstream.
  double speed_kmh = 0.0;
  double angle_deg = 0.0;
  double distance_m = 0.0;  ///< distance from the target BS (FACS's input)

  /// True kinematic state (SCC projects trajectories from it).
  cellular::MobileState mobile;

  sim::SimTime now = 0.0;
};

/// Qualitative admission verdict (paper's five-level soft decision).
enum class Verdict {
  kReject,
  kWeakReject,
  kNeutral,      ///< "not reject, not accept"
  kWeakAccept,
  kAccept,
};

std::string_view to_string(Verdict v) noexcept;

/// Map a crisp decision score in [-1, 1] to the five-level verdict.
/// Boundaries at +/-0.15 and +/-0.45 (midpoints between the A/R term cores).
Verdict verdict_from_score(double score) noexcept;

/// Outcome of one admission attempt.
struct AdmissionDecision {
  bool admitted = false;
  /// Crisp decision score.  For the fuzzy policies this is the defuzzified
  /// A/R in [-1, 1]; for baselines a capacity margin mapped into [-1, 1].
  double score = 0.0;
  Verdict verdict = Verdict::kReject;
};

/// Abstract call admission controller.
///
/// Implementations must be deterministic given the request stream (any
/// randomness must come from seeded streams passed at construction), so that
/// baseline comparisons use common random numbers.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Decide whether `req` may be admitted to `bs`.  Must not mutate the BS;
  /// the caller allocates on success and then calls on_admitted().
  virtual AdmissionDecision decide(const AdmissionRequest& req,
                                   const cellular::BaseStation& bs) = 0;

  /// Decide a batch of independent requests against one base station,
  /// writing out[i] for reqs[i].  Decisions are taken as-if sequential but
  /// without allocation/admission between them (no on_admitted() runs), so
  /// this suits scoring sweeps and benches rather than the live event loop.
  /// The default loops decide(); the fuzzy policies reuse one inference
  /// scratch across the whole batch.
  virtual void decide_batch(std::span<const AdmissionRequest> reqs,
                            const cellular::BaseStation& bs,
                            std::span<AdmissionDecision> out);

  /// The request was admitted and the bandwidth allocated on `bs`.
  virtual void on_admitted(const AdmissionRequest& req,
                           const cellular::BaseStation& bs) {
    (void)req;
    (void)bs;
  }

  /// The connection released its bandwidth on `bs` (completion, drop after
  /// allocation, or the source side of a handoff).  `released` is what
  /// BaseStation::release returned: exactly what the matching allocation
  /// added, so a policy needs no per-call record of its own to undo it.
  virtual void on_released(cellular::ConnectionId id,
                           const cellular::Holding& released,
                           const cellular::BaseStation& bs) {
    (void)id;
    (void)released;
    (void)bs;
  }

  /// Periodic mobility report for an on-going connection (SCC's shadow
  /// clusters consume these).
  virtual void on_mobility(cellular::ConnectionId id,
                           const cellular::MobileState& state,
                           sim::SimTime now) {
    (void)id;
    (void)state;
    (void)now;
  }

  /// Drop all internal state (new replication).
  virtual void reset() {}
};

}  // namespace facsp::cac
