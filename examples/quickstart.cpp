// Quickstart: build the paper's FACS-P controller, ask it to admit a few
// calls, and peek inside the two-stage fuzzy pipeline.
//
//   $ ./quickstart
//
// Covers the three things every user of the library needs:
//   1. constructing FacsPPolicy (and what its knobs mean),
//   2. forming an AdmissionRequest and reading the AdmissionDecision,
//   3. tracing which fuzzy rules fired via FuzzyController::explain().
#include <cstdio>
#include <iostream>

#include "cac/facs_p.h"
#include "cellular/basestation.h"

using namespace facsp;

namespace {

cac::AdmissionRequest make_request(cellular::ConnectionId id,
                                   cellular::ServiceClass service,
                                   double speed_kmh, double angle_deg) {
  cac::AdmissionRequest req;
  req.id = id;
  req.service = service;
  req.bandwidth = cellular::service_bandwidth(service);
  req.kind = cellular::RequestKind::kNew;
  req.speed_kmh = speed_kmh;
  req.angle_deg = angle_deg;  // 0 = heading straight at the base station
  return req;
}

void decide_and_report(cac::FacsPPolicy& policy, cellular::BaseStation& bs,
                       const cac::AdmissionRequest& req) {
  const auto decision = policy.decide(req, bs);
  std::printf(
      "  %-6s %5.1f km/h  angle %6.1f  ->  score %+5.2f  [%s]  %s\n",
      std::string(cellular::service_name(req.service)).c_str(),
      req.speed_kmh, req.angle_deg, decision.score,
      std::string(to_string(decision.verdict)).c_str(),
      decision.admitted ? "ADMIT" : "reject");
  if (decision.admitted) {
    cellular::Connection conn;
    conn.id = req.id;
    conn.service = req.service;
    conn.bandwidth = req.bandwidth;
    bs.allocate(conn, 0.0);
    policy.on_admitted(req, bs);
  }
}

}  // namespace

int main() {
  std::cout << "FACS-P quickstart\n=================\n\n";

  // One 40-BU cell (the paper's Sec. 4 configuration) and the proposed
  // controller with its default priority weights (real-time ongoing load
  // counts 1.6x, handoff-continuing calls an extra 1.2x).
  cellular::BaseStation bs(/*id=*/0, cellular::HexCoord{0, 0},
                           cellular::Point{0.0, 0.0}, /*capacity=*/40.0);
  cac::FacsPPolicy policy;  // default FacsPConfig

  std::cout << "Empty cell — everything reasonable gets in:\n";
  decide_and_report(policy, bs, make_request(1, cellular::ServiceClass::kVideo,
                                             80.0, 5.0));
  decide_and_report(policy, bs, make_request(2, cellular::ServiceClass::kVoice,
                                             50.0, -30.0));
  decide_and_report(policy, bs, make_request(3, cellular::ServiceClass::kText,
                                             3.0, 120.0));

  std::cout << "\nCell now holds " << bs.used() << "/" << bs.capacity()
            << " BU (RTC=" << bs.load().rt_used
            << " BU, NRTC=" << bs.load().nrt_used
            << " BU)\n\n";

  std::cout << "Load up with more real-time traffic...\n";
  decide_and_report(policy, bs, make_request(4, cellular::ServiceClass::kVideo,
                                             70.0, 0.0));
  decide_and_report(policy, bs, make_request(5, cellular::ServiceClass::kVoice,
                                             60.0, 10.0));

  std::cout << "\nNow the cell is busy (" << bs.used() << "/"
            << bs.capacity() << " BU) and the priority of on-going "
            << "connections kicks in:\n";
  decide_and_report(policy, bs, make_request(6, cellular::ServiceClass::kVideo,
                                             90.0, 60.0));
  decide_and_report(policy, bs, make_request(7, cellular::ServiceClass::kVideo,
                                             90.0, 0.0));
  decide_and_report(policy, bs, make_request(8, cellular::ServiceClass::kText,
                                             20.0, 0.0));

  // Peek inside FLC1 for the straight fast user vs the oblique one.
  std::cout << "\nWhy? Trace FLC1 for a fast user heading straight in:\n";
  const auto ex = policy.flc1().explain(std::vector<double>{90.0, 0.0, 10.0});
  for (std::size_t i = 0; i < ex.fired.size() && i < 4; ++i)
    std::printf("  %.2f  %s\n", ex.fired[i].strength,
                ex.rule_text[i].c_str());
  std::printf("  => correction value Cv = %.2f (1.0 is best)\n", ex.crisp);

  std::cout << "\nDone.  See examples/rule_explorer.cpp to play with the "
               "rule bases interactively.\n";
  return 0;
}
