// Seeded request and load fuzzers shared by the admission-policy suites.
#pragma once

#include <cstdint>

#include "cac/policy.h"
#include "cellular/basestation.h"
#include "sim/rng.h"

namespace facsp::cac {

inline AdmissionRequest fuzz_request(sim::RandomStream& rng,
                                     std::uint64_t id) {
  using cellular::ServiceClass;
  AdmissionRequest req;
  req.id = id;
  const std::size_t svc = static_cast<std::size_t>(rng.uniform_int(0, 2));
  req.service = static_cast<ServiceClass>(svc);
  req.bandwidth = cellular::service_bandwidth(req.service);
  req.kind = rng.bernoulli(0.3) ? cellular::RequestKind::kHandoff
                                : cellular::RequestKind::kNew;
  req.priority =
      static_cast<cellular::UserPriority>(rng.uniform_int(0, 2));
  req.speed_kmh = rng.uniform(0.0, 120.0);
  req.angle_deg = rng.uniform(-180.0, 180.0);
  req.distance_m = rng.uniform(0.0, 2000.0);
  req.mobile.position = {rng.uniform(-1500.0, 1500.0),
                         rng.uniform(-1500.0, 1500.0)};
  req.mobile.speed_kmh = req.speed_kmh;
  req.mobile.heading_deg = rng.uniform(-180.0, 180.0);
  req.now = rng.uniform(0.0, 3600.0);
  return req;
}

/// Fill `bs` to a fuzzed occupancy so counter-state inputs vary across
/// batches.  Mirrored onto the policy via on_admitted so stateful policies
/// (FACS-P's RTC/NRTC) see a consistent world.
inline void fuzz_load(cellular::BaseStation& bs, AdmissionPolicy& policy,
                      sim::RandomStream& rng, std::uint64_t id_base) {
  using cellular::ServiceClass;
  const int calls = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < calls; ++i) {
    cellular::Connection conn;
    conn.id = id_base + static_cast<std::uint64_t>(i);
    conn.service =
        static_cast<ServiceClass>(rng.uniform_int(0, 2));
    conn.bandwidth = cellular::service_bandwidth(conn.service);
    const bool via_handoff = rng.bernoulli(0.4);
    if (!bs.allocate(conn, 0.0, via_handoff)) break;
    AdmissionRequest req;
    req.id = conn.id;
    req.service = conn.service;
    req.bandwidth = conn.bandwidth;
    req.kind = via_handoff ? cellular::RequestKind::kHandoff
                           : cellular::RequestKind::kNew;
    policy.on_admitted(req, bs);
  }
}

}  // namespace facsp::cac
