// On-disk admission-request trace: `trace record` captures the exact
// request sequence a workload stream produces, `trace replay` (and the
// decision server's replay mode) feeds it back.
//
// The format is a plain CSV with a fixed header (see kTraceColumns).  All
// doubles are written through core::format_double — shortest decimal that
// round-trips exactly — so record -> replay -> record is byte-stable and a
// recorded trace is diffable across machines.
//
// Records carry the *post-prediction* request (the noisy angle the policy
// actually saw, not the true heading), so replaying never re-draws any
// randomness: a trace pins the policy inputs completely.
#pragma once

#include <cmath>
#include <iosfwd>
#include <string>
#include <vector>

#include "cac/policy.h"

namespace facsp::serve {

/// One admission request as the server sees it, plus the call's holding
/// time (needed to schedule the session's bandwidth release on admit).
/// `req.now` is the arrival time in seconds on the simulated clock.
struct StampedRequest {
  cac::AdmissionRequest req;
  double holding_s = 0.0;
};

/// Largest arrival time a request may carry (2^32 simulated seconds,
/// ~136 years).  A hard sanity cap: it keeps every downstream
/// double->int64 second computation far from overflow, and stops an absurd
/// arrival from wedging a server that finalizes every empty second up to it.
inline constexpr double kMaxArrivalS = 4294967296.0;

/// The request-validity rule shared by the socket decoder
/// (net::decode_request) and read_trace(): every double is finite (a NaN or
/// infinity poisons batching and expiry arithmetic), 0 <= now <=
/// kMaxArrivalS, holding_s >= 0, and bandwidth > 0 (BaseStation::allocate's
/// precondition).
inline bool valid_request(const StampedRequest& r) noexcept {
  const cac::AdmissionRequest& q = r.req;
  const double doubles[] = {q.now,          q.bandwidth,
                            q.speed_kmh,    q.angle_deg,
                            q.distance_m,   r.holding_s,
                            q.mobile.position.x, q.mobile.position.y,
                            q.mobile.heading_deg};
  for (const double v : doubles)
    if (!std::isfinite(v)) return false;
  return q.now >= 0.0 && r.holding_s >= 0.0 && q.now <= kMaxArrivalS &&
         q.bandwidth > 0.0;
}

/// The trace header line (column order is part of the format).
extern const char kTraceHeader[];

/// Write records as trace CSV.  Byte-stable: same records -> same bytes.
void write_trace(const std::vector<StampedRequest>& records, std::ostream& os);
/// Throws facsp::Error on I/O failure.
void write_trace_file(const std::vector<StampedRequest>& records,
                      const std::string& path);

/// Parse a trace CSV.  Throws facsp::ParseError on a malformed header,
/// unknown enum name, unparsable number, or a row that fails
/// valid_request().
std::vector<StampedRequest> read_trace(std::istream& is);
std::vector<StampedRequest> read_trace_file(const std::string& path);

}  // namespace facsp::serve
