// Steady-state allocation test for the SCC baseline (counter:
// tests/alloc_counter.h): once warm, decide() builds its shadow cluster in
// policy-owned scratch and projects mobiles into fixed-size arrays, so a
// decision on any station — new call or registered handoff — allocates
// nothing.
#include <gtest/gtest.h>

#include <vector>

#include "cac/scc.h"
#include "cellular/network.h"
#include "sim/rng.h"

#include "../alloc_counter.h"

namespace facsp::cac {
namespace {

using testutil::allocations;

TEST(SccAlloc, WarmDecideAllocatesNothing) {
  // rings = 2 and the default cluster radius: up to seven in-network
  // cluster cells per decision, fewer on the rim.
  const cellular::CellularNetwork net(2, 1000.0, 40.0);
  SccPolicy scc(net);
  sim::RandomStream rng(3);
  std::vector<AdmissionRequest> reqs;
  for (cellular::ConnectionId id = 1; id <= 60; ++id) {
    AdmissionRequest req;
    req.id = id;
    req.service = cellular::ServiceClass::kText;
    req.bandwidth = cellular::service_bandwidth(req.service);
    req.kind = id % 2 ? cellular::RequestKind::kNew
                      : cellular::RequestKind::kHandoff;
    req.mobile = {{rng.uniform(-4000.0, 4000.0), rng.uniform(-4000.0, 4000.0)},
                  rng.uniform(0.0, 120.0),
                  rng.uniform(-180.0, 180.0)};
    if (id <= 40) scc.on_admitted(req, *net.stations().front());
    reqs.push_back(req);
  }
  const std::vector<const cellular::BaseStation*> stations = net.stations();
  std::size_t admitted = 0;
  const auto pass = [&] {
    for (const cellular::BaseStation* bs : stations)
      for (const AdmissionRequest& req : reqs)
        admitted += scc.decide(req, *bs).admitted;
  };
  pass();  // warm
  const std::size_t before = allocations();
  pass();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(admitted, 0u);  // the audited decisions did real work
}

}  // namespace
}  // namespace facsp::cac
