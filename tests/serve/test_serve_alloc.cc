// Steady-state allocation test for DecisionServer (counter:
// tests/alloc_counter.h).  A saturated, no-churn scenario — holding times
// far longer than the run — fills the cell in the first second, so every
// later second only blocks.  Setup and warm-up allocate identically in an
// 8 s and a 16 s run; the runs differ only in how many steady-state
// seconds they serve, so equal allocation counts prove those extra seconds
// allocated nothing.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/decision_loop.h"
#include "workload/catalog.h"

#include "../alloc_counter.h"

namespace facsp::serve {
namespace {

using testutil::allocations;

std::size_t allocations_for_duration(std::int64_t duration_s) {
  ServerConfig config;
  config.scenario = workload::catalog_scenario("paper-grid");
  config.scenario.seed = 42;
  // ~115 days of holding against a <= 16 s run: no call ever releases.
  config.scenario.traffic.mean_holding_s = 1e7;
  config.requests_per_s = 20000;
  config.shards = 1;
  config.threads = 1;
  config.duration_s = duration_s;
  DecisionServer server(config);
  const std::size_t before = allocations();
  const ServerResult result = server.run();
  const std::size_t allocated = allocations() - before;
  EXPECT_EQ(result.total_decisions, 20000 * duration_s);
  return allocated;
}

TEST(ServeAlloc, SteadySecondsAllocateNothingWithObservabilityOff) {
  const std::size_t short_run = allocations_for_duration(8);
  const std::size_t long_run = allocations_for_duration(16);
  EXPECT_EQ(long_run, short_run);
}

TEST(ServeAlloc, SteadySecondsAllocateNothingWithMetricsAndTracingOn) {
  obs::set_metrics_enabled(true);
  obs::Tracer::start();
  (void)allocations_for_duration(2);  // registers metrics and the trace ring
  const std::size_t short_run = allocations_for_duration(8);
  const std::size_t long_run = allocations_for_duration(16);
  obs::Tracer::clear();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(long_run, short_run);
}

}  // namespace
}  // namespace facsp::serve
