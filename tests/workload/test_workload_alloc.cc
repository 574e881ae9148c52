// Steady-state allocation test for workload generation: once a
// TrafficGenerator has produced one batch, every later batch of the same
// size reuses its buffers, for every arrival process (counter:
// tests/alloc_counter.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cellular/traffic.h"
#include "workload/arrival.h"

#include "../alloc_counter.h"

namespace facsp::workload {
namespace {

using testutil::allocations;

class WarmGenerateInto : public ::testing::TestWithParam<ArrivalKind> {};

TEST_P(WarmGenerateInto, AllocatesNothingPerBatch) {
  constexpr int kBatchN = 100;  // the paper grid's heaviest point
  constexpr int kBatches = 2000;
  const cellular::HexLayout layout(2000.0);
  cellular::TrafficConfig cfg;  // paper defaults
  cfg.arrival.kind = GetParam();
  cellular::TrafficGenerator gen(cfg, layout, cellular::HexCoord{0, 0},
                                 cellular::Point{0.0, 0.0},
                                 sim::RandomStream(42));
  std::vector<cellular::CallRequest> out;
  gen.generate_into(kBatchN, 0.0, out);  // sizes every buffer

  const std::size_t before = allocations();
  for (int b = 1; b <= kBatches; ++b)
    gen.generate_into(kBatchN, b * 1000.0, out);
  EXPECT_EQ(allocations() - before, 0u)
      << arrival_kind_name(GetParam()) << " allocated over " << kBatches
      << " warm batches";
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kBatchN));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WarmGenerateInto,
    ::testing::Values(ArrivalKind::kConditionedUniform, ArrivalKind::kOnOff,
                      ArrivalKind::kDiurnal, ArrivalKind::kFlashCrowd),
    [](const auto& info) { return std::string(arrival_kind_name(info.param)); });

}  // namespace
}  // namespace facsp::workload
