// Steady-state allocation tests for the fuzzy fast path and the FACS-P
// admission decision: warm a controller or policy up, then assert that
// further evaluations allocate nothing (counter: tests/alloc_counter.h).
#include <gtest/gtest.h>

#include "cac/facs_p.h"
#include "cellular/basestation.h"
#include "fuzzy/controller.h"

#include "../alloc_counter.h"

namespace facsp::fuzzy {
namespace {

using testutil::allocations;

TEST(ZeroAlloc, CounterObservesHeapAllocations) {
  const std::size_t before = allocations();
  auto* p = new int(7);
  EXPECT_GT(allocations(), before);
  delete p;
}

TEST(ZeroAlloc, SteadyStateInferIntoDoesNotAllocate) {
  const auto flc1 = cac::make_flc1();
  InferenceScratch scratch;
  const double inputs[3] = {60.0, 20.0, 5.0};
  // Warm-up sizes every scratch buffer to its steady state.
  (void)flc1->evaluate_with(scratch, inputs);

  const std::size_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double in[3] = {i % 120 * 1.0, (i % 360) - 180.0, i % 10 * 1.0};
    sink += flc1->evaluate_with(scratch, in);
  }
  EXPECT_EQ(allocations(), before) << "evaluate_with allocated on a warm "
                                      "scratch (sink=" << sink << ")";
}

TEST(ZeroAlloc, SteadyStateEvaluateDoesNotAllocate) {
  const auto flc2 = cac::make_flc2();
  (void)flc2->evaluate({0.4, 5.0, 17.0});  // warm the thread-local scratch

  const std::size_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 1000; ++i)
    sink += flc2->evaluate({i % 10 * 0.1, i % 10 * 1.0, i % 40 * 1.0});
  EXPECT_EQ(allocations(), before) << "evaluate() allocated (sink=" << sink
                                   << ")";
}

TEST(ZeroAlloc, SteadyStateEvaluateBatchDoesNotAllocate) {
  const auto flc1 = cac::make_flc1();
  std::vector<double> inputs(64 * 3);
  std::vector<double> out(64);
  for (std::size_t r = 0; r < 64; ++r) {
    inputs[r * 3 + 0] = static_cast<double>(r % 120);
    inputs[r * 3 + 1] = static_cast<double>(r % 360) - 180.0;
    inputs[r * 3 + 2] = static_cast<double>(r % 10);
  }
  flc1->evaluate_batch(inputs, out);  // warm-up

  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) flc1->evaluate_batch(inputs, out);
  EXPECT_EQ(allocations(), before);
}

TEST(ZeroAlloc, SteadyStateSoaBatchScratchDoesNotAllocate) {
  // The explicit-scratch batched path: the structure-of-arrays lane buffers
  // (lane_inputs/lane_grades/lane_activations) must reach steady state on
  // the first batch and never touch the heap again — including for partial
  // tail blocks (rows not a multiple of kLanes).
  const auto flc2 = cac::make_flc2();
  InferenceScratch scratch;
  std::vector<double> inputs(37 * 3);
  std::vector<double> out(37);
  for (std::size_t r = 0; r < out.size(); ++r) {
    inputs[r * 3 + 0] = static_cast<double>(r % 10) * 0.1;
    inputs[r * 3 + 1] = static_cast<double>(r % 10);
    inputs[r * 3 + 2] = static_cast<double>(r % 40);
  }
  flc2->evaluate_batch_with(scratch, inputs, out);  // warm-up

  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) flc2->evaluate_batch_with(scratch, inputs, out);
  EXPECT_EQ(allocations(), before) << "SoA batch scratch allocated when warm";
}

TEST(ZeroAlloc, SteadyStateAdmissionDecisionDoesNotAllocate) {
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  cac::AdmissionRequest req;
  req.id = 1;
  req.service = cellular::ServiceClass::kVoice;
  req.bandwidth = 5.0;
  req.speed_kmh = 60.0;
  req.angle_deg = 20.0;
  (void)policy.decide(req, bs);  // warms scratch and the BS counter ledger

  const std::size_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    req.speed_kmh = static_cast<double>(i % 120);
    req.angle_deg = static_cast<double>(i % 360) - 180.0;
    (void)policy.decide(req, bs);
  }
  EXPECT_EQ(allocations(), before) << "FACS-P decide() allocated";
}

TEST(ZeroAlloc, SteadyStateDecisionBatchDoesNotAllocate) {
  cac::FacsPPolicy policy;
  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  std::vector<cac::AdmissionRequest> reqs(64);
  std::vector<cac::AdmissionDecision> out(64);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<cellular::ConnectionId>(i + 1);
    reqs[i].service = cellular::ServiceClass::kVoice;
    reqs[i].bandwidth = 5.0;
    reqs[i].speed_kmh = static_cast<double>(i % 120);
    reqs[i].angle_deg = static_cast<double>(i % 360) - 180.0;
  }
  policy.decide_batch(reqs, bs, out);  // warm-up

  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) policy.decide_batch(reqs, bs, out);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(out.size(), reqs.size());
}

}  // namespace
}  // namespace facsp::fuzzy
