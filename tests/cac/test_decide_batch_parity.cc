// decide_batch <-> decide() parity, fuzzed over every registered policy.
//
// The batch API's contract (cac/policy.h) is "as-if sequential decide()
// calls without allocation between them".  A subclass overriding
// decide_batch with a fast path — or inheriting the default after changing
// decide() (the trap noted in fuzzy_cac_base.h) — must keep verdicts
// identical to a plain decide() loop.  Two policy instances are built from
// the same factory with the same seeds (randomised policies like fgc draw
// the same stream either way), one decides request-by-request, the other in
// one batch, under fuzzed request mixes and base-station load levels.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cac/policy.h"
#include "cellular/basestation.h"
#include "cellular/network.h"
#include "core/experiment.h"
#include "policy_fuzz.h"
#include "sim/rng.h"

namespace facsp::cac {
namespace {

TEST(DecideBatchParity, BatchMatchesDecideLoopForEveryRegisteredPolicy) {
  constexpr std::uint64_t kSeed = 20260730;
  constexpr int kBatches = 60;
  constexpr std::size_t kMaxBatch = 24;

  const cellular::CellularNetwork network(1, 2000.0, 40.0);

  for (const std::string& name : core::policy_names()) {
    SCOPED_TRACE("policy=" + name);
    const core::PolicyFactory factory = core::policy_factory_by_name(name);
    // Identically seeded twins: randomised policies draw the same streams.
    sim::RngFactory rng_a(kSeed), rng_b(kSeed);
    const std::unique_ptr<AdmissionPolicy> loop_policy =
        factory(network, rng_a);
    const std::unique_ptr<AdmissionPolicy> batch_policy =
        factory(network, rng_b);

    sim::RandomStream fuzz(sim::hash_seed(kSeed, "fuzz"));
    std::uint64_t next_id = 1;
    for (int b = 0; b < kBatches; ++b) {
      SCOPED_TRACE("batch=" + std::to_string(b));
      // Fresh station per batch, fuzzed to a random occupancy, mirrored
      // into both policies identically.
      cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
      loop_policy->reset();
      batch_policy->reset();
      {
        // One fuzz stream drives both mirrors: replay the same draws.
        sim::RandomStream load_rng(sim::hash_seed(kSeed, "load",
                                                  static_cast<std::uint64_t>(b)));
        fuzz_load(bs, *loop_policy, load_rng, 1000000 + next_id);
      }
      {
        sim::RandomStream load_rng(sim::hash_seed(kSeed, "load",
                                                  static_cast<std::uint64_t>(b)));
        cellular::BaseStation mirror(0, {0, 0}, {0.0, 0.0}, 40.0);
        fuzz_load(mirror, *batch_policy, load_rng, 1000000 + next_id);
      }

      const std::size_t count =
          1 + static_cast<std::size_t>(fuzz.uniform_int(
                  0, static_cast<std::int64_t>(kMaxBatch - 1)));
      std::vector<AdmissionRequest> reqs;
      reqs.reserve(count);
      for (std::size_t i = 0; i < count; ++i)
        reqs.push_back(fuzz_request(fuzz, next_id++));

      std::vector<AdmissionDecision> loop_out(count);
      for (std::size_t i = 0; i < count; ++i)
        loop_out[i] = loop_policy->decide(reqs[i], bs);

      std::vector<AdmissionDecision> batch_out(count);
      batch_policy->decide_batch(reqs, bs, batch_out);

      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(loop_out[i].admitted, batch_out[i].admitted)
            << "request " << i;
        ASSERT_EQ(loop_out[i].score, batch_out[i].score) << "request " << i;
        ASSERT_EQ(loop_out[i].verdict, batch_out[i].verdict)
            << "request " << i;
      }
    }
  }
}

}  // namespace
}  // namespace facsp::cac
