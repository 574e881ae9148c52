// The shared policy model: FACS-P's FLC1/FLC2 are fixed rule bases, so the
// FACS-P and FACS-PR factories build one immutable controller pair when the
// factory is created and every policy they return shares it.  Only the
// RTC/NRTC counters and the inference scratch are per policy.  The FACS
// factory shares its FLC2 the same way, and one FLC1-D per cell radius.
//
//   * policies from one factory hold the same flc1()/flc2() objects;
//   * a sharing policy decides exactly like a standalone one built with its
//     own pair — decide() and decide_batch(), over fuzzed requests and
//     loads;
//   * one pair evaluated from several pool workers at once gives the serial
//     results (this suite also runs under TSan).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cac/facs.h"
#include "cac/facs_p.h"
#include "cac/facs_pr.h"
#include "cellular/basestation.h"
#include "cellular/network.h"
#include "core/experiment.h"
#include "policy_fuzz.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace facsp::cac {
namespace {

constexpr std::uint64_t kSeed = 20261017;

const cellular::CellularNetwork& test_network() {
  static const cellular::CellularNetwork network(1, 2000.0, 40.0);
  return network;
}

std::unique_ptr<AdmissionPolicy> make(const core::PolicyFactory& factory) {
  sim::RngFactory rng(kSeed);
  return factory(test_network(), rng);
}

const FacsPPolicy& facs_p_of(const AdmissionPolicy& policy) {
  if (const auto* pr = dynamic_cast<const FacsPrPolicy*>(&policy))
    return pr->base();
  return dynamic_cast<const FacsPPolicy&>(policy);
}

/// Decisions of `policy` on batch `b` of the seeded fuzz: a fresh station
/// loaded to a fuzzed occupancy (mirrored into the policy's counters), then
/// the batch's requests decided one by one and, on a second station in the
/// same state, all at once.
struct BatchDecisions {
  std::vector<AdmissionDecision> single, batched;
};

BatchDecisions decide_fuzzed_batch(AdmissionPolicy& policy, int b) {
  const auto seeded = [b](const char* what) {
    return sim::RandomStream(
        sim::hash_seed(kSeed, what, static_cast<std::uint64_t>(b)));
  };
  BatchDecisions out;
  sim::RandomStream req_rng = seeded("requests");
  const std::size_t count =
      1 + static_cast<std::size_t>(req_rng.uniform_int(0, 23));
  std::vector<AdmissionRequest> reqs;
  for (std::size_t i = 0; i < count; ++i)
    reqs.push_back(fuzz_request(req_rng, i + 1));

  cellular::BaseStation bs(0, {0, 0}, {0.0, 0.0}, 40.0);
  policy.reset();
  sim::RandomStream load_rng = seeded("load");
  fuzz_load(bs, policy, load_rng, 1000000);
  for (const AdmissionRequest& req : reqs)
    out.single.push_back(policy.decide(req, bs));

  cellular::BaseStation mirror(0, {0, 0}, {0.0, 0.0}, 40.0);
  policy.reset();
  load_rng = seeded("load");
  fuzz_load(mirror, policy, load_rng, 1000000);
  out.batched.resize(count);
  policy.decide_batch(reqs, mirror, out.batched);
  return out;
}

void expect_same_decisions(const std::vector<AdmissionDecision>& a,
                           const std::vector<AdmissionDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score) << "request " << i;
    EXPECT_EQ(a[i].verdict, b[i].verdict) << "request " << i;
    EXPECT_EQ(a[i].admitted, b[i].admitted) << "request " << i;
  }
}

FacsPConfig non_default_config() {
  FacsPConfig config;
  config.defuzz_method = fuzzy::DefuzzMethod::kBisector;
  config.accept_threshold = 0.0;
  config.handoff_score_bonus = 0.1;
  return config;
}

TEST(SharedPolicyModel, PoliciesFromOneFactoryShareOneControllerPair) {
  for (const core::PolicyFactory& factory :
       {core::make_facs_p_factory(), core::make_facs_pr_factory()}) {
    const std::unique_ptr<AdmissionPolicy> a = make(factory);
    const std::unique_ptr<AdmissionPolicy> b = make(factory);
    SCOPED_TRACE(std::string(a->name()));
    EXPECT_EQ(&facs_p_of(*a).flc1(), &facs_p_of(*b).flc1());
    EXPECT_EQ(&facs_p_of(*a).flc2(), &facs_p_of(*b).flc2());
    EXPECT_NE(&facs_p_of(*a).flc1(), &facs_p_of(*a).flc2());
  }
  // A standalone policy and a second factory each build their own pair.
  const std::unique_ptr<AdmissionPolicy> shared =
      make(core::make_facs_p_factory());
  const FacsPPolicy standalone;
  const std::unique_ptr<AdmissionPolicy> other =
      make(core::make_facs_p_factory());
  EXPECT_NE(&facs_p_of(*shared).flc1(), &standalone.flc1());
  EXPECT_NE(&facs_p_of(*shared).flc1(), &facs_p_of(*other).flc1());
}

TEST(SharedPolicyModel, FacsFactorySharesFlc2AndOneFlc1PerCellRadius) {
  const core::PolicyFactory factory = core::make_facs_factory();
  const auto facs_of = [](const AdmissionPolicy& policy) -> const FacsPolicy& {
    return dynamic_cast<const FacsPolicy&>(policy);
  };
  const std::unique_ptr<AdmissionPolicy> a = make(factory);
  const std::unique_ptr<AdmissionPolicy> b = make(factory);
  EXPECT_EQ(&facs_of(*a).flc1(), &facs_of(*b).flc1());
  EXPECT_EQ(&facs_of(*a).flc2(), &facs_of(*b).flc2());
  EXPECT_EQ(facs_of(*a).config().flc1.cell_radius_m, 2000.0);

  // Another cell radius gets its own FLC1-D and the same FLC2.
  const cellular::CellularNetwork wide(1, 3000.0, 40.0);
  sim::RngFactory rng(kSeed);
  const std::unique_ptr<AdmissionPolicy> c = factory(wide, rng);
  EXPECT_NE(&facs_of(*c).flc1(), &facs_of(*a).flc1());
  EXPECT_EQ(&facs_of(*c).flc2(), &facs_of(*a).flc2());
  EXPECT_EQ(facs_of(*c).config().flc1.cell_radius_m, 3000.0);

  // Concurrent factory calls, as sweep workers make them, on both radii:
  // every policy of one radius still holds that radius's FLC1-D.
  constexpr int kTasks = 32;
  std::vector<std::unique_ptr<AdmissionPolicy>> built(kTasks);
  sim::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t t) {
    sim::RngFactory task_rng(kSeed);
    built[t] = factory(t % 2 == 0 ? test_network() : wide, task_rng);
  });
  for (std::size_t t = 0; t < built.size(); ++t) {
    const FacsPolicy& p = facs_of(*built[t]);
    EXPECT_EQ(&p.flc1(), &facs_of(t % 2 == 0 ? *a : *c).flc1()) << t;
    EXPECT_EQ(&p.flc2(), &facs_of(*a).flc2()) << t;
  }

  // A sharing policy decides like a standalone one of the same radius.
  FacsConfig config;
  config.flc1.cell_radius_m = 2000.0;
  FacsPolicy standalone(config);
  EXPECT_NE(&standalone.flc1(), &facs_of(*a).flc1());
  for (int batch = 0; batch < 30; ++batch) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const BatchDecisions want = decide_fuzzed_batch(standalone, batch);
    const BatchDecisions got = decide_fuzzed_batch(*a, batch);
    expect_same_decisions(want.single, got.single);
    expect_same_decisions(want.batched, got.batched);
  }
}

TEST(SharedPolicyModel, SharingPoliciesDecideLikeStandalonePolicies) {
  constexpr int kBatches = 60;
  for (const FacsPConfig& config : {FacsPConfig{}, non_default_config()}) {
    SCOPED_TRACE(fuzzy::to_string(config.defuzz_method));
    FacsPrConfig pr_config;
    pr_config.base = config;
    struct Case {
      core::PolicyFactory factory;
      std::unique_ptr<AdmissionPolicy> standalone;
    };
    Case cases[] = {
        {core::make_facs_p_factory(config),
         std::make_unique<FacsPPolicy>(config)},
        {core::make_facs_pr_factory(pr_config),
         std::make_unique<FacsPrPolicy>(pr_config)},
    };
    for (Case& c : cases) {
      SCOPED_TRACE(std::string(c.standalone->name()));
      // Two sharing policies, interleaved: a per-policy state leaking
      // through the shared pair would make them disagree.
      const std::unique_ptr<AdmissionPolicy> first = make(c.factory);
      const std::unique_ptr<AdmissionPolicy> second = make(c.factory);
      for (int b = 0; b < kBatches; ++b) {
        SCOPED_TRACE("batch=" + std::to_string(b));
        const BatchDecisions want = decide_fuzzed_batch(*c.standalone, b);
        AdmissionPolicy& sharing = b % 2 == 0 ? *first : *second;
        const BatchDecisions got = decide_fuzzed_batch(sharing, b);
        expect_same_decisions(want.single, got.single);
        expect_same_decisions(want.batched, got.batched);
      }
    }
  }
}

TEST(SharedPolicyModel, OnePairEvaluatedFromFourWorkersMatchesSerial) {
  constexpr int kTasks = 64;
  const core::PolicyFactory factory = core::make_facs_p_factory();

  std::vector<BatchDecisions> serial(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    const std::unique_ptr<AdmissionPolicy> policy = make(factory);
    serial[static_cast<std::size_t>(t)] = decide_fuzzed_batch(*policy, t);
  }

  // Each task builds its own policy from the one factory — concurrent
  // factory calls, as sweep workers make them — so every worker evaluates
  // the same shared FLC1/FLC2 objects at once.
  std::vector<BatchDecisions> parallel(kTasks);
  sim::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t t) {
    const std::unique_ptr<AdmissionPolicy> policy = make(factory);
    parallel[t] = decide_fuzzed_batch(*policy, static_cast<int>(t));
  });

  for (int t = 0; t < kTasks; ++t) {
    SCOPED_TRACE("task=" + std::to_string(t));
    expect_same_decisions(serial[static_cast<std::size_t>(t)].single,
                          parallel[static_cast<std::size_t>(t)].single);
    expect_same_decisions(serial[static_cast<std::size_t>(t)].batched,
                          parallel[static_cast<std::size_t>(t)].batched);
  }
}

}  // namespace
}  // namespace facsp::cac
