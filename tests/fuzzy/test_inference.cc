#include "fuzzy/inference.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include "fuzzy/builder.h"

namespace facsp::fuzzy {
namespace {

// Term indices of the fixture variables.
constexpr std::size_t kLo = 0, kHi = 1;           // inputs x and y
constexpr std::size_t kSmall = 0, kMid = 1, kLarge = 2;  // output z
constexpr std::size_t kAny = FuzzyRule::kAny;

FuzzyRule rule(std::size_t x, std::size_t y, std::size_t z,
               double weight = 1.0) {
  FuzzyRule r;
  r.antecedents = {x, y};
  r.consequent = z;
  r.weight = weight;
  return r;
}

struct InferenceFixture : ::testing::Test {
  std::vector<LinguisticVariable> inputs;
  LinguisticVariable output = VariableBuilder("z", 0.0, 1.0)
                                  .left_shoulder("small", 0.25, 0.5)
                                  .triangular("mid", 0.5, 0.25, 0.25)
                                  .right_shoulder("large", 0.75, 0.5)
                                  .build();
  InferenceScratch scratch;

  InferenceFixture() {
    inputs.push_back(VariableBuilder("x", 0.0, 10.0)
                         .left_shoulder("lo", 0.0, 10.0)
                         .right_shoulder("hi", 10.0, 10.0)
                         .build());
    inputs.push_back(VariableBuilder("y", 0.0, 10.0)
                         .left_shoulder("lo", 0.0, 10.0)
                         .right_shoulder("hi", 10.0, 10.0)
                         .build());
  }

  /// Per-term activations of the untraced fast path.
  const std::vector<double>& infer(const InferenceEngine& engine,
                                   std::vector<double> in) {
    engine.infer_into(in, scratch);
    return scratch.activations;
  }
};

TEST_F(InferenceFixture, MinOfAntecedentGradesIsFiringStrength) {
  const RuleBase rb({rule(kLo, kLo, kSmall)}, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  // x=2 -> mu_lo = 0.8; y=5 -> mu_lo = 0.5; min = 0.5.
  const auto& acts = infer(engine, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(acts[0], 0.5);
  EXPECT_DOUBLE_EQ(acts[1], 0.0);
  EXPECT_DOUBLE_EQ(acts[2], 0.0);
}

TEST_F(InferenceFixture, MaxAggregatesSameConsequent) {
  const RuleBase rb({rule(kLo, kAny, kSmall), rule(kAny, kLo, kSmall)},
                    inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  // mu_lo(x=2)=0.8, mu_lo(y=6)=0.4 -> max 0.8.
  EXPECT_DOUBLE_EQ(infer(engine, {2.0, 6.0})[0], 0.8);
}

TEST_F(InferenceFixture, RuleWeightScalesStrength) {
  const RuleBase rb({rule(kLo, kAny, kSmall, 0.5)}, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  EXPECT_DOUBLE_EQ(infer(engine, {0.0, 0.0})[0], 0.5);
}

TEST_F(InferenceFixture, WildcardIgnoresThatInput) {
  const RuleBase rb({rule(kAny, kHi, kLarge)}, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  for (double x : {0.0, 5.0, 10.0})
    EXPECT_DOUBLE_EQ(infer(engine, {x, 10.0})[2], 1.0) << "x=" << x;
}

TEST_F(InferenceFixture, NoRuleFiresGivesEmptySet) {
  const RuleBase rb({rule(kHi, kHi, kLarge)}, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  std::vector<FiredRule> fired;
  const auto res = engine.infer_traced(std::vector<double>{0.0, 0.0}, fired);
  EXPECT_TRUE(res.empty());
  EXPECT_DOUBLE_EQ(res.height(), 0.0);
  EXPECT_TRUE(fired.empty());
}

TEST_F(InferenceFixture, TracedReportsFiredRulesDescending) {
  const RuleBase rb({rule(kLo, kAny, kSmall), rule(kAny, kLo, kMid),
                     rule(kHi, kAny, kLarge)},
                    inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  std::vector<FiredRule> fired;
  engine.infer_traced(std::vector<double>{2.0, 4.0}, fired);
  // x=2: lo=0.8, hi=0.2; y=4: lo=0.6.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].rule_index, 0u);
  EXPECT_DOUBLE_EQ(fired[0].strength, 0.8);
  EXPECT_EQ(fired[1].rule_index, 1u);
  EXPECT_DOUBLE_EQ(fired[1].strength, 0.6);
  EXPECT_EQ(fired[2].rule_index, 2u);
  EXPECT_DOUBLE_EQ(fired[2].strength, 0.2);
}

TEST_F(InferenceFixture, OutputSetGradeClipsAtActivation) {
  const RuleBase rb({rule(kLo, kAny, kLarge)}, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  std::vector<FiredRule> fired;
  const auto res =
      engine.infer_traced(std::vector<double>{2.0, 0.0}, fired);  // act 0.8
  // large is right_shoulder(0.75, 0.5): mu(1.0) = 1 -> clipped to 0.8.
  EXPECT_DOUBLE_EQ(res.grade(output, 1.0), 0.8);
  // At 0.5, mu_large = 0.5 -> min(0.8, 0.5) = 0.5.
  EXPECT_DOUBLE_EQ(res.grade(output, 0.5), 0.5);
}

TEST_F(InferenceFixture, ScratchIsReusableAcrossEngines) {
  // A scratch sized by a wide engine must still work for a narrow one and
  // vice versa — buffers are resized logically per call.
  const RuleBase rb1({rule(kLo, kAny, kSmall)}, inputs, output);
  const InferenceEngine wide(inputs, output, rb1);

  std::vector<LinguisticVariable> one_input = {inputs[0]};
  FuzzyRule r2;
  r2.antecedents = {kLo};
  r2.consequent = kLarge;
  const RuleBase rb2({r2}, one_input, output);
  const InferenceEngine narrow(one_input, output, rb2);

  wide.infer_into(std::vector<double>{2.0, 3.0}, scratch);
  const auto wide_acts = scratch.activations;
  narrow.infer_into(std::vector<double>{2.0}, scratch);
  wide.infer_into(std::vector<double>{2.0, 3.0}, scratch);
  EXPECT_EQ(scratch.activations, wide_acts);
}

TEST_F(InferenceFixture, WrongInputArityThrows) {
  const RuleBase rb({rule(kLo, kAny, kSmall)}, inputs, output);
  const InferenceEngine engine(inputs, output, rb);
  EXPECT_THROW(engine.infer_into(std::vector<double>{1.0}, scratch),
               facsp::ContractViolation);
  EXPECT_THROW(engine.infer_into(std::vector<double>{1.0, 2.0, 3.0}, scratch),
               facsp::ContractViolation);
}

}  // namespace
}  // namespace facsp::fuzzy
