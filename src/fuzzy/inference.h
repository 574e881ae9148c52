// Mamdani-style fuzzy inference.
//
// Pipeline (paper Fig. 2): fuzzifier -> inference engine (+FRB) -> defuzzifier.
// This header implements the middle stage with the paper's operators: each
// rule's firing strength is the min over its antecedent grades (AND) times
// its weight, and the strengths of rules sharing a consequent term aggregate
// by max.  The result is an OutputFuzzySet — the activation level of every
// output term — which the defuzzifier clips each term at (min implication)
// and turns into a crisp value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fuzzy/rulebase.h"
#include "fuzzy/variable.h"

namespace facsp::fuzzy {

/// Aggregated inference result: one activation level per output term.
///
/// The aggregated output membership is
///   mu_out(y) = max over terms k of min(activation[k], mu_k(y)).
struct OutputFuzzySet {
  std::vector<double> activations;  ///< indexed by output term

  /// Aggregated membership at y given the output variable's term shapes.
  double grade(const LinguisticVariable& output, double y) const;

  /// True when no rule fired (all activations zero).
  bool empty() const noexcept;

  /// Highest activation across terms.
  double height() const noexcept;
};

/// Per-rule firing record, for explanation/tracing (rule_explorer example).
struct FiredRule {
  std::size_t rule_index = 0;
  double strength = 0.0;  ///< min of antecedent grades times rule weight
};

/// Reusable evaluation arena for the allocation-free inference fast path.
///
/// All buffers grow to their steady-state size on the first evaluation and
/// are reused afterwards, so repeated infer_into()/evaluate_with() calls
/// perform zero heap allocations.  One scratch may be shared across
/// controllers (each call resizes logically, capacity only ever grows) but
/// not across threads.
struct InferenceScratch {
  std::vector<double> grades;       ///< fuzzified input grades, flat per input
  std::vector<double> activations;  ///< one activation per output term
  std::vector<double> mu;           ///< defuzzifier sample buffer

  // Structure-of-arrays block for the batched path (infer_batch_into /
  // evaluate_batch_with): lane-major flat arrays of kLanes decisions each,
  // laid out so one index step moves across decisions, not across terms —
  // the per-lane loops then compile to (or are hand-written as) SIMD.
  std::vector<double> lane_inputs;       ///< [input * kLanes + lane]
  std::vector<double> lane_grades;       ///< [grade slot * kLanes + lane]
  std::vector<double> lane_activations;  ///< [output term * kLanes + lane]

  // Row staging for multi-controller cascades over one batch (the fuzzy CAC
  // decide_batch builds FLC1's rows, then FLC2's rows, in place here).
  std::vector<double> batch_rows;  ///< row-major [row * input_count + i]
  std::vector<double> batch_out;   ///< one crisp value per row
};

/// Stateless Mamdani inference engine over a fixed (inputs, output, rules)
/// triple.  Thread-safe: evaluation does not mutate the engine.
class InferenceEngine {
 public:
  /// Decisions processed per structure-of-arrays block by the batched path.
  static constexpr std::size_t kLanes = 8;

  /// The referenced variables and rule base must outlive the engine; the
  /// FuzzyController owns all of them and the engine internally.
  InferenceEngine(const std::vector<LinguisticVariable>& inputs,
                  const LinguisticVariable& output, const RuleBase& rules);

  /// Run fuzzification + rule evaluation + aggregation for the crisp input
  /// vector (one value per input variable, clamped to each universe) and
  /// report every rule with non-zero firing strength (descending by
  /// strength).  Precondition: crisp_inputs.size() == number of inputs.
  OutputFuzzySet infer_traced(std::span<const double> crisp_inputs,
                              std::vector<FiredRule>& fired) const;

  /// Allocation-free fast path: fuzzify into scratch.grades and aggregate
  /// into scratch.activations (one entry per output term).  No fired-rule
  /// bookkeeping.  Zero heap allocations once scratch is warm.
  void infer_into(std::span<const double> crisp_inputs,
                  InferenceScratch& scratch) const;

  /// Structure-of-arrays batched inference over `rows` decisions (1 <=
  /// rows <= kLanes): `crisp_inputs` holds rows * input-count values
  /// row-major; scratch.lane_activations receives every output term's
  /// activation per lane ([term * kLanes + lane]; lanes >= rows are padding
  /// and must be ignored).  Per lane the result is bit-identical to
  /// infer_into() on that lane's row — whether the AVX2 kernel (library
  /// built with FACSP_SIMD, CPU support) or the portable loops run (kernels
  /// use only min/max/mul/add/sub/div lane ops, never FMA, in the scalar
  /// evaluation order).  Zero heap allocations once scratch is warm.
  void infer_batch_into(std::span<const double> crisp_inputs,
                        std::size_t rows, InferenceScratch& scratch) const;

 private:
  /// One rule flattened for the hot loops: a window into rule_slots_ (the
  /// grade-arena indices of its non-wildcard antecedents, in antecedent
  /// order) plus weight and consequent term.
  struct FlatRule {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint32_t consequent = 0;
    double weight = 1.0;
  };

  /// Per grade slot: the term geometry the branchless lane fuzzifier needs.
  /// `ba`/`dc` are the exact denominators (b - a, d - c) the scalar grade()
  /// divides by, precomputed so the lane kernel performs the identical
  /// division.  `fast` is false for singletons and zero-width-edge
  /// degenerates, which take a scalar per-lane fallback through mf->grade().
  struct LaneTerm {
    double a = 0.0, ba = 1.0, d = 0.0, dc = 1.0;
    double lo = 0.0, hi = 0.0;  ///< universe clamp bounds
    bool left_open = false;     ///< b == -inf: rising edge is constant 1
    bool right_open = false;    ///< c == +inf: falling edge is constant 1
    bool fast = false;
    const MembershipFunction* mf = nullptr;
  };

  /// Dense antecedent-indexed rule table for the sparse-fire scalar fast
  /// path: entry [t0 * n1 * n2 + t1 * n2 + t2] holds the consequent and
  /// weight of the rule whose antecedents are exactly (t0, t1, t2), or
  /// consequent -1 where no rule exists.  Built only for wildcard-free,
  /// duplicate-free rule bases (see ctor).
  struct DenseRule {
    std::int32_t consequent = -1;
    double weight = 1.0;
  };
  /// Stack bounds for the sparse-fire enumeration in run(); rule bases
  /// exceeding them simply keep the linear scan.
  static constexpr std::size_t kMaxDenseInputs = 8;
  static constexpr std::size_t kMaxDenseTerms = 16;

  /// Shared core of all evaluation entry points; collects fired rules only
  /// when `fired` is non-null (the untraced path skips that work entirely).
  void run(std::span<const double> crisp_inputs, InferenceScratch& scratch,
           std::vector<FiredRule>* fired) const;

  /// Lane kernels behind infer_batch_into(): portable flat loops vs
  /// hand-written AVX2 (defined in inference_batch.cc).
  void infer_lanes_generic(InferenceScratch& scratch) const;
  void infer_lanes_simd(InferenceScratch& scratch) const;

  const std::vector<LinguisticVariable>& inputs_;
  const LinguisticVariable& output_;
  const RuleBase& rules_;
  std::vector<std::size_t> grade_offsets_;  ///< input i's offset in grades
  std::size_t total_grades_ = 0;
  std::vector<FlatRule> flat_rules_;
  std::vector<std::uint32_t> rule_slots_;
  std::vector<DenseRule> dense_rules_;  ///< antecedent-tuple indexed
  bool dense_ok_ = false;
  std::vector<LaneTerm> lane_terms_;  ///< one per grade slot
  bool simd_active_ = false;
};

}  // namespace facsp::fuzzy
