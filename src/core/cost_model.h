// The derived cost-model artifact: everything the MDBS catalog stores for a
// (site, query class) pair, and everything the global query optimizer needs
// to turn (query features, current probing cost) into an estimated cost.
//
// The model carries two representations of the same per-state equations:
//   - the derivation artifact (DesignLayout + OlsResult) that fitting,
//     validation, the merging test and reporting inspect, and
//   - a CompiledEquations serving form, built once at construction, that
//     every estimate hot path evaluates (see compiled_equations.h).
// Serving call sites outside core/ consume only the compiled form.

#ifndef MSCM_CORE_COST_MODEL_H_
#define MSCM_CORE_COST_MODEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled_equations.h"
#include "core/explanatory.h"
#include "core/observation.h"
#include "core/qualitative.h"
#include "core/query_class.h"
#include "core/states.h"
#include "stats/ols.h"
#include "stats/rls.h"

namespace mscm::core {

// The streaming-adaptation overlay on a derived model: per contention
// state, the RLS-adapted compiled coefficient row plus the estimator state
// (inverse-Gram covariance, update count) needed to resume the trajectory,
// and the model generation (0 = the base fit, +1 per adaptation swap).
// Adaptation operates in *compiled* space — one (intercept, slopes) row per
// state — rather than on the design-layout coefficients, because shared
// columns in coincident/parallel/concurrent forms would couple an update
// for one state into every other state's served equation.
struct StateAdaptation {
  std::vector<double> row;         // stride = num_selected + 1
  std::vector<double> covariance;  // stride x stride row-major RLS P
  uint64_t updates = 0;
};

struct ModelAdaptationState {
  uint64_t generation = 0;
  double forgetting = 1.0;               // λ the rows were adapted under
  std::map<int, StateAdaptation> states;  // keyed by contention state

  bool empty() const { return generation == 0 && states.empty(); }
};

class CostModel {
 public:
  CostModel(QueryClassId class_id, std::vector<int> selected,
            ContentionStates states, DesignLayout layout,
            stats::OlsResult fit)
      : class_id_(class_id),
        selected_(std::move(selected)),
        states_(std::move(states)),
        layout_(std::move(layout)),
        fit_(std::move(fit)),
        compiled_(
            CompiledEquations::Compile(selected_, states_, layout_, fit_)) {}

  // As above, resuming from a persisted or runtime-produced adaptation
  // overlay: the compiled table serves the adapted rows, stamped with the
  // overlay's generation.
  CostModel(QueryClassId class_id, std::vector<int> selected,
            ContentionStates states, DesignLayout layout,
            stats::OlsResult fit, ModelAdaptationState adaptation)
      : class_id_(class_id),
        selected_(std::move(selected)),
        states_(std::move(states)),
        layout_(std::move(layout)),
        fit_(std::move(fit)),
        adaptation_(std::move(adaptation)),
        compiled_(CompileAdapted(selected_, states_, layout_, fit_,
                                 adaptation_)) {}

  // Estimated cost (seconds) for a query with the given feature vector when
  // the probing query currently costs `probing_cost`, served from the
  // compiled per-state table: no per-call allocations, no term walk.
  // Negative estimates are clamped to zero (a regression plane can dip below
  // zero near the origin). The online runtime's estimate hot path
  // (runtime::EstimationService) evaluates the same table directly.
  double Estimate(const std::vector<double>& features,
                  double probing_cost) const {
    return compiled_.Evaluate(features, probing_cost);
  }

  // The reference evaluator, kept only for differential tests and the
  // compiled-vs-term-walk bench baseline: walks every DesignLayout term,
  // branching on its state tag and bounds-checking per term, or evaluates an
  // adapted state's overlay row. Bit-identical to Estimate(). Do not serve
  // estimates through this.
  double EstimateTermWalk(const std::vector<double>& features,
                          double probing_cost) const;

  struct Interval {
    double estimate = 0.0;
    double low = 0.0;
    double high = 0.0;
  };

  // Point estimate plus a (1 - alpha) prediction interval for a *new* query
  // observation — lets the optimizer reason about estimation risk, not just
  // the point value. Centred on the served estimate (the compiled state row,
  // adapted or not), so at alpha = 0.05 it agrees with
  // compiled().EvaluateDistribution(features, probing_cost, 0.0). Requires
  // the fit's covariance structure ((X'X)^{-1}): model_io persists it (the
  // `xtxinv` record line), so round-tripped models keep their intervals;
  // only records written before that line existed — or fits with no
  // residual degrees of freedom — get nullopt, never a silently degenerate
  // interval.
  std::optional<Interval> EstimateWithInterval(
      const std::vector<double>& features, double probing_cost,
      double alpha = 0.05) const;

  // Adjusted coefficient of `variable` (-1 = intercept) in `state` —
  // the b'_{ij} the merging test of Algorithm 3.1 compares.
  double CoefficientFor(int variable, int state) const;

  // --- Streaming adaptation (the fast tier; see stats/rls.h) ---

  // Folds one observed (features, actual cost) pair for `state` into the
  // model as a rank-1 RLS update of that state's compiled coefficient row,
  // returning the adapted model (generation + 1). The update warm-starts
  // from the state's previous adaptation (row + covariance) when present,
  // otherwise from the base compiled row under a diffuse prior. Returns
  // nullopt when the RLS guards reject the update (non-finite inputs,
  // degenerate gain, blown-up covariance) — the caller escalates to the
  // slow re-derivation path rather than serving a corrupted row.
  std::optional<CostModel> ApplyFeedback(
      int state, const std::vector<double>& features, double actual,
      const stats::RlsConfig& config = stats::RlsConfig()) const;

  // Rebinds this model's derivation artifact to a replacement adaptation
  // overlay — the publication path for the runtime AdaptationController,
  // which accumulates many RLS updates per state before swapping once.
  CostModel WithAdaptation(ModelAdaptationState adaptation) const {
    return CostModel(class_id_, selected_, states_, layout_, fit_,
                     std::move(adaptation));
  }

  uint64_t generation() const { return adaptation_.generation; }
  const ModelAdaptationState& adaptation() const { return adaptation_; }

  QueryClassId class_id() const { return class_id_; }
  const std::vector<int>& selected_variables() const { return selected_; }
  const ContentionStates& states() const { return states_; }
  const DesignLayout& layout() const { return layout_; }
  const stats::OlsResult& fit() const { return fit_; }

  // The immutable serving form (per-state equation table). Valid for the
  // model's whole lifetime; pointer-stable while the model is.
  const CompiledEquations& compiled() const { return compiled_; }

  double r_squared() const { return fit_.r_squared; }
  double standard_error() const { return fit_.standard_error; }
  double f_statistic() const { return fit_.f_statistic; }
  double f_pvalue() const { return fit_.f_pvalue; }

  // Renders per-state equations in the style of the paper's Table 4.
  std::string ToString(const VariableSet& variables) const;

 private:
  static CompiledEquations CompileAdapted(
      const std::vector<int>& selected, const ContentionStates& states,
      const DesignLayout& layout, const stats::OlsResult& fit,
      const ModelAdaptationState& adaptation);

  QueryClassId class_id_;
  std::vector<int> selected_;  // indices into the class VariableSet
  ContentionStates states_;
  DesignLayout layout_;
  stats::OlsResult fit_;
  ModelAdaptationState adaptation_;
  // Compiled from the members above at construction (declared last so it
  // can read them during initialization).
  CompiledEquations compiled_;
};

// Fits a cost model with the given variable selection / states / form.
CostModel FitCostModel(QueryClassId class_id,
                       const ObservationSet& observations,
                       const std::vector<int>& selected,
                       const ContentionStates& states, QualitativeForm form);

}  // namespace mscm::core

#endif  // MSCM_CORE_COST_MODEL_H_
