#include "core/cost_model.h"

#include <algorithm>

#include "common/str_util.h"
#include "stats/distributions.h"

namespace mscm::core {

double CostModel::EstimateTermWalk(const std::vector<double>& features,
                                   double probing_cost) const {
  const int state = states_.StateOf(probing_cost);
  // An adapted state's equation lives in the adaptation overlay, not the
  // base fit's design terms.
  const auto it = adaptation_.states.find(state);
  if (it != adaptation_.states.end()) {
    const std::vector<double>& row = it->second.row;
    double y = row[0];
    for (size_t j = 0; j < selected_.size(); ++j) {
      const size_t idx = static_cast<size_t>(selected_[j]);
      MSCM_CHECK(idx < features.size());
      y += row[j + 1] * features[idx];
    }
    return std::max(0.0, y);
  }
  const std::vector<DesignTerm>& terms = layout_.terms();
  double y = 0.0;
  for (size_t c = 0; c < terms.size(); ++c) {
    const DesignTerm& t = terms[c];
    if (t.state != -1 && t.state != state) continue;
    double x = 1.0;
    if (t.variable != -1) {
      const size_t idx =
          static_cast<size_t>(selected_[static_cast<size_t>(t.variable)]);
      MSCM_CHECK(idx < features.size());
      x = features[idx];
    }
    y += fit_.coefficients[c] * x;
  }
  return std::max(0.0, y);
}

std::optional<CostModel::Interval> CostModel::EstimateWithInterval(
    const std::vector<double>& features, double probing_cost,
    double alpha) const {
  // No covariance structure (a model reconstructed from a persisted record)
  // or no residual degrees of freedom: there is no interval to compute.
  const double dof =
      static_cast<double>(fit_.n) - static_cast<double>(fit_.p);
  if (fit_.xtx_inverse.empty() || dof <= 0.0) return std::nullopt;

  // The half-width comes from the base fit's covariance structure (RLS
  // adaptation moves only the point equations); the centre is the row that
  // is actually served.
  const int state = states_.StateOf(probing_cost);
  const std::vector<double> row =
      layout_.Row(SelectValues(features, selected_), state);
  Interval out;
  out.estimate = Estimate(features, probing_cost);
  const double se = fit_.PredictionStandardError(row);
  if (se <= 0.0) {
    // A perfect in-process fit: the interval legitimately collapses.
    out.low = out.high = out.estimate;
    return out;
  }
  const double half = stats::StudentTUpperQuantile(alpha / 2.0, dof) * se;
  out.low = std::max(0.0, out.estimate - half);
  out.high = out.estimate + half;
  return out;
}

double CostModel::CoefficientFor(int variable, int state) const {
  const int col = layout_.ColumnOf(variable, state);
  MSCM_CHECK_MSG(col >= 0, "no design column for variable/state");
  return fit_.coefficients[static_cast<size_t>(col)];
}

std::string CostModel::ToString(const VariableSet& variables) const {
  std::string out;
  out += Format("class %s, %s form, %d state(s)\n", Label(class_id_),
                core::ToString(layout_.form()), states_.num_states());
  out += Format("states: %s\n", states_.ToString().c_str());
  for (int s = 0; s < states_.num_states(); ++s) {
    std::vector<std::string> terms;
    const double intercept = CoefficientFor(-1, s);
    terms.push_back(CompactDouble(intercept));
    for (size_t i = 0; i < selected_.size(); ++i) {
      const double b = CoefficientFor(static_cast<int>(i), s);
      const std::string& name =
          variables.name(static_cast<size_t>(selected_[i]));
      terms.push_back(
          Format("%s*[%s]", CompactDouble(b).c_str(), name.c_str()));
    }
    out += Format("  state %d: cost = %s\n", s, Join(terms, " + ").c_str());
  }
  out += Format("  R^2 = %.4f, SEE = %s, F = %s (p = %.3g), n = %zu\n",
                fit_.r_squared, CompactDouble(fit_.standard_error).c_str(),
                CompactDouble(fit_.f_statistic).c_str(), fit_.f_pvalue,
                fit_.n);
  return out;
}

CompiledEquations CostModel::CompileAdapted(
    const std::vector<int>& selected, const ContentionStates& states,
    const DesignLayout& layout, const stats::OlsResult& fit,
    const ModelAdaptationState& adaptation) {
  CompiledEquations base =
      CompiledEquations::Compile(selected, states, layout, fit);
  if (adaptation.empty()) return base;
  std::map<int, std::vector<double>> rows;
  for (const auto& [state, st] : adaptation.states) {
    rows.emplace(state, st.row);
  }
  return CompiledEquations::WithAdaptedRows(base, rows,
                                            adaptation.generation);
}

std::optional<CostModel> CostModel::ApplyFeedback(
    int state, const std::vector<double>& features, double actual,
    const stats::RlsConfig& config) const {
  MSCM_CHECK_MSG(state >= 0 && state < states_.num_states(),
                 "feedback for a state outside the partition");
  compiled_.CheckFeatureWidth(features);

  // z = (1, gathered selected features), the compiled row's regressor.
  const size_t stride = selected_.size() + 1;
  std::vector<double> z(stride);
  z[0] = 1.0;
  compiled_.GatherSelected(features.data(), z.data() + 1);

  // Warm-start from the state's previous adaptation trajectory, or from the
  // base compiled row under a diffuse prior on first touch.
  const auto it = adaptation_.states.find(state);
  std::vector<double> theta;
  std::vector<double> covariance;
  uint64_t prior_updates = 0;
  if (it != adaptation_.states.end()) {
    theta = it->second.row;
    covariance = it->second.covariance;
    prior_updates = it->second.updates;
  } else {
    const double* row = compiled_.row(state);
    theta.assign(row, row + stride);
  }
  stats::RlsEstimator rls(std::move(theta), std::move(covariance), config);
  if (!rls.Update(z.data(), actual)) return std::nullopt;

  ModelAdaptationState next = adaptation_;
  next.generation += 1;
  next.forgetting = config.forgetting;
  StateAdaptation& slot = next.states[state];
  slot.row = rls.coefficients();
  slot.covariance = rls.covariance();
  slot.updates = prior_updates + 1;
  return WithAdaptation(std::move(next));
}

CostModel FitCostModel(QueryClassId class_id,
                       const ObservationSet& observations,
                       const std::vector<int>& selected,
                       const ContentionStates& states, QualitativeForm form) {
  const DesignLayout layout = DesignLayout::Make(
      static_cast<int>(selected.size()), form, states.num_states());
  const stats::Matrix x =
      BuildDesignMatrix(observations, selected, states, layout);
  const std::vector<double> y = ResponseVector(observations);
  stats::OlsResult fit = stats::FitOls(x, y);
  return CostModel(class_id, selected, states, layout, std::move(fit));
}

}  // namespace mscm::core
