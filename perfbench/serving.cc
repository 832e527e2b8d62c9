#include "serving.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "core/agent_source.h"
#include "core/model_io.h"
#include "core/state_determination.h"
#include "core/variable_selection.h"

namespace perfbench {

using core::QueryClassId;
using core::StateAlgorithm;

namespace {

// Catalog derivation is seed-fixed so set-up does identical work on every
// run; only the traffic follows --seed.
constexpr uint64_t kCatalogSeed = 7;

bool IsBeta(const std::string& profile) { return profile == "beta"; }

}  // namespace

void Quality::Add(double estimate, double observed) {
  ++scored;
  if (core::IsVeryGoodEstimate(estimate, observed)) ++very_good;
  if (core::IsGoodEstimate(estimate, observed)) ++good;
}

Quality QualityOf(const core::ValidationReport& v) {
  const double n = static_cast<double>(v.n_test);
  return Quality{v.n_test,
                 static_cast<uint64_t>(std::llround(v.pct_very_good * n)),
                 static_cast<uint64_t>(std::llround(v.pct_good * n))};
}

std::vector<std::string> SiteNames() {
  std::vector<std::string> names;
  for (const char* profile : {"alpha", "beta"}) {
    for (int k = 0; k < kSitesPerProfile; ++k) {
      names.push_back(std::string(profile) + "-" + std::to_string(k));
    }
  }
  return names;
}

ServingInputs MakeServingInputs(const ServingOptions& options, uint64_t seed) {
  ServingInputs in;
  mscm::Rng rng(seed);
  const size_t per_key = options.heldout_per_key + options.feedback_per_key;
  std::vector<std::vector<HeldOut>> heldout_by_key(kNumKeys);
  for (size_t k = 0; k < kNumKeys; ++k) {
    const CatalogKey& key = kCatalogKeys[k];
    mdbs::LocalDbs truth(SiteConfig(key.profile, kCatalogSeed));
    core::AgentObservationSource source(&truth, key.cls, seed * 1000 + k);
    const core::ObservationSet observations =
        core::DrawObservations(source, static_cast<int>(per_key));
    for (size_t i = 0; i < per_key; ++i) {
      HeldOut h;
      h.request.site = std::string(key.profile) + "-" +
                       std::to_string(rng.UniformInt(0, kSitesPerProfile - 1));
      h.request.class_id = key.cls;
      h.request.features = observations[i].features;
      h.request.probing_cost = observations[i].probing_cost;
      h.observed_cost = observations[i].cost;
      if (i < options.heldout_per_key) {
        heldout_by_key[k].push_back(h);
        in.heldout.push_back(std::move(h));
      } else {
        in.feedback.push_back(std::move(h));
      }
    }
  }
  for (size_t i = 0; i < options.requests_per_key; ++i) {
    for (size_t k = 0; k < kNumKeys; ++k) {
      const auto& pool = heldout_by_key[k];
      runtime::EstimateRequest r =
          pool[rng.UniformInt(0, static_cast<int>(pool.size()) - 1)].request;
      r.probing_cost = -1.0;
      r.site = std::string(kCatalogKeys[k].profile) + "-" +
               std::to_string(rng.UniformInt(0, kSitesPerProfile - 1));
      for (double& f : r.features) f *= rng.Uniform(0.8, 1.25);
      in.requests.push_back(std::move(r));
    }
  }
  for (size_t i = 0; i < 2 * kSitesPerProfile; ++i) {
    in.loads.push_back(rng.Uniform(15.0, 120.0));
  }
  return in;
}

mdbs::LocalDbsConfig SiteConfig(const std::string& profile, uint64_t seed) {
  mdbs::LocalDbsConfig config;
  config.site_name = profile;
  config.profile = IsBeta(profile) ? sim::PerformanceProfile::Beta()
                                   : sim::PerformanceProfile::Alpha();
  config.tables.num_tables = 8;
  config.tables.scale = 0.2;
  config.load.regime = sim::LoadRegime::kUniform;
  config.load.min_processes = 15.0;
  config.load.max_processes = 120.0;
  config.seed = seed;
  return config;
}

core::Observation TimedSource::Draw() {
  ScopedSpan span(*log_, "core.draw", op_, parent_);
  ++draws_;
  return inner_->Draw();
}

std::optional<core::Observation> TimedSource::DrawInProbingRange(
    double lo, double hi, int max_attempts) {
  ScopedSpan span(*log_, "core.draw", op_, parent_);
  ++topups_;
  return inner_->DrawInProbingRange(lo, hi, max_attempts);
}

core::BuildReport DeriveModel(mdbs::LocalDbs& site, QueryClassId cls,
                              StateAlgorithm algo, uint64_t source_seed,
                              SpanLog& log, uint64_t op, CoreTally& tally) {
  core::AgentObservationSource agent(&site, cls, source_seed);
  core::ModelBuildOptions options;
  options.algorithm = algo;
  core::BuildReport report = [&] {
    ScopedSpan derive(log, "core.derive", op);
    TimedSource source(&agent, &log, op, derive.index());
    core::BuildReport r = core::BuildCostModel(cls, source, options);
    tally.draws += source.draws();
    tally.topups += source.topups();
    return r;
  }();
  ++tally.models;
  tally.states += static_cast<uint64_t>(report.model.states().num_states());

  if (log.enabled()) {
    // Phase replay on the derivation's own training set: the same public
    // calls BuildCostModel makes, timed one by one.
    const core::VariableSet variables = core::VariableSet::ForClass(cls);
    const std::vector<int> basic = variables.BasicIndices();
    core::ObservationSet training = report.training;
    core::StateDeterminationOptions states_opts = options.states;
    states_opts.form = options.form;
    core::ContentionStates states = core::ContentionStates::Single();
    {
      ScopedSpan span(log, "core.states", op);
      states = algo == StateAlgorithm::kIcma
                   ? core::DetermineStatesIcma(cls, training, basic,
                                               states_opts, nullptr)
                         .model.states()
                   : core::DetermineStatesIupma(cls, training, basic,
                                                states_opts)
                         .model.states();
    }
    core::VariableSelectionOptions select_opts = options.selection;
    select_opts.form = options.form;
    std::vector<int> selected;
    {
      ScopedSpan span(log, "core.select", op);
      selected = core::SelectVariables(cls, training, variables, states,
                                       select_opts);
    }
    {
      ScopedSpan span(log, "stats.fit", op);
      core::FitCostModel(cls, training, selected, states, options.form);
    }
  }
  return report;
}

uint64_t Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

ServingStack::ServingStack(const ServingOptions& options,
                           const ServingInputs& inputs, SpanLog& log,
                           CoreTally& tally)
    : inputs_(inputs), sites_(SiteNames()), load_(inputs.loads) {
  alpha_ = std::make_unique<mdbs::LocalDbs>(SiteConfig("alpha", kCatalogSeed));
  beta_ = std::make_unique<mdbs::LocalDbs>(SiteConfig("beta", kCatalogSeed));

  // Derive, serialize, and parse back: the served models are the ones a
  // restarted server would load from its catalog file.
  std::string text;
  std::vector<core::CostModel> derived;
  {
    core::GlobalCatalog fresh;
    for (size_t k = 0; k < kNumKeys; ++k) {
      const CatalogKey& key = kCatalogKeys[k];
      core::BuildReport report =
          DeriveModel(IsBeta(key.profile) ? *beta_ : *alpha_, key.cls,
                      key.algo, kCatalogSeed + 1 + k, log, k, tally);
      for (const std::string& name : sites_) {
        if (name.rfind(key.profile, 0) == 0) fresh.Register(name, report.model);
      }
      derived.push_back(std::move(report.model));
    }
    ScopedSpan span(log, "core.catalog_serialize", 0);
    text = core::SerializeCatalog(fresh);
  }
  {
    const int64_t start = NowNs();
    std::optional<core::GlobalCatalog> parsed = core::ParseCatalog(text);
    const int64_t end = NowNs();
    catalog_parse_ms_ = 1e-6 * static_cast<double>(end - start);
    log.Add("core.catalog_parse", 0, -1, start, end);
    MSCM_CHECK_MSG(parsed.has_value(), "derived catalog failed to parse");
    catalog_ = std::move(*parsed);
  }
  MSCM_CHECK_MSG(core::SerializeCatalog(catalog_) == text,
                 "catalog changed across the model_io round trip");

  // The quality the serving path must reproduce: each derived model
  // validated in process on its own held-out queries.
  for (size_t k = 0; k < kNumKeys; ++k) {
    core::ObservationSet test;
    for (const HeldOut& h : inputs.heldout) {
      if (h.request.class_id == kCatalogKeys[k].cls &&
          h.request.site.rfind(kCatalogKeys[k].profile, 0) == 0) {
        test.push_back({h.request.features, h.observed_cost,
                        h.request.probing_cost});
      }
    }
    ScopedSpan span(log, "core.validate", k);
    const Quality q = QualityOf(core::Validate(derived[k], test));
    reference_.scored += q.scored;
    reference_.very_good += q.very_good;
    reference_.good += q.good;
  }

  for (const runtime::EstimateRequest& r : inputs.requests) {
    requests_.push_back({&r, Kernel(r.site, r.class_id)});
  }
  for (const HeldOut& h : inputs.heldout) {
    heldout_.push_back({&h.request, Kernel(h.request.site, h.request.class_id)});
  }

  runtime::EstimationServiceConfig config;
  config.probe_interval = std::chrono::nanoseconds(0);
  // One reading per site must stay fresh for a whole run: read-only
  // workloads never re-probe.
  config.probe_ttl = std::chrono::hours(1);
  config.worker_threads = options.service_workers;
  config.cache.capacity_per_thread = 4096;
  service_ = std::make_unique<runtime::EstimationService>(config);
  for (const auto& [site, cls] : catalog_.Entries()) {
    service_->RegisterModel(site, *catalog_.Find(site, cls));
  }
  for (size_t i = 0; i < sites_.size(); ++i) {
    service_->RegisterSite(sites_[i], [this, i] { return Probe(i); });
    MSCM_CHECK(service_->ProbeNow(sites_[i]));
  }
  if (options.adaptation) {
    adaptation_ = std::make_unique<runtime::AdaptationController>(
        service_.get(), nullptr);
  }
  if (options.server) {
    net::EstimateServerConfig server_config;
    server_config.io_threads = 1;
    server_ = std::make_unique<net::EstimateServer>(service_.get(),
                                                    server_config);
    std::string error;
    MSCM_CHECK_MSG(server_->Start(&error), error.c_str());
  }
}

ServingStack::~ServingStack() {
  if (server_ != nullptr) server_->Stop();
  if (adaptation_ != nullptr) adaptation_->Stop();
  service_->StopProbing();
}

const core::CompiledEquations* ServingStack::Kernel(
    const std::string& site, QueryClassId cls) const {
  return catalog_.FindCompiled(site, cls);
}

double ServingStack::Probe(size_t index) {
  mdbs::LocalDbs& db =
      index < static_cast<size_t>(kSitesPerProfile) ? *alpha_ : *beta_;
  db.SetLoadProcesses(load_[index]);
  return db.RunProbingQuery();
}

bool ServingStack::SetLoadAndProbe(size_t index, double processes) {
  load_[index] = processes;
  return service_->ProbeNow(sites_[index]);
}

}  // namespace perfbench
