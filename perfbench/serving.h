// The MSCM stack as the benchmark drives it: paper-pipeline derivations
// timed from outside (a counting ObservationSource wrapper plus spans around
// the public phase functions), and a serving stack that loads a derived
// catalog through model_io the way a restarted server would, then serves it
// in process and, optionally, over loopback.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/compiled_equations.h"
#include "core/model_builder.h"
#include "core/observation_source.h"
#include "core/validation.h"
#include "harness.h"
#include "mdbs/local_dbs.h"
#include "net/server.h"
#include "runtime/adaptation.h"
#include "runtime/estimation_service.h"
#include "wire.h"

namespace perfbench {

namespace core = mscm::core;
namespace mdbs = mscm::mdbs;
namespace net = mscm::net;
namespace runtime = mscm::runtime;
namespace sim = mscm::sim;

// The simulated testbed of the paper's two sites: "alpha" (Oracle-like) and
// "beta" (DB2-like) profiles over 8 generated tables at scale 0.2, with a
// uniform background load of 15..120 processes.
mdbs::LocalDbsConfig SiteConfig(const std::string& profile, uint64_t seed);

// Counts (and, when the log is enabled, times) every draw the pipeline
// pulls from the environment: engine + sim + mdbs work per observation.
class TimedSource : public core::ObservationSource {
 public:
  TimedSource(core::ObservationSource* inner, SpanLog* log, uint64_t op,
              int parent)
      : inner_(inner), log_(log), op_(op), parent_(parent) {}

  core::Observation Draw() override;
  std::optional<core::Observation> DrawInProbingRange(
      double lo, double hi, int max_attempts) override;

  uint64_t draws() const { return draws_; }
  uint64_t topups() const { return topups_; }

 private:
  core::ObservationSource* inner_;
  SpanLog* log_;
  uint64_t op_;
  int parent_;
  uint64_t draws_ = 0;
  uint64_t topups_ = 0;
};

// Derivation totals for the core.* per-layer metrics.
struct CoreTally {
  uint64_t models = 0;
  uint64_t draws = 0;
  uint64_t topups = 0;
  uint64_t states = 0;
};

// One paper-pipeline derivation: BuildCostModel on `site` through a
// TimedSource (span "core.derive", draws under it as "core.draw"). When the
// log is enabled the phase functions are then re-timed on the same training
// set ("core.states", "core.select", "stats.fit") so each phase has its own
// span; untraced runs skip that replay.
core::BuildReport DeriveModel(mdbs::LocalDbs& site, core::QueryClassId cls,
                              core::StateAlgorithm algo, uint64_t source_seed,
                              SpanLog& log, uint64_t op, CoreTally& tally);

// 64-bit FNV-1a, for model and catalog digests.
uint64_t Digest(const std::string& text);

// A held-out query with an observed cost and the explicit probing cost it
// ran under. Its answer does not depend on timing.
struct HeldOut {
  runtime::EstimateRequest request;
  double observed_cost = 0.0;
};

// Scored answers against observed costs (paper §5 bands).
struct Quality {
  uint64_t scored = 0;
  uint64_t very_good = 0;
  uint64_t good = 0;
  void Add(double estimate, double observed);
  bool operator==(const Quality&) const = default;
};

// The counts behind a ValidationReport's fractions.
Quality QualityOf(const core::ValidationReport& v);

// The four (class, site, algorithm) keys of the served catalog: G1 and G3
// at the alpha site by IUPMA and at the beta site by ICMA.
struct CatalogKey {
  core::QueryClassId cls;
  const char* profile;
  core::StateAlgorithm algo;
};
inline constexpr CatalogKey kCatalogKeys[] = {
    {core::QueryClassId::kUnarySeqScan, "alpha", core::StateAlgorithm::kIupma},
    {core::QueryClassId::kJoinNoIndex, "alpha", core::StateAlgorithm::kIupma},
    {core::QueryClassId::kUnarySeqScan, "beta", core::StateAlgorithm::kIcma},
    {core::QueryClassId::kJoinNoIndex, "beta", core::StateAlgorithm::kIcma},
};
inline constexpr size_t kNumKeys = std::size(kCatalogKeys);

// Serving sites: alpha-0..3 serve the alpha models, beta-0..3 the beta ones.
inline constexpr int kSitesPerProfile = 4;
std::vector<std::string> SiteNames();

struct ServingOptions {
  int service_workers = 0;        // EstimationService pool (server dispatch)
  bool adaptation = false;        // AdaptationController (no drain thread)
  bool server = false;            // EstimateServer, 1 IO loop
  size_t heldout_per_key = 512;   // scored queries per catalog key
  size_t feedback_per_key = 0;    // observed queries for Record traffic
  size_t requests_per_key = 0;    // distinct tracked-probe requests
};

// A run's traffic, generated from --seed before set-up starts: drawing it
// is the benchmark's work, not the system's. Held-out and feedback queries
// are observed on ground-truth sites built like the served ones; tracked-
// probe requests are held-out feature vectors, each perturbed so that all
// are distinct, equally many per catalog key.
struct ServingInputs {
  std::vector<HeldOut> heldout;
  std::vector<HeldOut> feedback;
  std::vector<runtime::EstimateRequest> requests;
  std::vector<double> loads;  // initial background processes per site
};
ServingInputs MakeServingInputs(const ServingOptions& options, uint64_t seed);

// Sites, catalog, service (and server) for one serving workload. Set-up is
// deterministic work: the four catalog derivations (fixed seed), the
// model_io round trip, an in-process Validate of each model on the held-out
// queries, and registration of the eight sites. Probe intervals stay zero:
// sites are probed by ProbeNow only.
class ServingStack {
 public:
  ServingStack(const ServingOptions& options, const ServingInputs& inputs,
               SpanLog& log, CoreTally& tally);
  ~ServingStack();  // server stop -> adaptation stop -> probing stop

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  const std::vector<std::string>& sites() const { return sites_; }
  runtime::EstimationService& service() { return *service_; }
  runtime::AdaptationController* adaptation() { return adaptation_.get(); }
  net::EstimateServer* server() { return server_.get(); }

  double catalog_parse_ms() const { return catalog_parse_ms_; }
  // In-process Validate of the served models over the held-out queries:
  // what the serving path must reproduce when models do not adapt.
  const Quality& reference_quality() const { return reference_; }

  const ServingInputs& inputs() const { return inputs_; }
  const std::vector<CheckedRequest>& requests() const { return requests_; }
  const std::vector<CheckedRequest>& heldout() const { return heldout_; }

  // Kernel for (site, class) in the parsed catalog.
  const core::CompiledEquations* Kernel(const std::string& site,
                                        core::QueryClassId cls) const;

  // Moves site `index`'s background load and probes it (ProbeNow). Only
  // one thread may call this at a time: the simulated sites are not
  // thread-safe, and probes are their only concurrent use.
  bool SetLoadAndProbe(size_t index, double processes);
  double load(size_t index) const { return load_[index]; }

 private:
  double Probe(size_t index);

  const ServingInputs& inputs_;
  std::unique_ptr<mdbs::LocalDbs> alpha_;
  std::unique_ptr<mdbs::LocalDbs> beta_;
  std::vector<std::string> sites_;
  std::vector<double> load_;
  core::GlobalCatalog catalog_;
  double catalog_parse_ms_ = 0.0;
  Quality reference_;
  std::vector<CheckedRequest> requests_;
  std::vector<CheckedRequest> heldout_;
  std::unique_ptr<runtime::EstimationService> service_;
  std::unique_ptr<runtime::AdaptationController> adaptation_;
  std::unique_ptr<net::EstimateServer> server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
