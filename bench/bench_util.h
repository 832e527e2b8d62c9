// Shared configuration for the benchmark harness binaries.
//
// Every bench binary reproduces one table or figure from the paper. The two
// simulated sites stand in for the paper's testbed:
//   site "alpha" — Oracle-8.0-like profile,
//   site "beta"  — DB2-5.0-like profile,
// each over 12 generated tables (3,000 … 250,000 tuples at scale 1.0) on a
// machine whose background load spans 0 … 130 concurrent processes.
//
// MSCM_BENCH_SCALE (env var) shrinks table cardinalities for quick runs;
// default is paper scale (1.0).
//
// MachineJsonFields() describes the machine a throughput bench ran on, for
// its BENCH_*.json.

#ifndef MSCM_BENCH_BENCH_UTIL_H_
#define MSCM_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "mdbs/local_dbs.h"

namespace mscm::bench {

inline double BenchScale() {
  const char* env = std::getenv("MSCM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

// Site config matching the paper's dynamic environment (uniform contention
// distribution unless overridden).
inline mdbs::LocalDbsConfig SiteConfig(const std::string& name,
                                       uint64_t seed) {
  mdbs::LocalDbsConfig config;
  config.site_name = name;
  config.profile = (name == "beta") ? sim::PerformanceProfile::Beta()
                                    : sim::PerformanceProfile::Alpha();
  config.tables.num_tables = 12;
  config.tables.scale = BenchScale();
  config.load.regime = sim::LoadRegime::kUniform;
  // The paper's dynamic environment never idles — Figure 1 spans 50…130
  // concurrent processes. Keep a modest floor so "dynamic" means loaded.
  config.load.min_processes = 20.0;
  config.load.max_processes = 130.0;
  config.seed = seed;
  return config;
}

inline const char* SiteDbmsLabel(const std::string& name) {
  return name == "beta" ? "beta (DB2-5.0-like)" : "alpha (Oracle-8.0-like)";
}

// The machine as JSON object members, under the names perfbench's
// `# machine` line uses: "nproc", "cpu_model", "compiler", "build_type".
inline std::string MachineJsonFields() {
  std::string cpu_model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu_model = line.substr(line.find(':') + 1);
      cpu_model.erase(0, cpu_model.find_first_not_of(' '));
      break;
    }
  }
  std::string compiler;
#ifdef __VERSION__
  compiler = __VERSION__;
#endif
  std::string build_type;
#ifdef MSCM_BUILD_TYPE
  build_type = MSCM_BUILD_TYPE;
#endif
  return "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + cpu_model + "\", \"compiler\": \"" +
         compiler + "\", \"build_type\": \"" + build_type + "\"";
}

}  // namespace mscm::bench

#endif  // MSCM_BENCH_BENCH_UTIL_H_
