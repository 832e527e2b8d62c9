// End-to-end serving benchmark for the network boundary (src/net): a full
// ServedRuntime (models + probers + refresh daemon + epoll server) on
// loopback, driven by the load generator over real sockets. Where
// micro_runtime measures in-process estimate rates, this measures what a
// remote global query optimizer actually sees: framing, syscalls, dispatch,
// admission control.
//
// Scenarios (fresh server each):
//   closed x4        — 4 closed-loop connections, one estimate per frame;
//                      capacity under request/response discipline
//   closed x4 b64    — same connections, 64-estimate batch frames; wire +
//                      dispatch amortization (items/s vs frames/s)
//   open @rate       — open-loop arrivals below capacity; the scheduled-
//                      arrival latency distribution
//   overload tiny-q  — open-loop arrivals at 4x the measured closed x4
//                      capacity against a server with a tiny admission
//                      bound (max_inflight=2). Connections that fall behind
//                      pipeline their due requests, so the excess reaches
//                      the server: it must shed with typed kOverloaded
//                      errors, keep serving what it admits, and stay up —
//                      verified by a post-overload probe RPC that must
//                      succeed.
//
// Emits BENCH_net.json. MSCM_NET_BENCH_S (env) overrides per-scenario
// seconds; MSCM_NET_BENCH_RATE the open-loop arrival rate.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "common/text_table.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/served_runtime.h"

namespace {

using namespace mscm;

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const double v = std::atof(env);
  return v > 0 ? v : fallback;
}

struct Scenario {
  std::string name;
  net::LoadGenConfig::Mode mode = net::LoadGenConfig::Mode::kClosed;
  int connections = 4;
  size_t batch_size = 1;
  double target_rate = 0.0;    // open loop only
  size_t max_inflight = 256;   // server admission bound
};

struct Outcome {
  Scenario scenario;
  net::LoadGenResult result;
  net::NetServerStatsSnapshot server;
  bool recovered_after = false;  // post-run probe RPC succeeded
};

Outcome RunScenario(const Scenario& scenario, double seconds,
                    const std::vector<runtime::EstimateRequest>& workload) {
  net::ServedRuntimeConfig config;
  config.sites = 4;
  config.worker_threads = 2;
  config.server.io_threads = 2;
  config.server.max_inflight = scenario.max_inflight;
  config.refresh = true;
  config.probe_interval = std::chrono::milliseconds(50);

  net::ServedRuntime served(config);
  std::string error;
  if (!served.Start(&error)) {
    std::fprintf(stderr, "net_serving: server start failed: %s\n",
                 error.c_str());
    std::exit(1);
  }

  net::LoadGenConfig load;
  load.host = "127.0.0.1";
  load.port = served.port();
  load.mode = scenario.mode;
  load.connections = scenario.connections;
  load.batch_size = scenario.batch_size;
  load.target_rate = scenario.target_rate;
  load.duration = std::chrono::milliseconds(
      static_cast<int64_t>(seconds * 1000.0));
  load.workload = workload;

  Outcome outcome;
  outcome.scenario = scenario;
  outcome.result = net::RunLoadGen(load);

  // The stay-up check: whatever the load did, the server must still answer
  // a fresh request afterwards (shedding is a response, not a death).
  net::NetClient probe;
  runtime::EstimateResponse resp;
  outcome.recovered_after = probe.Connect("127.0.0.1", served.port()) &&
                            probe.Estimate(workload.front(), &resp).ok() &&
                            resp.ok();
  outcome.server = served.server().Stats();
  served.Shutdown();
  return outcome;
}

}  // namespace

int main() {
  using namespace mscm;
  const double seconds = EnvDouble("MSCM_NET_BENCH_S", 2.0);
  const double rate = EnvDouble("MSCM_NET_BENCH_RATE", 3000.0);
  const std::vector<runtime::EstimateRequest> workload =
      net::MakeUniformWorkload(/*n_requests=*/2048, /*n_sites=*/4,
                               /*seed=*/17);

  // The overload rate is filled in from the closed x4 capacity once that
  // scenario has run.
  std::vector<Scenario> scenarios = {
      {"closed x4", net::LoadGenConfig::Mode::kClosed, 4, 1, 0.0, 256},
      {"closed x4 b64", net::LoadGenConfig::Mode::kClosed, 4, 64, 0.0, 256},
      {"open @rate", net::LoadGenConfig::Mode::kOpen, 4, 1, rate, 256},
      {"overload tiny-q", net::LoadGenConfig::Mode::kOpen, 8, 1, 0.0,
       /*max_inflight=*/2},
  };

  std::printf("net_serving: %.1fs per scenario, open-loop rate %.0f/s\n\n",
              seconds, rate);

  TextTable table({"scenario", "offered/s", "frames/s", "items/s",
                   "p50 (us)", "p99 (us)", "overloaded", "recovered"});
  std::vector<Outcome> outcomes;
  for (Scenario& scenario : scenarios) {
    if (scenario.target_rate == 0.0 &&
        scenario.mode == net::LoadGenConfig::Mode::kOpen) {
      scenario.target_rate = 4.0 * outcomes.front().result.qps;
    }
    outcomes.push_back(RunScenario(scenario, seconds, workload));
    const Outcome& o = outcomes.back();
    table.AddRow(
        {o.scenario.name,
         o.scenario.target_rate > 0.0 ? Format("%.0f", o.scenario.target_rate)
                                      : std::string("closed"),
         Format("%.0f", o.result.qps),
         Format("%.0f", o.result.items_per_sec),
         Format("%.1f", o.result.p50_us), Format("%.1f", o.result.p99_us),
         Format("%llu", static_cast<unsigned long long>(o.result.overloaded)),
         o.recovered_after ? "yes" : "NO"});
  }
  std::printf("%s\n", table.Render().c_str());

  const Outcome& overload = outcomes.back();
  bool ok = true;
  if (overload.result.overloaded == 0) {
    std::printf("FAIL: overload scenario produced no kOverloaded sheds\n");
    ok = false;
  }
  for (const Outcome& o : outcomes) {
    if (!o.recovered_after) {
      std::printf("FAIL: server did not answer after scenario '%s'\n",
                  o.scenario.name.c_str());
      ok = false;
    }
  }
  const double amortization =
      outcomes[1].result.items_per_sec / outcomes[0].result.items_per_sec;
  std::printf("batch wire amortization (b64 items/s / b1 items/s): %.2fx\n",
              amortization);

  FILE* json = std::fopen("BENCH_net.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"net_serving\",\n");
    std::fprintf(json, "  %s,\n", bench::MachineJsonFields().c_str());
    std::fprintf(json, "  \"seconds_per_scenario\": %.2f,\n", seconds);
    std::fprintf(json, "  \"open_loop_rate\": %.0f,\n", rate);
    std::fprintf(json, "  \"scenarios\": [\n");
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      std::fprintf(
          json,
          "    {\"name\": \"%s\", \"mode\": \"%s\", \"connections\": %d, "
          "\"batch\": %zu, \"max_inflight\": %zu, \"target_rate\": %.0f, "
          "\"qps\": %.1f, "
          "\"items_per_sec\": %.1f, \"completed\": %llu, "
          "\"overloaded\": %llu, \"error_frames\": %llu, "
          "\"transport_errors\": %llu, \"behind_schedule\": %llu, "
          "\"p50_us\": %.1f, \"p90_us\": %.1f, \"p99_us\": %.1f, "
          "\"max_us\": %.1f, \"server_dispatched\": %llu, "
          "\"server_completed\": %llu, \"server_shed\": %llu, "
          "\"recovered_after\": %s}%s\n",
          o.scenario.name.c_str(),
          o.scenario.mode == net::LoadGenConfig::Mode::kClosed ? "closed"
                                                               : "open",
          o.scenario.connections, o.scenario.batch_size,
          o.scenario.max_inflight, o.scenario.target_rate, o.result.qps,
          o.result.items_per_sec,
          static_cast<unsigned long long>(o.result.completed),
          static_cast<unsigned long long>(o.result.overloaded),
          static_cast<unsigned long long>(o.result.error_frames),
          static_cast<unsigned long long>(o.result.transport_errors),
          static_cast<unsigned long long>(o.result.behind_schedule),
          o.result.p50_us, o.result.p90_us, o.result.p99_us, o.result.max_us,
          static_cast<unsigned long long>(o.server.requests_dispatched),
          static_cast<unsigned long long>(o.server.requests_completed),
          static_cast<unsigned long long>(o.server.overload_shed),
          o.recovered_after ? "true" : "false",
          i + 1 < outcomes.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"batch_wire_amortization_x\": %.3f,\n",
                 amortization);
    std::fprintf(json, "  \"shed_and_survived\": %s\n", ok ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_net.json\n");
  }
  return ok ? 0 : 1;
}
