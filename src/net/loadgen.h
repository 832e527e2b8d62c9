// Load generator for the estimation serving boundary: drives an
// EstimateServer over real sockets and reports end-to-end throughput and
// tail latency — the numbers the ROADMAP's "millions of users" goal is
// actually judged on, as opposed to in-process call rates.
//
// Two driving disciplines:
//   * closed loop — N connections, each waiting for its response (plus an
//     optional think time) before sending the next request. Throughput is
//     bounded by server latency; this measures capacity.
//   * open loop — requests leave on a fixed schedule (target_rate across
//     all connections) regardless of response times, the way independent
//     optimizer clients arrive in aggregate. A connection that falls behind
//     its schedule sends every single-estimate request due by now at once,
//     pipelined in one write (at most 64), so when the server saturates the
//     excess arrives as a burst and past max_inflight gets kOverloaded
//     sheds instead of the rate silently degrading. `behind_schedule`
//     counts sends launched more than an interval late (a saturated
//     *generator* would understate pressure — watch that column, it is the
//     coordinated-omission tell). Batch, placement and feedback traffic
//     keep one frame in flight per connection.

#ifndef MSCM_NET_LOADGEN_H_
#define MSCM_NET_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cost_distribution.h"
#include "runtime/estimate_types.h"

namespace mscm::net {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  enum class Mode { kClosed, kOpen };
  Mode mode = Mode::kClosed;
  int connections = 4;
  std::chrono::nanoseconds duration = std::chrono::seconds(1);
  // Closed loop: pause between response and next request.
  std::chrono::nanoseconds think_time{0};
  // Open loop: aggregate request arrival rate (req/s) across connections.
  double target_rate = 1000.0;
  // Requests per frame: 1 sends EstimateRequest, >1 sends
  // EstimateBatchRequest slicing the workload.
  size_t batch_size = 1;
  // Placement traffic: > 0 sends PlacementRequest frames instead, each
  // carrying this many candidates sliced from the workload (shipping costs
  // are small deterministic values varied per candidate). Overrides
  // batch_size.
  size_t placement_candidates = 0;
  // Ranking policy carried on placement frames (see runtime::PlacementOptions).
  core::PlacementPolicy placement_policy = core::PlacementPolicy::kPointEstimate;
  double placement_risk_lambda = 0.5;
  // Feedback traffic (single-estimate mode only): after each successful
  // estimate, report an observed cost via kReportActual, closing the
  // adaptation loop over the wire. The observed cost is a deterministic
  // ground-truth law matching mscm_served's synthetic federation —
  // (state+1) * (0.5 f0 + 0.2 f1 + 0.1 f2) — so the server's RLS fast tier
  // has a stable target independent of its own (adapting) coefficients.
  bool feedback = false;
  // Relative Gaussian noise on reported costs (stddev, fraction of truth).
  double feedback_noise = 0.05;
  // Per-second multiplicative drift of the ground truth: the reported cost
  // is scaled by (1 + feedback_drift * elapsed_seconds), so a non-zero rate
  // makes every served model progressively stale and forces the adaptation
  // tiers to chase.
  double feedback_drift = 0.0;
  // Cycled round-robin by every connection. Must be non-empty.
  std::vector<runtime::EstimateRequest> workload;
};

struct LoadGenResult {
  uint64_t completed = 0;        // frames answered with a data response
  uint64_t items = 0;            // estimates inside those frames
  uint64_t placements_chosen = 0;  // placement responses with chosen >= 0
  uint64_t overloaded = 0;       // kOverloaded error frames
  uint64_t error_frames = 0;     // other typed error frames
  uint64_t transport_errors = 0; // send/recv/connect failures
  uint64_t behind_schedule = 0;  // open loop: sends launched late
  uint64_t feedback_accepted = 0;  // kReportActual acked accepted=true
  uint64_t feedback_rejected = 0;  // acked accepted=false (ring full / off)
  double seconds = 0.0;
  double qps = 0.0;          // completed frames / second
  double items_per_sec = 0.0;
  // Per-frame round-trip latency (successful responses only; a pipelined
  // burst's frames each record the whole burst's round trip).
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;

  std::string ToString() const;
};

// Blocks for ~config.duration. Connections that die mid-run reconnect once
// per failure; a server that is down yields transport_errors, not a hang.
LoadGenResult RunLoadGen(const LoadGenConfig& config);

// A synthetic workload over `sites` × the two serving classes, matching the
// federation mscm_served stands up (sites named "site0".."siteN-1").
std::vector<runtime::EstimateRequest> MakeUniformWorkload(size_t n_requests,
                                                          size_t n_sites,
                                                          uint64_t seed);

}  // namespace mscm::net

#endif  // MSCM_NET_LOADGEN_H_
