#include "net/loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/explanatory.h"
#include "net/client.h"

namespace mscm::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

struct WorkerTally {
  uint64_t completed = 0;
  uint64_t items = 0;
  uint64_t placements_chosen = 0;
  uint64_t overloaded = 0;
  uint64_t error_frames = 0;
  uint64_t transport_errors = 0;
  uint64_t behind_schedule = 0;
  uint64_t feedback_accepted = 0;
  uint64_t feedback_rejected = 0;
  std::vector<double> latencies_us;
};

// The ground-truth cost law of mscm_served's synthetic federation (see
// served_runtime.cc MakeModel), scaled by the drift factor. Reporting this
// instead of a perturbed estimate keeps the feedback target fixed while the
// server's coefficients move underneath it.
double GroundTruthCost(const runtime::EstimateRequest& request, int state,
                       double drift_scale) {
  double base = 0.0;
  const double w[3] = {0.5, 0.2, 0.1};
  for (size_t j = 0; j < 3 && j < request.features.size(); ++j) {
    base += w[j] * request.features[j];
  }
  return drift_scale * (static_cast<double>(state) + 1.0) * base;
}

double MicrosSince(SteadyClock::time_point t) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t)
      .count();
}

// One connection's driving loop (closed or open discipline).
void DriveConnection(const LoadGenConfig& config, size_t worker_index,
                     SteadyClock::time_point start,
                     SteadyClock::time_point stop_at, WorkerTally& tally) {
  NetClient client;
  if (!client.Connect(config.host, config.port)) {
    ++tally.transport_errors;
    return;
  }

  // Open loop: this connection owns every config.connections-th slot of the
  // aggregate schedule.
  const double per_conn_rate =
      config.target_rate / std::max(1, config.connections);
  const auto interval =
      config.mode == LoadGenConfig::Mode::kOpen && per_conn_rate > 0.0
          ? std::chrono::nanoseconds(
                static_cast<int64_t>(1e9 / per_conn_rate))
          : std::chrono::nanoseconds(0);
  auto next_send = start + interval * static_cast<int64_t>(worker_index) /
                               std::max(1, config.connections);

  size_t cursor = worker_index;  // de-phase the workload across connections
  Rng rng(0x9e3779b97f4a7c15ull ^ worker_index);  // feedback noise
  std::vector<runtime::EstimateRequest> batch;
  // Open-loop single estimates may pipeline: a connection that fell behind
  // its schedule sends every request due by now in one write, so arrivals
  // past capacity reach the server instead of being silently omitted.
  const bool pipelined = config.mode == LoadGenConfig::Mode::kOpen &&
                         config.placement_candidates == 0 &&
                         config.batch_size <= 1 && !config.feedback;
  constexpr int64_t kMaxBurst = 64;

  auto record = [&](const RpcStatus& status, size_t items,
                    bool placement_chosen, double us) {
    if (status.ok()) {
      ++tally.completed;
      tally.items += items;
      if (placement_chosen) ++tally.placements_chosen;
      tally.latencies_us.push_back(us);
    } else if (status.overloaded()) {
      ++tally.overloaded;
    } else if (status.code == RpcStatus::Code::kErrorFrame) {
      ++tally.error_frames;
    } else {
      ++tally.transport_errors;
      // The connection died (server restart, drain, timeout): try once to
      // come back rather than idling for the rest of the run.
      if (!client.Connect(config.host, config.port)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  };

  while (SteadyClock::now() < stop_at) {
    int64_t due = 1;  // scheduled sends whose time has come
    if (config.mode == LoadGenConfig::Mode::kOpen) {
      const auto now = SteadyClock::now();
      if (now < next_send) {
        std::this_thread::sleep_until(std::min(next_send, stop_at));
        if (SteadyClock::now() >= stop_at) break;
      } else if (now > next_send + interval) {
        // Behind schedule (the coordinated-omission tell): all but the
        // newest due send are late by more than an interval.
        if (pipelined && interval.count() > 0) {
          due = std::min<int64_t>(kMaxBurst, 1 + (now - next_send) / interval);
        }
        tally.behind_schedule += static_cast<uint64_t>(std::max<int64_t>(
            1, due - 1));
      }
      next_send += interval * due;
    }

    const auto sent_at = SteadyClock::now();
    if (due > 1) {
      batch.clear();
      for (int64_t i = 0; i < due; ++i) {
        batch.push_back(config.workload[cursor % config.workload.size()]);
        ++cursor;
      }
      std::vector<RpcStatus> statuses;
      std::vector<runtime::EstimateResponse> responses;
      const RpcStatus status =
          client.EstimatePipelined(batch, &statuses, &responses);
      const double us = MicrosSince(sent_at);
      if (!status.ok()) {
        record(status, 0, false, us);
        continue;
      }
      for (const RpcStatus& item : statuses) record(item, 1, false, us);
      continue;
    }

    RpcStatus status;
    size_t items = 0;
    bool placement_chosen = false;
    if (config.placement_candidates > 0) {
      // Placement traffic: one frame prices placement_candidates candidate
      // sites under the configured ranking policy. Shipping costs vary
      // deterministically per candidate so ties are rare but reproducible.
      std::vector<runtime::PlacementCandidate> candidates;
      candidates.reserve(config.placement_candidates);
      for (size_t i = 0; i < config.placement_candidates; ++i) {
        runtime::PlacementCandidate candidate;
        candidate.request = config.workload[cursor % config.workload.size()];
        candidate.shipping_seconds =
            1e-4 * static_cast<double>((cursor + i) % 7);
        candidates.push_back(std::move(candidate));
        ++cursor;
      }
      runtime::PlacementOptions options;
      options.ranking.policy = config.placement_policy;
      options.ranking.risk_lambda = config.placement_risk_lambda;
      runtime::PlacementResult placement;
      status = client.ChoosePlacement(candidates, options, &placement);
      items = placement.responses.size();
      placement_chosen = status.ok() && placement.chosen >= 0;
    } else if (config.batch_size <= 1) {
      const runtime::EstimateRequest& request =
          config.workload[cursor % config.workload.size()];
      runtime::EstimateResponse response;
      status = client.Estimate(request, &response);
      items = 1;
      ++cursor;
      if (config.feedback && status.ok() && response.ok()) {
        const double elapsed =
            std::chrono::duration<double>(SteadyClock::now() - start).count();
        runtime::FeedbackReport report;
        report.site = request.site;
        report.class_id = request.class_id;
        report.features = request.features;
        report.probing_cost = response.probing_cost;
        report.model_generation = response.model_generation;
        double truth = GroundTruthCost(
            request, response.state,
            1.0 + config.feedback_drift * std::max(0.0, elapsed));
        if (config.feedback_noise > 0.0) {
          truth *= 1.0 + rng.Gaussian(0.0, config.feedback_noise);
        }
        report.actual_cost = std::max(truth, 1e-9);
        bool accepted = false;
        if (client.ReportActual(report, &accepted).ok()) {
          accepted ? ++tally.feedback_accepted : ++tally.feedback_rejected;
        } else {
          ++tally.transport_errors;
        }
      }
    } else {
      batch.clear();
      for (size_t i = 0; i < config.batch_size; ++i) {
        batch.push_back(config.workload[cursor % config.workload.size()]);
        ++cursor;
      }
      std::vector<runtime::EstimateResponse> responses;
      status = client.EstimateBatch(batch, &responses);
      items = responses.size();
    }
    record(status, items, placement_chosen, MicrosSince(sent_at));

    if (config.mode == LoadGenConfig::Mode::kClosed &&
        config.think_time.count() > 0) {
      std::this_thread::sleep_for(config.think_time);
    }
  }
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string LoadGenResult::ToString() const {
  std::string s = Format(
      "completed=%llu (%.0f/s, %.0f items/s) placements_chosen=%llu "
      "overloaded=%llu errors=%llu "
      "transport=%llu behind=%llu latency{p50=%.1fus p90=%.1fus p99=%.1fus "
      "mean=%.1fus max=%.1fus}",
      static_cast<unsigned long long>(completed), qps, items_per_sec,
      static_cast<unsigned long long>(placements_chosen),
      static_cast<unsigned long long>(overloaded),
      static_cast<unsigned long long>(error_frames),
      static_cast<unsigned long long>(transport_errors),
      static_cast<unsigned long long>(behind_schedule), p50_us, p90_us,
      p99_us, mean_us, max_us);
  if (feedback_accepted > 0 || feedback_rejected > 0) {
    s += Format(" feedback{accepted=%llu rejected=%llu}",
                static_cast<unsigned long long>(feedback_accepted),
                static_cast<unsigned long long>(feedback_rejected));
  }
  return s;
}

LoadGenResult RunLoadGen(const LoadGenConfig& config) {
  LoadGenResult result;
  if (config.workload.empty() || config.connections <= 0) return result;

  const int n = config.connections;
  std::vector<WorkerTally> tallies(static_cast<size_t>(n));
  const auto start = SteadyClock::now();
  const auto stop_at = start + config.duration;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers.emplace_back([&config, i, start, stop_at, &tallies] {
      DriveConnection(config, static_cast<size_t>(i), start, stop_at,
                      tallies[static_cast<size_t>(i)]);
    });
  }
  for (auto& w : workers) w.join();
  result.seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  std::vector<double> latencies;
  for (const WorkerTally& t : tallies) {
    result.completed += t.completed;
    result.items += t.items;
    result.placements_chosen += t.placements_chosen;
    result.overloaded += t.overloaded;
    result.error_frames += t.error_frames;
    result.transport_errors += t.transport_errors;
    result.behind_schedule += t.behind_schedule;
    result.feedback_accepted += t.feedback_accepted;
    result.feedback_rejected += t.feedback_rejected;
    latencies.insert(latencies.end(), t.latencies_us.begin(),
                     t.latencies_us.end());
  }
  if (result.seconds > 0.0) {
    result.qps = static_cast<double>(result.completed) / result.seconds;
    result.items_per_sec = static_cast<double>(result.items) / result.seconds;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    result.p50_us = Percentile(latencies, 0.50);
    result.p90_us = Percentile(latencies, 0.90);
    result.p99_us = Percentile(latencies, 0.99);
    result.max_us = latencies.back();
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    result.mean_us = sum / static_cast<double>(latencies.size());
  }
  return result;
}

std::vector<runtime::EstimateRequest> MakeUniformWorkload(size_t n_requests,
                                                          size_t n_sites,
                                                          uint64_t seed) {
  const std::vector<core::QueryClassId> classes = {
      core::QueryClassId::kUnarySeqScan, core::QueryClassId::kJoinNoIndex};
  Rng rng(seed);
  std::vector<runtime::EstimateRequest> requests;
  requests.reserve(n_requests);
  for (size_t i = 0; i < n_requests; ++i) {
    runtime::EstimateRequest request;
    request.site = "site" + std::to_string(i % std::max<size_t>(1, n_sites));
    request.class_id = classes[(i / std::max<size_t>(1, n_sites)) % 2];
    request.features.assign(
        core::VariableSet::ForClass(request.class_id).size(), 0.0);
    for (size_t j = 0; j < 3 && j < request.features.size(); ++j) {
      request.features[j] = rng.Uniform(1.0, 10.0);
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace mscm::net
