// Background contention tracking for one local site (paper §3.1/§3.3 made
// continuous): a prober periodically runs the site's probing query — or an
// Eq. 2 monitor-statistics estimate of it — maps the observed cost to a
// contention state through a model's state partition, and caches
// (state, probing_cost, timestamp). Estimation requests read the cache
// instead of paying a probing query per estimate.
//
// Freshness contract: a reading older than the TTL is still served (last
// known state beats no state — the environment usually drifts, it does not
// teleport) but is flagged `stale` so the caller can widen its error bars or
// trigger a synchronous probe. Probe failures — a non-finite or negative
// cost, a thrown exception, or a probe abandoned past its deadline — keep
// the previous reading and bump a failure counter; with a retry backoff
// configured, the background loop retries failed probes well before the
// reading crosses its TTL. A per-site circuit breaker (optional) suppresses
// probing entirely after a run of consecutive failures and re-admits a trial
// probe after a cooling-off period; while it is not closed the tracker's
// readings are flagged `degraded`.

#ifndef MSCM_RUNTIME_CONTENTION_TRACKER_H_
#define MSCM_RUNTIME_CONTENTION_TRACKER_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/circuit_breaker.h"
#include "runtime/clock.h"
#include "runtime/runtime_stats.h"

namespace mscm::runtime {

// One site's published contention reading, readable with loads alone, plus
// the estimate cache's invalidation versions for the site. The estimation
// service owns one cell per site name for its whole lifetime (a stable
// address), so cache entries point at the cell instead of pinning a tracker;
// a tracker that replaces another attaches to the same cell, resets the
// reading and bumps state_version. A tracker built without a cell owns one.
//
// The reading is a seqlock: a writer (serialized by `mutex`) makes `seq` odd,
// stores the fields and makes it even again; a reader retries until it sees
// the same even `seq` on both sides of its field loads. Cache-line aligned so
// one site's probes never invalidate another site's readers.
struct alignas(64) SiteCell {
  // (site, state) invalidation slots; states past the last share it.
  static constexpr int kStateSlots = 16;
  static int StateSlot(int state) {
    return std::clamp(state, 0, kStateSlots - 1);
  }

  std::mutex mutex;             // serializes writers; guards `owner`
  const void* owner = nullptr;  // the tracker allowed to publish

  std::atomic<uint64_t> seq{0};
  std::atomic<bool> has_value{false};
  // The published probing cost (NaN until the first reading). Also read on
  // its own, outside the seqlock, by the cache's validity check.
  std::atomic<uint64_t> cost_bits{
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN())};
  std::atomic<int> state{-1};
  std::atomic<uint64_t> sequence{0};
  std::atomic<int64_t> reading_at_ns{0};

  // (sequence << 1) | stale: the staleness of reading `sequence` last folded
  // into state_version. The fresh->stale flip is one compare-and-swap, so a
  // TTL crossing bumps the version exactly once however many readers see it.
  std::atomic<uint64_t> stale_mark{0};
  // See ContentionTracker::state_version().
  std::atomic<uint64_t> state_version{0};

  // Estimate-cache invalidation versions: bumped to retire every cached
  // entry for the site, or only those priced in one state.
  std::atomic<uint64_t> site_version{0};
  std::atomic<uint64_t> state_versions[kStateSlots] = {};
};

struct ContentionTrackerConfig {
  std::string site = "site";
  // Readings older than this are served with stale=true.
  std::chrono::nanoseconds ttl = std::chrono::seconds(5);
  // Background probe period; zero disables the thread (manual ProbeOnce()).
  // With adaptive cadence enabled this is the *starting* period.
  std::chrono::nanoseconds probe_interval{0};
  // Adaptive cadence (enabled when both bounds are positive): after each
  // background probe the interval halves toward min_probe_interval if the
  // probe moved the state version (state flip, staleness transition) and
  // grows by a quarter toward max_probe_interval if it did not — fast
  // detection when the environment is flapping, few wasted probes when it is
  // quiet (the paper's dynamic-environment premise, §3.1). When disabled
  // (either bound zero) the cadence is the fixed probe_interval.
  std::chrono::nanoseconds min_probe_interval{0};
  std::chrono::nanoseconds max_probe_interval{0};
  // Probe deadline: a probe still running after this long is abandoned — the
  // prober stops waiting, counts a failure (and a timeout), and moves on; the
  // abandoned probe's sequence ticket is burned, so its eventual result can
  // never publish over a newer reading. Zero disables the deadline (probes
  // run inline on the prober thread and a hang blocks it). The wait is a real
  // condition-variable wait, so the deadline is measured in wall time, not on
  // the injected clock.
  std::chrono::nanoseconds probe_timeout{0};
  // After a failed probe the background loop retries after
  // `failure_retry * 2^(consecutive_failures - 1)` (capped at the current
  // probe interval) instead of sleeping the whole interval — a transiently
  // failing site usually gets several retries before the cached reading
  // crosses its TTL and the stale flag flips. Zero disables (failures wait
  // the full interval).
  std::chrono::nanoseconds failure_retry{0};
  // Circuit breaker over consecutive probe failures (failure_threshold 0
  // disables). While not closed, probes are suppressed — except the
  // half-open trial — and readings are flagged `degraded`. Timed on `clock`.
  CircuitBreakerConfig breaker;
  Clock* clock = Clock::System();
  // Where readings are published; null = a cell private to the tracker.
  // Attaching takes the cell over: the previous tracker's later probes are
  // discarded and its reading is reset.
  SiteCell* cell = nullptr;
};

// The cached contention reading for a site.
struct ProbeReading {
  bool has_value = false;   // false until the first successful probe
  double probing_cost = 0.0;
  int state = -1;           // -1 when no state mapper is installed
  bool stale = false;       // age > TTL at read time
  // The site's probe circuit breaker is open or half-open: probes are
  // failing and this is the last known state, not a recent measurement.
  bool degraded = false;
  std::chrono::nanoseconds age{0};
  // Probe-start order of the published reading. A probe only publishes if
  // its sequence is newer than the published one, so a slow probe that
  // started before the current reading was taken can never clobber it.
  uint64_t sequence = 0;
};

class ContentionTracker {
 public:
  // Measures the site's current probing cost in seconds. Any non-finite or
  // negative return means the probe failed, and a thrown exception is caught
  // and counted as a failure too. Called from the tracker thread (or from
  // ProbeOnce's caller; with a probe_timeout configured, from a short-lived
  // probe thread); must be safe to call concurrently with whatever else
  // touches the site — wrap sites in mdbs::MdbsAgent for that.
  using ProbeFn = std::function<double()>;

  ContentionTracker(ContentionTrackerConfig config, ProbeFn probe,
                    LatencyHistogram* probe_latency = nullptr);
  ~ContentionTracker();

  ContentionTracker(const ContentionTracker&) = delete;
  ContentionTracker& operator=(const ContentionTracker&) = delete;

  // Starts / stops the background prober (no-ops when probe_interval is 0
  // or the thread is already in the requested state). The thread probes
  // once immediately, then every probe_interval. Start and Stop may race
  // freely from any threads: each Start stamps a new generation, and a loop
  // exits as soon as its generation is superseded, so a Start landing in the
  // middle of a Stop can neither resurrect the old loop nor deadlock the
  // join (it spawns a fresh loop that the stopper does not wait for).
  void Start();
  void Stop();

  // One synchronous probe; returns false on probe failure (a non-finite or
  // negative cost, a thrown exception, a deadline overrun, or suppression by
  // an open circuit breaker).
  bool ProbeOnce();

  // Current cached reading with staleness evaluated against the clock now.
  // Lock-free: seqlocked loads, plus one compare-and-swap only on the read
  // that first sees the reading cross its TTL.
  ProbeReading Current() const { return ReadAt(config_.clock->Now()); }

  // As Current(), with staleness evaluated at `now` (a batch reads the clock
  // once for all its sites).
  ProbeReading ReadAt(Clock::TimePoint now) const;

  // Installs the probing-cost → state mapping (normally a model's
  // ContentionStates::StateOf). Re-maps the cached reading immediately.
  void SetStateMapper(std::function<int(double)> mapper);

  // Installs the state partition's internal boundaries (ascending) so
  // BoundaryDistance can report how close the published probing cost sits to
  // a state edge. Normally set alongside SetStateMapper from the same model.
  void SetStateBoundaries(std::vector<double> boundaries);

  // Distance from the published probing cost to the nearest partition
  // boundary. Returns false when there is no reading or no boundaries are
  // installed; otherwise writes the absolute distance and the boundary it is
  // measured against. Drives the near_boundary_sites gauge: a site whose
  // probe hovers inside the soft-membership band is one whose point
  // estimates are least trustworthy.
  bool BoundaryDistance(double* distance, double* boundary) const;

  // Invoked (outside the tracker's internal locks) whenever a probe or remap
  // publishes a different state than the previous reading's. old_state is -1
  // for the first reading. Used by the estimation service to drop cached
  // estimates for this site the moment its contention state transitions.
  using StateChangeFn = std::function<void(int old_state, int new_state)>;
  void SetStateChangeCallback(StateChangeFn callback);

  // Monotone version of the published (state, staleness, degraded) triple:
  // bumped when a probe or remap changes the mapped state, when the reading
  // crosses the TTL, when the circuit breaker moves across the closed
  // boundary (the degraded flag flipped), and when a tracker takes the cell
  // over. A cached estimate recorded at version v is
  // state-consistent while state_version() == v still holds. Staleness
  // transitions are detected when someone evaluates freshness (Current() or
  // the background loop after a failed probe), so the bump lags a quiet
  // fresh→stale crossing by at most one probe interval.
  uint64_t state_version() const {
    return cell_->state_version.load(std::memory_order_acquire);
  }

  // The most recently published probing cost (one load); NaN until the
  // first successful probe. Paired with state_version() this is the cache's
  // lock-free validity probe: a cached estimate is value-correct while the
  // published cost stays inside its state's partition interval under the
  // model that priced it.
  double published_probing_cost() const {
    return std::bit_cast<double>(
        cell_->cost_bits.load(std::memory_order_acquire));
  }

  // The cadence the background loop is currently probing at (the
  // probe_interval_ns gauge). Equals config probe_interval until the
  // adaptive loop first adjusts it.
  std::chrono::nanoseconds current_probe_interval() const {
    return std::chrono::nanoseconds(
        current_interval_ns_.load(std::memory_order_relaxed));
  }

  // The adaptive-cadence step, exposed for direct testing: halve on a state
  // change, grow by a quarter when stable, clamped to [min, max].
  static std::chrono::nanoseconds AdaptInterval(
      std::chrono::nanoseconds current, bool state_changed,
      std::chrono::nanoseconds min_interval,
      std::chrono::nanoseconds max_interval);

  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  // Successful probes whose reading was discarded because a newer probe
  // published first (out-of-order completion).
  uint64_t discarded() const {
    return discarded_.load(std::memory_order_relaxed);
  }
  // Probes abandoned past the probe_timeout deadline (a subset of failures).
  uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  // Probe attempts suppressed by an open circuit breaker (not failures: the
  // probe never ran).
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }
  // Failed probes since the last success (what the retry backoff and the
  // breaker key off).
  int consecutive_failures() const {
    return breaker_.consecutive_failures();
  }

  // The probe circuit breaker (always present; disabled unless the config
  // sets a failure threshold). Lock-free state reads.
  const CircuitBreaker& breaker() const { return breaker_; }
  bool degraded() const { return breaker_.degraded(); }

  const std::string& site() const { return config_.site; }

 private:
  // Loops until `generation` is superseded by a newer Start/Stop.
  void RunLoop(uint64_t generation);

  // Runs the probe with deadline and exception armor; true iff the probe
  // returned (an unvalidated) *cost in time.
  bool RunProbe(double* cost);

  // Publishes a degraded-flag flip (version bump + state-change callback)
  // when the breaker moved across the closed boundary.
  void NotifyDegradedTransition(bool was_degraded);

  // One seqlocked write of the reading; caller holds cell_->mutex.
  void PublishLocked(bool has_value, double cost, int state,
                     uint64_t sequence, int64_t at_ns);

  const ContentionTrackerConfig config_;
  const ProbeFn probe_;
  LatencyHistogram* const probe_latency_;  // may be null

  std::unique_ptr<SiteCell> own_cell_;  // set when config.cell is null
  SiteCell* const cell_;
  // Guarded by cell_->mutex, which serializes every writer of the cell.
  std::function<int(double)> mapper_;
  std::vector<double> boundaries_;  // state partition, ascending
  StateChangeFn state_change_;

  std::atomic<int64_t> current_interval_ns_;

  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> suppressed_{0};
  CircuitBreaker breaker_;
  // Probe-start tickets; compared against reading_.sequence at publish time.
  std::atomic<uint64_t> next_sequence_{0};

  std::mutex thread_mutex_;  // guards thread_ / stop_ / generation_
  std::condition_variable stop_cv_;
  bool stop_ = false;
  uint64_t generation_ = 0;  // bumped by every Start and Stop
  std::thread thread_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_CONTENTION_TRACKER_H_
