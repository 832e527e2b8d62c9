#include "runtime/contention_tracker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "runtime/rmw_probe.h"

namespace mscm::runtime {

namespace {

constexpr double kNoReading = std::numeric_limits<double>::quiet_NaN();

bool AdaptiveCadence(const ContentionTrackerConfig& config) {
  return config.min_probe_interval.count() > 0 &&
         config.max_probe_interval.count() > 0;
}

}  // namespace

ContentionTracker::ContentionTracker(ContentionTrackerConfig config,
                                     ProbeFn probe,
                                     LatencyHistogram* probe_latency)
    : config_(std::move(config)),
      probe_(std::move(probe)),
      probe_latency_(probe_latency),
      own_cell_(config_.cell == nullptr ? std::make_unique<SiteCell>()
                                        : nullptr),
      cell_(config_.cell != nullptr ? config_.cell : own_cell_.get()),
      current_interval_ns_(config_.probe_interval.count()),
      breaker_(config_.breaker, config_.clock) {
  MSCM_CHECK(probe_ != nullptr);
  MSCM_CHECK(config_.clock != nullptr);
  if (AdaptiveCadence(config_)) {
    MSCM_CHECK_MSG(config_.min_probe_interval <= config_.max_probe_interval,
                   "min_probe_interval must not exceed max_probe_interval");
  }
  // Take the cell over. The previous owner's reading is not ours to serve:
  // reset it, and bump the version so entries priced from it retire.
  std::lock_guard<std::mutex> lock(cell_->mutex);
  cell_->owner = this;
  if (cell_->has_value.load(std::memory_order_relaxed)) {
    PublishLocked(false, kNoReading, -1, 0, 0);
    cell_->stale_mark.store(0, std::memory_order_relaxed);
    cell_->state_version.fetch_add(1, std::memory_order_release);
  }
}

ContentionTracker::~ContentionTracker() { Stop(); }

void ContentionTracker::Start() {
  if (config_.probe_interval.count() <= 0) return;
  std::lock_guard<std::mutex> lock(thread_mutex_);
  // A joinable thread_ is a live loop: Stop() moves the thread out under
  // this mutex in the same critical section that raises stop_.
  if (thread_.joinable()) return;
  stop_ = false;
  // Stamp a fresh generation. If a Stop() is mid-join on the old loop, the
  // old loop exits on its own generation check — resetting stop_ here
  // cannot resurrect it, and the new loop below is a distinct thread the
  // stopper never waits for.
  const uint64_t generation = ++generation_;
  thread_ = std::thread([this, generation] { RunLoop(generation); });
}

void ContentionTracker::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!thread_.joinable()) return;
    stop_ = true;
    // Supersede the running loop's generation so a concurrent Start() — which
    // resets stop_ — still terminates it and the join below cannot hang.
    ++generation_;
    stop_cv_.notify_all();
    to_join = std::move(thread_);
  }
  to_join.join();
}

bool ContentionTracker::RunProbe(double* cost) {
  // Without a deadline the probe runs inline; the only armor needed is the
  // exception catch — a throwing probe is a failed probe, never a dead
  // prober thread.
  if (config_.probe_timeout.count() <= 0) {
    try {
      *cost = probe_();
      return true;
    } catch (...) {
      return false;
    }
  }

  // With a deadline the probe runs on its own short-lived thread and the
  // caller waits at most probe_timeout for it. All communication goes
  // through heap-shared state: an abandoned probe that eventually finishes
  // (or hangs forever) touches only that state, never the tracker — so a
  // permanently hung probe can never wedge Stop() or the destructor, and a
  // late result can never publish.
  struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool threw = false;
    double cost = std::numeric_limits<double>::quiet_NaN();
  };
  auto pending = std::make_shared<Pending>();
  std::thread([probe = probe_, pending] {
    double c = std::numeric_limits<double>::quiet_NaN();
    bool threw = false;
    try {
      c = probe();
    } catch (...) {
      threw = true;
    }
    std::lock_guard<std::mutex> lock(pending->mutex);
    pending->done = true;
    pending->threw = threw;
    pending->cost = c;
    pending->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> lock(pending->mutex);
  if (!pending->cv.wait_for(lock, config_.probe_timeout,
                            [&] { return pending->done; })) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (pending->threw) return false;
  *cost = pending->cost;
  return true;
}

bool ContentionTracker::ProbeOnce() {
  const bool was_degraded = breaker_.degraded();
  if (!breaker_.AllowRequest()) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // The sequence ticket is taken *before* the probe runs: publish order then
  // follows probe-start order, and a slow probe racing a faster, later one
  // (manual ProbeNow vs the background loop) is detected at publish time. A
  // timed-out probe burns its ticket, so its abandoned result stays behind
  // any retry that publishes after it.
  const uint64_t sequence =
      next_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;

  // The probe runs outside the cache mutex: probing can take seconds and
  // readers must keep getting the previous reading meanwhile.
  const auto started = std::chrono::steady_clock::now();
  double cost = kNoReading;
  const bool returned = RunProbe(&cost);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  if (probe_latency_ != nullptr) {
    probe_latency_->Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed));
  }

  // A cost must be finite *and* non-negative to publish: +inf passes a
  // NaN/negative check but bit-cast into published_cost_bits_ it would be
  // served as a real probing cost (and mapped to the top state) forever.
  if (!returned || !(std::isfinite(cost) && cost >= 0.0)) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    breaker_.RecordFailure();
    NotifyDegradedTransition(was_degraded);
    return false;
  }

  breaker_.RecordSuccess();
  probes_.fetch_add(1, std::memory_order_relaxed);
  StateChangeFn callback;
  int old_state = -1;
  int new_state = -1;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(cell_->mutex);
    SiteCell& cell = *cell_;
    const bool first = !cell.has_value.load(std::memory_order_relaxed);
    if (cell.owner != this ||
        (!first && sequence <= cell.sequence.load(std::memory_order_relaxed))) {
      // A probe that started after this one already published: keep the newer
      // reading (and its timestamp — republishing would serve old contention
      // as fresh). A replaced tracker's late probe lands here too.
      discarded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      old_state = first ? -1 : cell.state.load(std::memory_order_relaxed);
      new_state = mapper_ ? mapper_(cost) : -1;
      // Cost is published before the version moves: a lock-free validator
      // that sees the old version paired with the new cost falls back to its
      // bounds check, which rejects exactly the entries this transition
      // invalidates.
      PublishLocked(true, cost, new_state, sequence,
                    config_.clock->Now().time_since_epoch().count());
      cell.stale_mark.store(sequence << 1, std::memory_order_release);
      changed = first || new_state != old_state;
      if (changed) {
        cell.state_version.fetch_add(1, std::memory_order_release);
        callback = state_change_;
      }
    }
  }
  // Outside the lock: the callback typically fans out into cache shards and
  // must not nest under the tracker mutex.
  if (changed && callback) callback(old_state, new_state);
  // A successful half-open trial closes the breaker: publish the flip.
  NotifyDegradedTransition(was_degraded);
  return true;
}

void ContentionTracker::NotifyDegradedTransition(bool was_degraded) {
  if (breaker_.degraded() == was_degraded) return;
  StateChangeFn callback;
  int state = -1;
  {
    std::lock_guard<std::mutex> lock(cell_->mutex);
    // Responses cached before the flip embed the old degraded flag; bumping
    // the version retires them even though the state itself did not move.
    cell_->state_version.fetch_add(1, std::memory_order_release);
    callback = state_change_;
    if (cell_->has_value.load(std::memory_order_relaxed)) {
      state = cell_->state.load(std::memory_order_relaxed);
    }
  }
  if (callback) callback(state, state);
}

void ContentionTracker::PublishLocked(bool has_value, double cost, int state,
                                      uint64_t sequence, int64_t at_ns) {
  // Release on every field store keeps the odd `seq` ahead of it, and
  // acquire on every field load keeps the reader's re-check behind it — no
  // standalone fences (which ThreadSanitizer cannot model).
  SiteCell& cell = *cell_;
  const uint64_t seq = cell.seq.load(std::memory_order_relaxed);
  cell.seq.store(seq + 1, std::memory_order_relaxed);
  cell.has_value.store(has_value, std::memory_order_release);
  cell.cost_bits.store(std::bit_cast<uint64_t>(cost),
                       std::memory_order_release);
  cell.state.store(state, std::memory_order_release);
  cell.sequence.store(sequence, std::memory_order_release);
  cell.reading_at_ns.store(at_ns, std::memory_order_release);
  cell.seq.store(seq + 2, std::memory_order_release);
}

ProbeReading ContentionTracker::ReadAt(Clock::TimePoint now) const {
  const SiteCell& cell = *cell_;
  ProbeReading out;
  int64_t at_ns = 0;
  for (;;) {
    const uint64_t seq = cell.seq.load(std::memory_order_acquire);
    out.has_value = cell.has_value.load(std::memory_order_acquire);
    out.probing_cost =
        std::bit_cast<double>(cell.cost_bits.load(std::memory_order_acquire));
    out.state = cell.state.load(std::memory_order_acquire);
    out.sequence = cell.sequence.load(std::memory_order_acquire);
    at_ns = cell.reading_at_ns.load(std::memory_order_acquire);
    if ((seq & 1) == 0 && cell.seq.load(std::memory_order_relaxed) == seq) {
      break;
    }
  }
  const bool degraded = breaker_.degraded();
  if (!out.has_value) {
    out = ProbeReading{};
    out.degraded = degraded;
    return out;
  }
  out.degraded = degraded;
  out.age = std::max(std::chrono::nanoseconds(0),
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now.time_since_epoch() - Clock::Duration(at_ns)));
  out.stale = out.age > config_.ttl;
  // Freshness changed since it was last folded into the version: responses
  // cached under the old version carried the old stale flag, so retire them
  // even though the state itself did not move. Keyed on the reading's
  // sequence, so a probe publishing meanwhile makes the swap fail.
  const uint64_t mark = out.sequence << 1;
  uint64_t expected = mark | (out.stale ? 0 : 1);
  if (cell_->stale_mark.load(std::memory_order_acquire) == expected) {
    RmwProbe::Count();
    if (cell_->stale_mark.compare_exchange_strong(
            expected, mark | (out.stale ? 1 : 0), std::memory_order_acq_rel)) {
      RmwProbe::Count();
      cell_->state_version.fetch_add(1, std::memory_order_release);
    }
  }
  return out;
}

void ContentionTracker::SetStateMapper(std::function<int(double)> mapper) {
  StateChangeFn callback;
  int old_state = -1;
  int new_state = -1;
  {
    std::lock_guard<std::mutex> lock(cell_->mutex);
    SiteCell& cell = *cell_;
    mapper_ = std::move(mapper);
    if (cell.owner == this && cell.has_value.load(std::memory_order_relaxed)) {
      const double cost =
          std::bit_cast<double>(cell.cost_bits.load(std::memory_order_relaxed));
      old_state = cell.state.load(std::memory_order_relaxed);
      new_state = mapper_ ? mapper_(cost) : -1;
      if (new_state != old_state) {
        PublishLocked(true, cost, new_state,
                      cell.sequence.load(std::memory_order_relaxed),
                      cell.reading_at_ns.load(std::memory_order_relaxed));
        cell.state_version.fetch_add(1, std::memory_order_release);
        callback = state_change_;
      }
    }
  }
  if (callback) callback(old_state, new_state);
}

void ContentionTracker::SetStateBoundaries(std::vector<double> boundaries) {
  std::lock_guard<std::mutex> lock(cell_->mutex);
  boundaries_ = std::move(boundaries);
}

bool ContentionTracker::BoundaryDistance(double* distance,
                                         double* boundary) const {
  std::lock_guard<std::mutex> lock(cell_->mutex);
  const double cost = published_probing_cost();
  if (!cell_->has_value.load(std::memory_order_relaxed) ||
      boundaries_.empty() || !std::isfinite(cost)) {
    return false;
  }
  double best = std::numeric_limits<double>::infinity();
  double best_boundary = 0.0;
  for (double b : boundaries_) {
    const double d = std::abs(cost - b);
    if (d < best) {
      best = d;
      best_boundary = b;
    }
  }
  if (distance != nullptr) *distance = best;
  if (boundary != nullptr) *boundary = best_boundary;
  return true;
}

void ContentionTracker::SetStateChangeCallback(StateChangeFn callback) {
  std::lock_guard<std::mutex> lock(cell_->mutex);
  state_change_ = std::move(callback);
}

std::chrono::nanoseconds ContentionTracker::AdaptInterval(
    std::chrono::nanoseconds current, bool state_changed,
    std::chrono::nanoseconds min_interval,
    std::chrono::nanoseconds max_interval) {
  // Multiplicative decrease / gentler increase: react to a flip immediately,
  // back off only after sustained quiet, never leave [min, max].
  const auto next = state_changed ? current / 2 : current + current / 4;
  return std::clamp(next, min_interval, max_interval);
}

void ContentionTracker::RunLoop(uint64_t generation) {
  const bool adaptive = AdaptiveCadence(config_);
  auto interval = config_.probe_interval;
  if (adaptive) {
    interval = std::clamp(interval, config_.min_probe_interval,
                          config_.max_probe_interval);
    current_interval_ns_.store(interval.count(), std::memory_order_relaxed);
  }
  for (;;) {
    const uint64_t version_before = state_version();
    const bool ok = ProbeOnce();
    // Re-evaluate freshness so a failed probe publishes the fresh→stale
    // transition (a successful one resets the age and publishes fresh).
    Current();
    if (adaptive) {
      // Any version movement — state flip, first reading, staleness
      // transition — counts as environment activity worth probing faster for.
      const bool flipped = state_version() != version_before;
      interval = AdaptInterval(interval, flipped, config_.min_probe_interval,
                               config_.max_probe_interval);
      current_interval_ns_.store(interval.count(), std::memory_order_relaxed);
    }
    // Failed probes retry on an exponential backoff instead of sleeping the
    // whole interval, so a transient failure gets several retries before the
    // reading crosses its TTL. The backoff keys off the breaker's
    // consecutive-failure count and never exceeds the regular interval.
    auto wait = interval;
    if (!ok && config_.failure_retry.count() > 0 && interval.count() > 0) {
      const int consecutive = std::max(1, consecutive_failures());
      int64_t retry_ns = config_.failure_retry.count();
      for (int i = 1; i < consecutive && retry_ns < interval.count(); ++i) {
        retry_ns *= 2;
      }
      wait = std::min(std::chrono::nanoseconds(retry_ns), interval);
    }
    std::unique_lock<std::mutex> lock(thread_mutex_);
    // Exit on stop *or* when a newer Start/Stop superseded this loop's
    // generation (a racing Start may have reset stop_ to false already).
    if (stop_cv_.wait_for(lock, wait, [this, generation] {
          return stop_ || generation_ != generation;
        })) {
      return;
    }
  }
}

}  // namespace mscm::runtime
