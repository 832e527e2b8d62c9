#include "runtime/contention_tracker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/clock.h"

namespace mscm::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

ContentionTrackerConfig ManualConfig(FakeClock* clock,
                                     std::chrono::nanoseconds ttl) {
  ContentionTrackerConfig config;
  config.site = "s";
  config.ttl = ttl;
  config.probe_interval = std::chrono::nanoseconds{0};  // manual probing
  config.clock = clock;
  return config;
}

TEST(ContentionTrackerTest, NoReadingBeforeFirstProbe) {
  FakeClock clock;
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [] { return 0.7; });
  const ProbeReading reading = tracker.Current();
  EXPECT_FALSE(reading.has_value);
  EXPECT_EQ(reading.sequence, 0u);
}

TEST(ContentionTrackerTest, ProbeOnceCachesReading) {
  FakeClock clock;
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [] { return 0.7; });
  EXPECT_TRUE(tracker.ProbeOnce());
  const ProbeReading reading = tracker.Current();
  EXPECT_TRUE(reading.has_value);
  EXPECT_DOUBLE_EQ(reading.probing_cost, 0.7);
  EXPECT_FALSE(reading.stale);
  EXPECT_EQ(reading.state, -1);  // no mapper installed
  EXPECT_EQ(reading.sequence, 1u);
  EXPECT_EQ(tracker.probes(), 1u);
}

TEST(ContentionTrackerTest, TtlMarksReadingStaleButStillServesIt) {
  FakeClock clock;
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [] { return 0.7; });
  ASSERT_TRUE(tracker.ProbeOnce());

  clock.Advance(seconds(4));
  EXPECT_FALSE(tracker.Current().stale);  // within TTL

  clock.Advance(seconds(2));  // age 6s > 5s TTL
  ProbeReading reading = tracker.Current();
  EXPECT_TRUE(reading.has_value);  // last-known state is still served …
  EXPECT_TRUE(reading.stale);      // … but flagged
  EXPECT_DOUBLE_EQ(reading.probing_cost, 0.7);
  EXPECT_GE(reading.age, seconds(6));

  // A fresh probe clears the staleness.
  ASSERT_TRUE(tracker.ProbeOnce());
  EXPECT_FALSE(tracker.Current().stale);
}

TEST(ContentionTrackerTest, FailedProbeKeepsLastKnownReading) {
  FakeClock clock;
  std::atomic<bool> fail{false};
  ContentionTracker tracker(
      ManualConfig(&clock, seconds(5)),
      [&fail] { return fail.load() ? std::nan("") : 0.7; });
  ASSERT_TRUE(tracker.ProbeOnce());

  fail.store(true);
  EXPECT_FALSE(tracker.ProbeOnce());
  EXPECT_EQ(tracker.failures(), 1u);

  // The dead probe did not clobber the cached reading.
  const ProbeReading reading = tracker.Current();
  EXPECT_TRUE(reading.has_value);
  EXPECT_DOUBLE_EQ(reading.probing_cost, 0.7);
  EXPECT_EQ(reading.sequence, 1u);

  // Negative costs are failures too.
  ContentionTracker negative(ManualConfig(&clock, seconds(5)),
                             [] { return -1.0; });
  EXPECT_FALSE(negative.ProbeOnce());
  EXPECT_FALSE(negative.Current().has_value);
}

TEST(ContentionTrackerTest, StateMapperRemapsCachedReading) {
  FakeClock clock;
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [] { return 1.4; });
  ASSERT_TRUE(tracker.ProbeOnce());
  EXPECT_EQ(tracker.Current().state, -1);

  tracker.SetStateMapper([](double cost) { return cost > 1.0 ? 1 : 0; });
  EXPECT_EQ(tracker.Current().state, 1);  // cached value remapped in place
}

TEST(ContentionTrackerTest, BackgroundProberRunsUntilStopped) {
  ContentionTrackerConfig config;
  config.site = "bg";
  config.ttl = seconds(5);
  config.probe_interval = milliseconds(1);
  // Real system clock: this exercises the actual thread lifecycle.
  ContentionTracker tracker(config, [] { return 0.3; });
  tracker.Start();

  const auto deadline = std::chrono::steady_clock::now() + seconds(10);
  while (tracker.probes() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  tracker.Stop();
  EXPECT_GE(tracker.probes(), 3u);

  // After Stop, no further probes happen.
  const uint64_t frozen = tracker.probes();
  std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(tracker.probes(), frozen);
  EXPECT_TRUE(tracker.Current().has_value);
}

// Regression: Start and Stop used to race — Stop could read/join thread_
// while a concurrent Start was assigning it (a TSan-visible data race), and
// a Stop racing a Start could leave the new loop running with stop_ reset.
// Start/Stop now serialize on a mutex and a generation counter supersedes
// older loops. Run under MSCM_SANITIZE=thread to verify.
TEST(ContentionTrackerTest, ConcurrentStartStopIsSafe) {
  ContentionTrackerConfig config;
  config.site = "race";
  config.ttl = seconds(5);
  config.probe_interval = std::chrono::microseconds(200);
  ContentionTracker tracker(config, [] { return 0.3; });

  constexpr int kIters = 200;
  std::thread starter([&] {
    for (int i = 0; i < kIters; ++i) tracker.Start();
  });
  std::thread stopper([&] {
    for (int i = 0; i < kIters; ++i) tracker.Stop();
  });
  starter.join();
  stopper.join();

  // Whatever interleaving happened, a final Stop leaves no loop running.
  tracker.Stop();
  const uint64_t frozen = tracker.probes() + tracker.failures();
  std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(tracker.probes() + tracker.failures(), frozen);
}

TEST(ContentionTrackerTest, RestartAfterStopResumesProbing) {
  ContentionTrackerConfig config;
  config.site = "restart";
  config.ttl = seconds(5);
  config.probe_interval = milliseconds(1);
  ContentionTracker tracker(config, [] { return 0.3; });

  tracker.Start();
  const auto deadline = std::chrono::steady_clock::now() + seconds(10);
  while (tracker.probes() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  tracker.Stop();
  const uint64_t after_first_run = tracker.probes();
  EXPECT_GE(after_first_run, 1u);

  tracker.Start();
  while (tracker.probes() < after_first_run + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  tracker.Stop();
  EXPECT_GT(tracker.probes(), after_first_run);
}

// Regression: a probe that started earlier but finished later used to
// overwrite the fresher reading (and its timestamp) published by a faster,
// newer probe. Readings now carry the probe-*start* sequence and publication
// is skipped when the cached reading is newer.
TEST(ContentionTrackerTest, SlowProbeDoesNotClobberNewerReading) {
  FakeClock clock;
  std::atomic<int> calls{0};
  std::atomic<bool> release_slow{false};
  ContentionTracker tracker(ManualConfig(&clock, seconds(60)),
                            [&]() -> double {
                              if (calls.fetch_add(1) == 0) {
                                // First (slow) probe: measured under the old
                                // environment, delivered late.
                                while (!release_slow.load()) {
                                  std::this_thread::yield();
                                }
                                return 0.1;
                              }
                              return 0.9;
                            });

  std::thread slow([&] { EXPECT_TRUE(tracker.ProbeOnce()); });
  while (calls.load() < 1) std::this_thread::yield();

  // A newer, faster probe completes and publishes first.
  ASSERT_TRUE(tracker.ProbeOnce());
  EXPECT_DOUBLE_EQ(tracker.Current().probing_cost, 0.9);
  EXPECT_EQ(tracker.Current().sequence, 2u);

  clock.Advance(seconds(3));  // age accrues on the published reading

  release_slow.store(true);
  slow.join();

  // The late result was discarded: value, sequence and age all belong to
  // the newer probe.
  const ProbeReading reading = tracker.Current();
  EXPECT_DOUBLE_EQ(reading.probing_cost, 0.9);
  EXPECT_EQ(reading.sequence, 2u);
  EXPECT_GE(reading.age, seconds(3));
  EXPECT_EQ(tracker.probes(), 2u);
  EXPECT_EQ(tracker.discarded(), 1u);
}

TEST(ContentionTrackerTest, AdaptIntervalHalvesOnFlipGrowsWhenStable) {
  using std::chrono::nanoseconds;
  const nanoseconds min(1000), max(16000);

  // A state flip halves the interval, clamped at min.
  EXPECT_EQ(ContentionTracker::AdaptInterval(nanoseconds(8000), true, min, max),
            nanoseconds(4000));
  EXPECT_EQ(ContentionTracker::AdaptInterval(nanoseconds(1500), true, min, max),
            min);
  EXPECT_EQ(ContentionTracker::AdaptInterval(min, true, min, max), min);

  // Stability grows it by a quarter, clamped at max.
  EXPECT_EQ(
      ContentionTracker::AdaptInterval(nanoseconds(8000), false, min, max),
      nanoseconds(10000));
  EXPECT_EQ(
      ContentionTracker::AdaptInterval(nanoseconds(15000), false, min, max),
      max);
  EXPECT_EQ(ContentionTracker::AdaptInterval(max, false, min, max), max);

  // Sustained flapping walks any interval down to min; sustained quiet walks
  // it back up to max.
  nanoseconds interval = max;
  for (int i = 0; i < 10; ++i) {
    interval = ContentionTracker::AdaptInterval(interval, true, min, max);
  }
  EXPECT_EQ(interval, min);
  for (int i = 0; i < 40; ++i) {
    interval = ContentionTracker::AdaptInterval(interval, false, min, max);
  }
  EXPECT_EQ(interval, max);
}

TEST(ContentionTrackerTest, StateVersionTracksFlipsRemapsAndStaleness) {
  FakeClock clock;
  std::atomic<double> cost{0.5};
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [&cost] { return cost.load(); });
  tracker.SetStateMapper([](double c) { return c > 1.0 ? 1 : 0; });
  EXPECT_EQ(tracker.state_version(), 0u);
  EXPECT_TRUE(std::isnan(tracker.published_probing_cost()));

  // First reading publishes a state: version moves.
  ASSERT_TRUE(tracker.ProbeOnce());
  const uint64_t after_first = tracker.state_version();
  EXPECT_GT(after_first, 0u);
  EXPECT_DOUBLE_EQ(tracker.published_probing_cost(), 0.5);

  // Same state re-probed: no version movement, cost republished.
  cost.store(0.9);
  ASSERT_TRUE(tracker.ProbeOnce());
  EXPECT_EQ(tracker.state_version(), after_first);
  EXPECT_DOUBLE_EQ(tracker.published_probing_cost(), 0.9);

  // Crossing a partition boundary bumps.
  cost.store(1.5);
  ASSERT_TRUE(tracker.ProbeOnce());
  const uint64_t after_flip = tracker.state_version();
  EXPECT_GT(after_flip, after_first);

  // A remap that changes the mapped state bumps.
  tracker.SetStateMapper([](double c) { return c > 2.0 ? 1 : 0; });
  const uint64_t after_remap = tracker.state_version();
  EXPECT_GT(after_remap, after_flip);

  // Crossing the TTL bumps when the staleness is evaluated…
  clock.Advance(seconds(6));
  EXPECT_TRUE(tracker.Current().stale);
  const uint64_t after_stale = tracker.state_version();
  EXPECT_GT(after_stale, after_remap);
  // …and only once per transition.
  EXPECT_TRUE(tracker.Current().stale);
  EXPECT_EQ(tracker.state_version(), after_stale);

  // A successful same-state probe restores freshness without a bump.
  ASSERT_TRUE(tracker.ProbeOnce());
  EXPECT_FALSE(tracker.Current().stale);
  EXPECT_EQ(tracker.state_version(), after_stale);
}

// The reading is a seqlock: a reader must never mix fields of two
// publications. The k-th probe publishes cost k under sequence k and the
// mapper sends cost k to state k, so any torn read shows as a mismatch.
TEST(ContentionTrackerTest, SeqlockReadersNeverSeeATornReading) {
  FakeClock clock;
  std::atomic<int> probes{0};
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)), [&probes] {
    return static_cast<double>(probes.fetch_add(1) + 1);
  });
  tracker.SetStateMapper([](double c) { return static_cast<int>(c); });
  ASSERT_TRUE(tracker.ProbeOnce());

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const ProbeReading r = tracker.Current();
        if (r.state != static_cast<int>(r.probing_cost) ||
            r.sequence != static_cast<uint64_t>(r.probing_cost)) {
          torn.store(true);
          return;
        }
        reads.fetch_add(1);
      }
    });
  }
  // Keep publishing until the readers, however late they were scheduled,
  // have raced plenty of publications.
  uint64_t published = 1;
  while (!torn.load() && (published < 20000 || reads.load() < 2000)) {
    if (!tracker.ProbeOnce()) {
      ADD_FAILURE() << "probe " << published + 1 << " failed";
      break;
    }
    ++published;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GE(reads.load(), 2000u);
  EXPECT_EQ(tracker.Current().sequence, published);
}

// Many readers see the same TTL crossing; the fresh->stale flip is one
// compare-and-swap, so the version moves exactly once.
TEST(ContentionTrackerTest, ConcurrentReadersFoldOneTtlCrossingOnce) {
  FakeClock clock;
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [] { return 0.7; });
  ASSERT_TRUE(tracker.ProbeOnce());
  ASSERT_FALSE(tracker.Current().stale);
  const uint64_t fresh_version = tracker.state_version();

  clock.Advance(seconds(6));
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 1000; ++i) ASSERT_TRUE(tracker.Current().stale);
    });
  }
  go.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(tracker.state_version(), fresh_version + 1);
}

TEST(ContentionTrackerTest, StateChangeCallbackFiresOnTransitionsOnly) {
  FakeClock clock;
  std::atomic<double> cost{0.5};
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [&cost] { return cost.load(); });
  tracker.SetStateMapper([](double c) { return c > 1.0 ? 1 : 0; });
  std::vector<std::pair<int, int>> transitions;
  tracker.SetStateChangeCallback([&transitions](int old_state, int new_state) {
    transitions.emplace_back(old_state, new_state);
  });

  ASSERT_TRUE(tracker.ProbeOnce());  // first reading: -1 → 0
  ASSERT_TRUE(tracker.ProbeOnce());  // same state: no callback
  cost.store(1.5);
  ASSERT_TRUE(tracker.ProbeOnce());  // flip: 0 → 1
  tracker.SetStateMapper([](double c) { return c > 2.0 ? 1 : 0; });  // 1 → 0

  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], std::make_pair(-1, 0));
  EXPECT_EQ(transitions[1], std::make_pair(0, 1));
  EXPECT_EQ(transitions[2], std::make_pair(1, 0));
}

// Regression: the failure check used to be `isnan(cost) || cost < 0`, which
// let +inf through — bit-cast into the published cost it was then served as
// a real probing cost (and mapped into the top contention state) forever.
TEST(ContentionTrackerTest, NonFiniteProbeCostsAreRejected) {
  FakeClock clock;
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), std::nan("")}) {
    ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                              [bad] { return bad; });
    EXPECT_FALSE(tracker.ProbeOnce());
    EXPECT_EQ(tracker.failures(), 1u);
    EXPECT_FALSE(tracker.Current().has_value);
    EXPECT_TRUE(std::isnan(tracker.published_probing_cost()));
  }
}

// Regression: an exception thrown by the probe callable used to escape
// ProbeOnce — on the background loop that unwound (and with no handler,
// terminated) the prober thread, silently freezing the site's reading.
TEST(ContentionTrackerTest, ThrowingProbeIsAFailureNotADeadProber) {
  FakeClock clock;
  std::atomic<bool> fail{false};
  ContentionTracker tracker(ManualConfig(&clock, seconds(5)),
                            [&fail]() -> double {
                              if (fail.load()) throw std::runtime_error("dead");
                              return 0.7;
                            });
  ASSERT_TRUE(tracker.ProbeOnce());
  fail.store(true);
  EXPECT_FALSE(tracker.ProbeOnce());
  EXPECT_EQ(tracker.failures(), 1u);
  EXPECT_DOUBLE_EQ(tracker.Current().probing_cost, 0.7);  // reading kept
}

TEST(ContentionTrackerTest, BackgroundLoopSurvivesThrowingProbe) {
  ContentionTrackerConfig config;
  config.site = "flaky";
  config.ttl = seconds(5);
  config.probe_interval = milliseconds(1);
  std::atomic<int> calls{0};
  ContentionTracker tracker(config, [&calls]() -> double {
    if (calls.fetch_add(1) % 2 == 0) throw std::runtime_error("flaky");
    return 0.7;
  });
  tracker.Start();
  const auto deadline = std::chrono::steady_clock::now() + seconds(10);
  // The loop must keep alternating failure/success: a dead prober thread
  // would freeze both counters after the first throw.
  while ((tracker.probes() < 3 || tracker.failures() < 3) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  tracker.Stop();
  EXPECT_GE(tracker.probes(), 3u);
  EXPECT_GE(tracker.failures(), 3u);
  EXPECT_DOUBLE_EQ(tracker.Current().probing_cost, 0.7);
}

TEST(ContentionTrackerTest, ProbeTimeoutAbandonsHungProbe) {
  FakeClock clock;
  ContentionTrackerConfig config = ManualConfig(&clock, seconds(5));
  config.probe_timeout = milliseconds(30);

  std::mutex hang_mutex;
  std::condition_variable hang_cv;
  bool release = false;
  ContentionTracker tracker(config, [&]() -> double {
    std::unique_lock<std::mutex> lock(hang_mutex);
    hang_cv.wait(lock, [&] { return release; });
    return 0.9;
  });

  // The hung probe is abandoned at the deadline: failure, timeout, no
  // publication — and ProbeOnce returned instead of blocking forever.
  EXPECT_FALSE(tracker.ProbeOnce());
  EXPECT_EQ(tracker.failures(), 1u);
  EXPECT_EQ(tracker.timeouts(), 1u);
  EXPECT_FALSE(tracker.Current().has_value);

  // Release the stranded probe thread; its late result must not publish
  // (the sequence ticket was burned at abandonment).
  {
    std::lock_guard<std::mutex> lock(hang_mutex);
    release = true;
    hang_cv.notify_all();
  }
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(tracker.Current().has_value);
}

// A probe that never returns must not wedge Stop() or the destructor: the
// deadline abandons it and all communication goes through heap-shared state
// the tracker never waits on.
TEST(ContentionTrackerTest, PermanentlyHungProbeNeverWedgesStop) {
  std::mutex hang_mutex;
  std::condition_variable hang_cv;
  bool release = false;
  {
    ContentionTrackerConfig config;
    config.site = "tarpit";
    config.ttl = seconds(5);
    config.probe_interval = milliseconds(1);
    config.probe_timeout = milliseconds(5);
    ContentionTracker tracker(config, [&]() -> double {
      std::unique_lock<std::mutex> lock(hang_mutex);
      hang_cv.wait(lock, [&] { return release; });
      return 0.9;
    });
    tracker.Start();
    const auto deadline = std::chrono::steady_clock::now() + seconds(10);
    while (tracker.timeouts() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_GE(tracker.timeouts(), 2u);
    tracker.Stop();  // must return despite probes still blocked
  }
  // Tracker destroyed; release the stranded probe threads so they exit
  // before the test (and its captured locals) go away.
  {
    std::lock_guard<std::mutex> lock(hang_mutex);
    release = true;
    hang_cv.notify_all();
  }
  std::this_thread::sleep_for(milliseconds(20));
}

TEST(ContentionTrackerTest, FailedProbesRetryWithBackoffBeforeInterval) {
  ContentionTrackerConfig config;
  config.site = "retry";
  config.ttl = seconds(5);
  // The regular cadence is far too slow to accumulate failures in test
  // time: only the failure-retry backoff can drive the loop this fast.
  config.probe_interval = seconds(30);
  config.failure_retry = milliseconds(1);
  ContentionTracker tracker(config, []() -> double { return -1.0; });
  tracker.Start();
  const auto deadline = std::chrono::steady_clock::now() + seconds(10);
  while (tracker.failures() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  tracker.Stop();
  EXPECT_GE(tracker.failures(), 4u);
}

TEST(ContentionTrackerTest, BreakerOpensSuppressesProbingAndRecovers) {
  FakeClock clock;
  ContentionTrackerConfig config = ManualConfig(&clock, seconds(60));
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration = seconds(5);
  std::atomic<bool> fail{false};
  ContentionTracker tracker(
      config, [&fail] { return fail.load() ? std::nan("") : 0.7; });
  std::atomic<int> callbacks{0};
  tracker.SetStateChangeCallback(
      [&callbacks](int, int) { callbacks.fetch_add(1); });

  ASSERT_TRUE(tracker.ProbeOnce());  // healthy reading published
  const uint64_t healthy_version = tracker.state_version();
  const int callbacks_after_first = callbacks.load();

  // Two consecutive failures open the breaker: the tracker is degraded, the
  // version moved (cached estimates must retire), the reading is kept.
  fail.store(true);
  EXPECT_FALSE(tracker.ProbeOnce());
  EXPECT_FALSE(tracker.degraded());
  EXPECT_FALSE(tracker.ProbeOnce());
  EXPECT_TRUE(tracker.degraded());
  EXPECT_EQ(tracker.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_GT(tracker.state_version(), healthy_version);
  EXPECT_GT(callbacks.load(), callbacks_after_first);
  ProbeReading reading = tracker.Current();
  EXPECT_TRUE(reading.has_value);
  EXPECT_TRUE(reading.degraded);
  EXPECT_DOUBLE_EQ(reading.probing_cost, 0.7);

  // While open, probes are suppressed — the probe callable never runs.
  EXPECT_FALSE(tracker.ProbeOnce());
  EXPECT_EQ(tracker.suppressed(), 1u);
  EXPECT_EQ(tracker.failures(), 2u);  // unchanged: nothing actually probed

  // After the cooling-off period, the half-open trial runs and a success
  // closes the breaker: service restored, degraded flag cleared, version
  // bumped again so degraded-free responses replace the old cached ones.
  clock.Advance(seconds(6));
  fail.store(false);
  const uint64_t degraded_version = tracker.state_version();
  EXPECT_TRUE(tracker.ProbeOnce());
  EXPECT_FALSE(tracker.degraded());
  EXPECT_EQ(tracker.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_GT(tracker.state_version(), degraded_version);
  EXPECT_FALSE(tracker.Current().degraded);
}

TEST(ContentionTrackerTest, FailedHalfOpenTrialReopensBreaker) {
  FakeClock clock;
  ContentionTrackerConfig config = ManualConfig(&clock, seconds(60));
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration = seconds(5);
  ContentionTracker tracker(config, [] { return std::nan(""); });

  EXPECT_FALSE(tracker.ProbeOnce());  // opens
  EXPECT_TRUE(tracker.degraded());
  clock.Advance(seconds(6));
  EXPECT_FALSE(tracker.ProbeOnce());  // half-open trial runs and fails
  EXPECT_EQ(tracker.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(tracker.failures(), 2u);
  EXPECT_EQ(tracker.breaker().opens(), 2u);
}

TEST(ContentionTrackerTest, BackgroundAdaptiveCadenceBacksOffWhenStable) {
  ContentionTrackerConfig config;
  config.site = "adaptive";
  config.ttl = seconds(5);
  config.probe_interval = milliseconds(1);
  config.min_probe_interval = milliseconds(1);
  config.max_probe_interval = milliseconds(64);
  ContentionTracker tracker(config, [] { return 0.3; });
  EXPECT_EQ(tracker.current_probe_interval(), milliseconds(1));

  tracker.Start();
  // A constant probe value is maximally stable: the loop should back its
  // cadence off beyond the starting interval within a few probes.
  const auto deadline = std::chrono::steady_clock::now() + seconds(10);
  while (tracker.current_probe_interval() <= milliseconds(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  tracker.Stop();
  EXPECT_GT(tracker.current_probe_interval(), milliseconds(1));
  EXPECT_LE(tracker.current_probe_interval(), milliseconds(64));
}

}  // namespace
}  // namespace mscm::runtime
