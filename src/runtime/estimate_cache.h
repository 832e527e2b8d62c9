// State-keyed memo of estimate responses (paper §3.1 made operational): a
// cost estimate is a pure function of (model, features, contention state) —
// the probing cost enters the regression only through the qualitative
// variable, i.e. through StateOf(probing_cost). So a response stays exactly
// correct for as long as (a) the catalog that priced it is still the
// published one and (b) the site's probing cost still maps to the same state
// under that model. The cache keys on (site, class, the features' exact bit
// patterns, catalog epoch) and validates (b) per hit with two lock-free
// loads from the site's SiteCell (where its ContentionTracker publishes):
// the state version, and the published probing cost checked against the
// state's own partition interval. No clock reads, no snapshot acquisition,
// no model walk on a hit.
//
// Concurrency: the table is sharded per thread — each live thread
// (ThreadRegistry slot) owns a private slot array that only it reads or
// writes, so lookups and inserts take no lock and perform zero shared
// atomic RMWs. Threads warm their own working sets (an entry inserted by
// one thread is not visible to another), which is the right trade for a
// serving stack where each worker sees the full key distribution.
// Threads beyond the registry capacity bypass the cache entirely.
//
// Invalidation is lazy, via the site's SiteCell: every entry records the
// cell's invalidation versions at insert time (the whole site's, and its
// response state's), and InvalidateSite/InvalidateSiteState bump them (never
// touching another thread's shard). An entry whose versions, catalog epoch,
// or tracker validity probe mismatch is retired by its owning thread on the
// next lookup that meets it. Entries hold a plain pointer to the cell, not a
// tracker: the estimation service owns one cell per site name for its whole
// lifetime, and a tracker that replaces another publishes into the same
// cell and bumps its version, so nothing an entry points at is ever freed
// before the cache.

#ifndef MSCM_RUNTIME_ESTIMATE_CACHE_H_
#define MSCM_RUNTIME_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/contention_tracker.h"
#include "runtime/estimate_types.h"
#include "runtime/thread_registry.h"

namespace mscm::runtime {

struct EstimateCacheConfig {
  // Cached responses *per estimate thread* (rounded up to a power of two);
  // 0 disables the cache (every lookup misses, inserts are dropped). Total
  // footprint is live-estimate-threads × this, since each thread owns a
  // private shard. Deliberately NOT named `capacity`: that knob meant
  // *total* responses under the old spinlocked-shard design, and a silent
  // reinterpretation would have multiplied existing configs' memory by the
  // thread count — renaming makes stale configs fail to compile instead.
  size_t capacity_per_thread = 0;
};

class EstimateCache {
 public:
  explicit EstimateCache(const EstimateCacheConfig& config);
  ~EstimateCache();

  EstimateCache(const EstimateCache&) = delete;
  EstimateCache& operator=(const EstimateCache&) = delete;

  bool enabled() const { return slots_per_thread_ > 0; }

  // Everything Insert needs beyond the key and the response to make the
  // entry self-validating on later lookups.
  struct InsertContext {
    // The site's published reading and invalidation versions.
    const SiteCell* cell = nullptr;
    // Cell state version loaded *before* the reading that produced the
    // response was taken — if anything moved in between, the entry is born
    // invalid rather than wrongly valid.
    uint64_t state_version = 0;
    // The response state's partition interval (lo, hi] under the model that
    // priced it (±infinity at the ends). The entry stays value-correct while
    // the published probing cost lies inside it.
    double state_lo = 0.0;
    double state_hi = 0.0;
  };

  // The key hash Lookup and Insert take, so a miss inserts under the hash
  // its lookup already computed.
  uint64_t Hash(const std::string& site, int class_id,
                const std::vector<double>& features) const;

  // Fills `response` and returns true when a currently valid entry matches.
  // Invalid entries encountered are retired in passing. Touches only the
  // calling thread's shard: zero locks, zero shared atomic RMWs.
  bool Lookup(uint64_t hash, const std::string& site, int class_id,
              const std::vector<double>& features, uint64_t epoch,
              EstimateResponse* response);

  // Stores a response in the calling thread's shard, reusing the victim
  // slot's buffers; overwrites the oldest colliding slot when full.
  void Insert(uint64_t hash, const std::string& site, int class_id,
              const std::vector<double>& features, uint64_t epoch,
              const InsertContext& context, const EstimateResponse& response);

  // Marks every entry for the cell's site invalid; each owning thread
  // retires its dead entries on its next lookups.
  static void InvalidateSite(SiteCell& cell);

  // Marks only the entries priced in `state` for the cell's site invalid —
  // the adaptation swap path, where one state's coefficient row changed and
  // every other state's row is bit-identical (entries for those states stay
  // value-correct and survive).
  static void InvalidateSiteState(SiteCell& cell, int state);

  // Entries retired after being invalidated (by a version bump, a catalog
  // epoch they can no longer match, or a failed tracker validity probe).
  // Counted when the owning thread retires the entry, so this trails the
  // Invalidate* calls until lookups touch the dead slots.
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    bool occupied = false;
    int class_id = 0;
    uint64_t hash = 0;
    uint64_t epoch = 0;
    uint64_t state_version = 0;
    double state_lo = 0.0;
    double state_hi = 0.0;
    // The site's cell and its invalidation versions at insert: the whole
    // site's and the response state's slot.
    const SiteCell* cell = nullptr;
    uint64_t site_version = 0;
    int state_slot = 0;
    uint64_t state_slot_version = 0;
    std::string site;
    std::vector<uint64_t> feature_bits;
    EstimateResponse response;
  };
  using Shard = std::vector<Slot>;

  // The calling thread's shard, lazily created (nullptr when `create` is
  // false and none exists yet, or the thread has no registry slot).
  Shard* LocalShard(bool create);

  bool KeyMatches(const Slot& slot, uint64_t hash, const std::string& site,
                  int class_id, const std::vector<double>& features) const;

  size_t slots_per_thread_ = 0;
  uint64_t slot_mask_ = 0;
  // Owner-created (release store), freed only by the destructor.
  std::atomic<Shard*> shards_[ThreadRegistry::kMaxSlots] = {};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_ESTIMATE_CACHE_H_
