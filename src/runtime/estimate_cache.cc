#include "runtime/estimate_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "runtime/rmw_probe.h"

namespace mscm::runtime {

namespace {

// Slots a key can land in within its shard: enough to ride out a few hash
// collisions, small enough that a miss stays a handful of compares.
constexpr size_t kProbeWindow = 4;

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;  // FNV-1a prime
  return h;
}

uint64_t QuantizeFeature(double f, double quantum) {
  if (quantum > 0.0) {
    return static_cast<uint64_t>(
        static_cast<int64_t>(std::llround(f / quantum)));
  }
  return std::bit_cast<uint64_t>(f);
}

// Finalizer (murmur3 fmix64): FNV-1a's closing multiply leaves the low bits
// poorly diffused, and the slot index comes from the low bits — without this,
// near-identical feature vectors cluster into the same slots and thrash.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

EstimateCache::EstimateCache(const EstimateCacheConfig& config) {
  if (config.capacity_per_thread == 0) return;
  slots_per_thread_ = NextPow2(std::max<size_t>(1, config.capacity_per_thread));
  slot_mask_ = slots_per_thread_ - 1;
  feature_quantum_ = config.feature_quantum;
}

EstimateCache::~EstimateCache() {
  for (auto& shard : shards_) delete shard.load(std::memory_order_acquire);
}

EstimateCache::Shard* EstimateCache::LocalShard(bool create) {
  const int slot = ThreadRegistry::CurrentSlot();
  if (slot < 0) return nullptr;  // overflow threads bypass the cache
  Shard* shard = shards_[slot].load(std::memory_order_acquire);
  if (shard == nullptr && create) {
    shard = new Shard(slots_per_thread_);
    shards_[slot].store(shard, std::memory_order_release);
  }
  return shard;
}

uint64_t EstimateCache::Hash(const std::string& site, int class_id,
                             const std::vector<double>& features) const {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = Mix(h, std::hash<std::string>{}(site));
  h = Mix(h, static_cast<uint64_t>(class_id));
  for (double f : features) h = Mix(h, QuantizeFeature(f, feature_quantum_));
  return Avalanche(h);
}

bool EstimateCache::KeyMatches(const Slot& slot, uint64_t hash,
                               const std::string& site, int class_id,
                               const std::vector<double>& features) const {
  if (!slot.occupied || slot.hash != hash || slot.class_id != class_id ||
      slot.site != site || slot.feature_bits.size() != features.size()) {
    return false;
  }
  for (size_t j = 0; j < features.size(); ++j) {
    const uint64_t bits = QuantizeFeature(features[j], feature_quantum_);
    if (slot.feature_bits[j] != bits) return false;
  }
  return true;
}

bool EstimateCache::Lookup(uint64_t hash, const std::string& site,
                           int class_id, const std::vector<double>& features,
                           uint64_t epoch, EstimateResponse* response) {
  if (!enabled()) return false;
  Shard* shard = LocalShard(/*create=*/false);
  if (shard == nullptr) return false;
  for (size_t i = 0; i < kProbeWindow; ++i) {
    Slot& slot = (*shard)[(hash + i) & slot_mask_];
    if (!KeyMatches(slot, hash, site, class_id, features)) continue;
    // Key matches — validity: the lazy invalidation versions, the catalog
    // epoch, then the lock-free probe against the cell. All loads; the only
    // RMW below is on the retire path (invalidation events, never the
    // steady-state hit).
    const SiteCell& cell = *slot.cell;
    const bool cell_dead =
        cell.site_version.load(std::memory_order_acquire) !=
            slot.site_version ||
        cell.state_versions[slot.state_slot].load(std::memory_order_acquire) !=
            slot.state_slot_version;
    const double cost =
        std::bit_cast<double>(cell.cost_bits.load(std::memory_order_acquire));
    if (cell_dead || slot.epoch != epoch ||
        cell.state_version.load(std::memory_order_acquire) !=
            slot.state_version ||
        !(cost > slot.state_lo && cost <= slot.state_hi)) {
      if (cell_dead || slot.epoch == epoch) {
        // Dead for good (invalidated, or state moved under the current
        // catalog): retire now. An entry that merely belongs to an older
        // catalog epoch is left for natural clobbering — a concurrent
        // reader of an older epoch may still hit it.
        slot.occupied = false;
        RmwProbe::Count();  // invalidation counter
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      continue;
    }
    *response = slot.response;
    return true;
  }
  return false;
}

void EstimateCache::Insert(uint64_t hash, const std::string& site,
                           int class_id, const std::vector<double>& features,
                           uint64_t epoch, const InsertContext& context,
                           const EstimateResponse& response) {
  if (!enabled() || context.cell == nullptr) return;
  Shard* shard = LocalShard(/*create=*/true);
  if (shard == nullptr) return;

  // Reuse the same key's slot or a free one in the window; otherwise clobber
  // the key's home slot (direct-mapped replacement — no LRU bookkeeping on
  // the hot path).
  Slot* victim = &(*shard)[hash & slot_mask_];
  for (size_t i = 0; i < kProbeWindow; ++i) {
    Slot& slot = (*shard)[(hash + i) & slot_mask_];
    if (!slot.occupied || KeyMatches(slot, hash, site, class_id, features)) {
      victim = &slot;
      break;
    }
  }
  // Assigned field by field so the victim's string and feature buffers are
  // reused rather than reallocated.
  Slot& slot = *victim;
  const SiteCell& cell = *context.cell;
  slot.occupied = true;
  slot.class_id = class_id;
  slot.hash = hash;
  slot.epoch = epoch;
  slot.state_version = context.state_version;
  slot.state_lo = context.state_lo;
  slot.state_hi = context.state_hi;
  slot.cell = &cell;
  slot.site_version = cell.site_version.load(std::memory_order_acquire);
  slot.state_slot = SiteCell::StateSlot(response.state);
  slot.state_slot_version =
      cell.state_versions[slot.state_slot].load(std::memory_order_acquire);
  slot.site = site;
  slot.feature_bits.resize(features.size());
  for (size_t j = 0; j < features.size(); ++j) {
    slot.feature_bits[j] = QuantizeFeature(features[j], feature_quantum_);
  }
  slot.response = response;
}

void EstimateCache::InvalidateSite(SiteCell& cell) {
  cell.site_version.fetch_add(1, std::memory_order_release);
}

void EstimateCache::InvalidateSiteState(SiteCell& cell, int state) {
  cell.state_versions[SiteCell::StateSlot(state)].fetch_add(
      1, std::memory_order_release);
}

}  // namespace mscm::runtime
