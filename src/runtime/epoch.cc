#include "runtime/epoch.h"

#include <thread>

namespace mscm::runtime {
namespace {

// Nesting depth of EpochGuards on this thread; only the outermost pins.
thread_local int g_guard_depth = 0;

}  // namespace

EpochDomain::EpochDomain() = default;

EpochDomain& EpochDomain::Global() {
  static EpochDomain* domain = new EpochDomain();  // leaked, see header
  return *domain;
}

void EpochDomain::Retire(std::shared_ptr<const void> keepalive) {
  // Stamp = epoch value after the increment: readers pinned at >= stamp
  // observed the increment (seq_cst) and therefore the publisher's newer
  // pointer; readers pinned below it may still hold the old one.
  const uint64_t stamp =
      global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    retired_.push_back(Retired{stamp, std::move(keepalive)});
  }
  Reclaim(false);
}

void EpochDomain::Reclaim(bool wait_for_readers) {
  // Drain target: when waiting, this call is responsible for every record
  // already stamped at entry; records retired concurrently after that
  // belong to their own publishers' later Reclaims.
  const uint64_t target =
      wait_for_readers ? global_epoch_.load(std::memory_order_seq_cst) : 0;
  for (;;) {
    // Detach the retired list FIRST. Every record in the snapshot was
    // stamped (epoch fetch_add) and pushed before we acquired
    // retired_mutex_, so the reader scan below is ordered after each
    // candidate's stamp: a reader still holding a candidate's old pointer
    // pinned with e < stamp, and that pin store precedes the stamp — hence
    // precedes our scan loads — in the seq_cst order, so the scan sees it
    // and the record stays blocked. Scanning before snapshotting (the old
    // order) let a record retired by a concurrent publisher be freed
    // against a scan that predated — and missed — its readers.
    std::vector<Retired> candidates;
    {
      std::lock_guard<std::mutex> lock(retired_mutex_);
      candidates.swap(retired_);
    }
    if (candidates.empty() && !wait_for_readers) return;

    uint64_t min_pinned = ~uint64_t{0};
    for (const ReaderSlot& slot : slots_) {
      const uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e != 0 && e < min_pinned) min_pinned = e;
    }

    // Overflow readers have no slot; an exclusive acquisition proves none
    // that predates the snapshot is in flight. Normally just try: if one is
    // active, a later Retire/Reclaim will catch up. When draining we must
    // wait them out.
    RmwProbe::Count();
    bool overflow_clear = true;
    if (wait_for_readers) {
      overflow_readers_.lock();
      overflow_readers_.unlock();
    } else if (overflow_readers_.try_lock()) {
      overflow_readers_.unlock();
    } else {
      overflow_clear = false;
    }

    std::vector<Retired> free_now;
    std::vector<Retired> blocked;
    for (Retired& record : candidates) {
      if (overflow_clear && record.stamp <= min_pinned) {
        free_now.push_back(std::move(record));
      } else {
        blocked.push_back(std::move(record));
      }
    }

    // Draining is done only once nothing stamped at-or-before the target is
    // still blocked — slotted readers included, not just overflow ones.
    bool drained = true;
    if (wait_for_readers) {
      for (const Retired& record : blocked) {
        if (record.stamp <= target) {
          drained = false;
          break;
        }
      }
    }
    if (!blocked.empty()) {
      std::lock_guard<std::mutex> lock(retired_mutex_);
      for (Retired& record : blocked) retired_.push_back(std::move(record));
    }
    // Keepalive destructors run outside every domain lock: they may tear
    // down whole catalogs or read views (which join prober threads).
    free_now.clear();
    if (!wait_for_readers || drained) return;
    std::this_thread::yield();
  }
}

size_t EpochDomain::RetiredCount() const {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  return retired_.size();
}

EpochGuard::EpochGuard()
    : slot_(ThreadRegistry::CurrentSlot()), outermost_(++g_guard_depth == 1) {
  if (!outermost_) return;
  EpochDomain& domain = EpochDomain::Global();
  if (slot_ >= 0) {
    const uint64_t e = domain.global_epoch_.load(std::memory_order_seq_cst);
    domain.slots_[slot_].epoch.store(e, std::memory_order_seq_cst);
  } else {
    RmwProbe::Count();
    domain.overflow_readers_.lock_shared();
  }
}

EpochGuard::~EpochGuard() {
  if (--g_guard_depth > 0 || !outermost_) return;
  EpochDomain& domain = EpochDomain::Global();
  if (slot_ >= 0) {
    domain.slots_[slot_].epoch.store(0, std::memory_order_seq_cst);
  } else {
    domain.overflow_readers_.unlock_shared();
  }
}

}  // namespace mscm::runtime
