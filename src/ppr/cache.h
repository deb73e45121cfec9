#ifndef EMIGRE_PPR_CACHE_H_
#define EMIGRE_PPR_CACHE_H_

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "ppr/kernels.h"
#include "ppr/options.h"
#include "ppr/workspace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace emigre::ppr {

/// \brief Thread-safe LRU cache of Reverse-Local-Push estimate vectors.
///
/// EMiGRe's phases repeatedly need PPR(·, t) for the same handful of
/// targets: the search space computes it for `rec` and `WNI`, the
/// Exhaustive Comparison for every item in the recommendation list, and the
/// evaluation harness runs eight methods over the *same* scenario. Over an
/// immutable graph those vectors are identical across calls; this cache
/// shares them.
///
/// Entries are **sparse** (`SparseVector`, dirty-list compaction of the
/// push workspace): a reverse push touches O(Σ pushes) sources, so a dense
/// |V|-sized vector per target wastes memory linear in graph size. Resident
/// bytes are tracked in the `ppr.cache.bytes` gauge. Entries are
/// `shared_ptr<const SparseVector>` so a caller may keep using one after it
/// is evicted. The cache must only be used while the underlying graph is
/// unchanged — the owner (e.g. `explain::Emigre`) guarantees that by
/// construction.
///
/// The push itself is `ReversePushKernel` on a reusable `PushWorkspace`
/// drawn from an internal pool (one in flight per concurrently-missing
/// thread), so repeated misses do not re-zero O(|V|) state.
template <graph::GraphLike G>
class ReversePushCache {
 public:
  /// `capacity` bounds resident vectors.
  ReversePushCache(const G& g, const PprOptions& opts, size_t capacity = 64)
      : g_(&g), opts_(opts), capacity_(capacity > 0 ? capacity : 1) {}

  /// The PPR(·, target) estimate vector, computed on first use.
  ///
  /// Accounting: every Get is exactly one of hit / miss / race, so
  /// `hits() + misses() + races() == ` total Gets. A miss is counted by the
  /// thread that actually installs the vector (one logical fill = one
  /// miss); a concurrent Get that recomputed the same target but lost the
  /// install race counts as a race, not a second miss, and its duplicate
  /// push is discarded in favor of the installed vector.
  std::shared_ptr<const SparseVector> Get(graph::NodeId target) {
    {
      util::MutexLock lock(&mutex_);
      auto it = index_.find(target);
      if (it != index_.end()) {
        // Refresh LRU position.
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        ++hits_;
        EMIGRE_COUNTER("ppr.cache.hits").Increment();
        return it->second.vector;
      }
    }
    // Compute outside the lock: pushes can be slow and independent targets
    // should not serialize. Concurrent Gets for the same target may both
    // reach here and duplicate the push; the install below resolves that.
    std::shared_ptr<const SparseVector> vector = Compute(target);
    util::MutexLock lock(&mutex_);
    auto it = index_.find(target);
    if (it != index_.end()) {
      // Lost the install race: another thread filled this target while we
      // were pushing. Reuse its vector (first writer wins).
      ++races_;
      EMIGRE_COUNTER("ppr.cache.race").Increment();
      return it->second.vector;
    }
    ++misses_;
    EMIGRE_COUNTER("ppr.cache.misses").Increment();
    InstallLocked(target, vector);
    EMIGRE_GAUGE("ppr.cache.bytes").Set(static_cast<double>(bytes_));
    return vector;
  }

  /// Diagnostics.
  size_t hits() const {
    util::MutexLock lock(&mutex_);
    return hits_;
  }
  size_t misses() const {
    util::MutexLock lock(&mutex_);
    return misses_;
  }
  /// Gets that recomputed a target another thread installed first.
  size_t races() const {
    util::MutexLock lock(&mutex_);
    return races_;
  }
  size_t size() const {
    util::MutexLock lock(&mutex_);
    return index_.size();
  }
  /// Heap bytes held by the resident sparse vectors.
  size_t bytes() const {
    util::MutexLock lock(&mutex_);
    return bytes_;
  }

  /// Drops all entries (e.g. after the owner mutated the graph).
  void Clear() {
    util::MutexLock lock(&mutex_);
    index_.clear();
    lru_.clear();
    bytes_ = 0;
    EMIGRE_GAUGE("ppr.cache.bytes").Set(0.0);
  }

 private:
  struct Entry {
    std::shared_ptr<const SparseVector> vector;
    std::list<graph::NodeId>::iterator lru_it;
    size_t bytes = 0;
  };

  /// Inserts `vector` under `target` and maintains LRU order, byte
  /// accounting, and capacity eviction (caller has verified the target is
  /// absent). The lock requirement is part of the signature: Clang's
  /// analysis rejects any call path that does not hold `mutex_`.
  void InstallLocked(graph::NodeId target,
                     const std::shared_ptr<const SparseVector>& vector)
      REQUIRES(mutex_) {
    lru_.push_front(target);
    size_t entry_bytes = vector->MemoryBytes();
    index_.emplace(target, Entry{vector, lru_.begin(), entry_bytes});
    bytes_ += entry_bytes;
    if (index_.size() > capacity_) {
      auto evict = index_.find(lru_.back());
      bytes_ -= evict->second.bytes;
      index_.erase(evict);
      lru_.pop_back();
    }
  }

  /// Runs the reverse push and compacts the estimates. Thread-safe
  /// (workspaces come from the pool).
  std::shared_ptr<const SparseVector> Compute(graph::NodeId target) {
    EMIGRE_FAULT_POINT("ppr.cache.fill");
    std::unique_ptr<PushWorkspace> ws = AcquireWorkspace();
    ReversePushKernel(*g_, target, opts_, *ws);
    auto vector =
        std::make_shared<const SparseVector>(ws->ExportSparseEstimates());
    ReleaseWorkspace(std::move(ws));
    return vector;
  }

  std::unique_ptr<PushWorkspace> AcquireWorkspace() {
    util::MutexLock lock(&pool_mutex_);
    if (!pool_.empty()) {
      std::unique_ptr<PushWorkspace> ws = std::move(pool_.back());
      pool_.pop_back();
      return ws;
    }
    return std::make_unique<PushWorkspace>();
  }
  void ReleaseWorkspace(std::unique_ptr<PushWorkspace> ws) {
    util::MutexLock lock(&pool_mutex_);
    pool_.push_back(std::move(ws));
  }

  // Immutable after construction; read lock-free by the fill paths.
  const G* g_;            // NOLINT(guarded-by) const after ctor
  PprOptions opts_;       // NOLINT(guarded-by) const after ctor
  size_t capacity_;       // NOLINT(guarded-by) const after ctor

  mutable util::Mutex mutex_;
  std::list<graph::NodeId> lru_ GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<graph::NodeId, Entry> index_ GUARDED_BY(mutex_);
  size_t hits_ GUARDED_BY(mutex_) = 0;
  size_t misses_ GUARDED_BY(mutex_) = 0;
  size_t races_ GUARDED_BY(mutex_) = 0;
  size_t bytes_ GUARDED_BY(mutex_) = 0;

  // Workspace pool has its own lock so slow fills never serialize behind
  // index lookups. Never held together with `mutex_`.
  util::Mutex pool_mutex_;
  std::vector<std::unique_ptr<PushWorkspace>> pool_ GUARDED_BY(pool_mutex_);
};

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_CACHE_H_
