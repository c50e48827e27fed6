#ifndef TENCENTREC_TOPO_QUERY_CACHE_H_
#define TENCENTREC_TOPO_QUERY_CACHE_H_

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/profiled_mutex.h"
#include "common/status.h"

namespace tencentrec::topo {

/// The batched query tier's read cache (arXiv:2409.00400): a thread-safe,
/// short-TTL cache of per-key read results with three jobs on the
/// recommendation path:
///
///  1. **Dedupe.** A batch handed to GetBatch() is resolved per *unique*
///     key; repeated keys within one query plan cost one store read.
///  2. **Single-flight coalescing.** Concurrent identical reads from other
///     threads (hot users/items during a burst, §5.2 of the paper) find the
///     key in flight and wait for the owner's round-trip instead of issuing
///     their own — N querents, one store invocation.
///  3. **Positive *and* negative caching.** Both a value and a NotFound are
///     remembered for `ttl_micros`; misses on dead keys (deregistered
///     items, users without history) stop hammering the store.
///
/// Caching is at key-value granularity, *not* query-result granularity: a
/// query recomputes its scores from cached KV reads, so they stay
/// bit-identical to scores from one point read per key while the TTL only
/// bounds how stale a single counter read may be. TDStore remains the single source of truth
/// (the Monolith argument, arXiv:2209.07663); the engine clears this cache
/// at batch boundaries and invalidates keys it rewrites out of band.
///
/// Statuses other than OK/NotFound (transient Unavailable etc.) are handed
/// to all coalesced waiters but never cached.
class QueryCache {
 public:
  struct Options {
    size_t capacity = 1 << 14;
    /// Entry lifetime; <= 0 keeps dedupe + coalescing but caches nothing.
    int64_t ttl_micros = 250'000;
    /// Injectable clock for TTL tests; nullptr = MonoMicros.
    std::function<uint64_t()> now_fn;
    /// Registry prefix for the exported counters (/vars, /metrics).
    std::string metrics_scope = "topo.query_cache";
  };

  /// Mutex-consistent view for tests (registry counters are process-wide
  /// and may be disabled; these always count).
  struct Stats {
    int64_t hits = 0;           ///< fresh positive entry served
    int64_t negative_hits = 0;  ///< fresh NotFound entry served
    int64_t misses = 0;         ///< keys this cache had to own a fetch for
    int64_t coalesced = 0;      ///< keys answered by waiting on another's fetch
    int64_t evictions = 0;
    int64_t invalidations = 0;
  };

  /// One grouped store read for a set of unique keys; fills `out` with one
  /// entry per key (OK value, NotFound, or a transient error).
  using FetchFn = std::function<Status(const std::vector<std::string>& keys,
                                       std::vector<Result<std::string>>* out)>;

  explicit QueryCache(Options options);

  /// Resolves every key: fresh cache entries are served directly, keys
  /// already in flight are coalesced onto the owner's round-trip, and the
  /// remainder is fetched with ONE `fetch` call. `out` gets exactly one
  /// entry per input key (duplicates share the unique key's result). The
  /// returned Status is non-OK only when the owned fetch itself failed
  /// wholesale (e.g. no route table); per-key errors live in `out`.
  Status GetBatch(const std::vector<std::string>& keys, const FetchFn& fetch,
                  std::vector<Result<std::string>>* out);

  /// Single-key convenience over GetBatch.
  Result<std::string> Get(const std::string& key, const FetchFn& fetch);

  /// Drops `key`'s entry (positive or negative) immediately — the
  /// write-through hook for out-of-band writers (RegisterItem etc.).
  void Invalidate(const std::string& key);

  /// Drops every entry (batch-boundary consistency point). In-flight
  /// fetches are unaffected; their results land with a fresh TTL.
  void Clear();

  Stats stats() const;
  size_t size() const;

 private:
  struct Entry {
    /// OK (value below) or NotFound; nothing else is ever cached.
    Status status;
    std::string value;
    uint64_t expires_at = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// One in-flight store round-trip; waiters block on `cv` until the owner
  /// publishes.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::string> result{Status::Internal("query cache: pending")};

    void Publish(Result<std::string> r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        result = std::move(r);
        done = true;
      }
      cv.notify_all();
    }
    const Result<std::string>& Await() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
      return result;
    }
  };

  uint64_t Now() const {
    return options_.now_fn != nullptr ? options_.now_fn() : MonoMicros();
  }
  bool CachingEnabled() const {
    return options_.capacity > 0 && options_.ttl_micros > 0;
  }
  /// Inserts/overwrites under mu_; evicts LRU entries past capacity.
  void InsertLocked(const std::string& key, const Result<std::string>& r,
                    uint64_t now);
  void EraseLocked(const std::unordered_map<std::string, Entry>::iterator& it);

  const Options options_;

  /// Profiled (DESIGN.md §13): every batched read from every querent
  /// funnels through this lock, making it the canonical read-side
  /// contention point at /profile/contention.
  mutable ProfiledMutex mu_{"topo.query_cache"};
  /// LRU list, most-recent first; entries point into it.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
  Stats stats_;

  // Registry mirrors of stats_ (null when metrics are disabled).
  Counter* hits_ = nullptr;
  Counter* negative_hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* coalesced_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* invalidations_ = nullptr;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_QUERY_CACHE_H_
