#ifndef TENCENTREC_TOPO_STORE_CACHE_H_
#define TENCENTREC_TOPO_STORE_CACHE_H_

#include <list>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "tdstore/batch_writer.h"
#include "tdstore/client.h"

namespace tencentrec::topo {

/// Fine-grained read-through, write-behind cache in front of a TDStore
/// client (§5.2, temporal burst events). Cached "in the granularity of data
/// instance, i.e., a key-value pair"; consistency holds because stream
/// grouping sends all tuples for a key to the same worker, making each
/// cached key single-writer. It buffers the read-modify-write state of its
/// bolt (histories, pair counts, lists, thresholds); write-only counters
/// bypass it through the combiner.
///
/// LRU-bounded; a bolt restart naturally drops the cache and re-reads from
/// TDStore (the recovery story of §3.3).
///
/// Writes are WRITE-BEHIND: Put/AddDouble update the cache immediately
/// (single-writer-per-key makes it the authoritative copy) and stage a put
/// of the whole value on the cache's BatchWriter instead of issuing a point
/// call per key — so a batch of hot-key updates ships as a handful of
/// MultiPut runs (and one WAL record per run) rather than thousands of
/// single-op writes. Other workers see a write once the writer flushes.
/// Reads consult the writer's staged puts on a cache miss, so
/// read-your-writes survives eviction. A put whose flush fails keeps its
/// cache entry and stays staged on the writer, which retries it at its next
/// flush, so the value reaches the store whether or not the entry is
/// evicted first (or the cache is disabled). The failure itself surfaces
/// through the writer's Flush() status and last_error().
///
/// Absence is cached too: a Get that comes back NotFound leaves a negative
/// entry, so repeated probes of a dead key (deregistered item, fresh user)
/// stop hitting the store. The single-writer-per-key grouping keeps this
/// sound — the only writer that could create the key is this worker, and
/// both write paths (Put / AddDouble) overwrite the negative entry in the
/// same call, so a write after a cached NotFound is visible on the very
/// next read.
class StoreCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t negative_hits = 0;  ///< cached NotFound served without a store read
    int64_t misses = 0;
    int64_t writes = 0;
  };

  /// Writes stage on `writer` (see class comment), which must be flushed at
  /// every point the store is required to be current — batch end, before a
  /// barrier commit. `enabled = false` turns the cache into a
  /// transparent pass-through (every read hits TDStore) — the baseline for
  /// the cache ablation bench. `capacity = 0` is equivalent: nothing can be
  /// held, so the cache is disabled rather than evicting on every insert.
  StoreCache(tdstore::Client* client, tdstore::BatchWriter* writer,
             size_t capacity, bool enabled = true)
      : client_(client),
        writer_(writer),
        capacity_(capacity),
        enabled_(enabled) {}

  /// Cache hit, else TDStore read. A NotFound result is cached as a
  /// negative entry; this worker's own writes overwrite it immediately, so
  /// serving cached absence never hides a value this key could have.
  Result<std::string> Get(const std::string& key);

  /// Updates the cache and stages the put. Replaces a negative entry,
  /// making the write visible to the next Get without a store read.
  Status Put(const std::string& key, std::string value);

  /// Read-modify-write add on a double; uses the cached value when present
  /// (saving the TDStore read, exactly the §5.2 optimization) and stages
  /// the new value. Safe because this worker is the key's only writer.
  Result<double> AddDouble(const std::string& key, double delta);

  void Clear();

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string value;
    bool negative = false;  ///< cached NotFound; `value` is empty
    std::list<std::string>::iterator lru_it;
  };

  /// True when the cache actually holds entries (explicitly enabled and
  /// able to store at least one).
  bool Active() const { return enabled_ && capacity_ > 0; }
  /// Moves an already-found entry to the LRU front (no extra hash lookup;
  /// splice keeps `lru_it` valid).
  void Touch(Entry& entry);
  void InsertOrUpdate(const std::string& key, std::string value,
                      bool negative = false);
  /// Store read that sees through write-behind: serves the writer's staged
  /// put if one exists, else reads the store.
  Result<std::string> StoreRead(const std::string& key);

  tdstore::Client* client_;
  tdstore::BatchWriter* writer_;
  const size_t capacity_;
  const bool enabled_;
  /// LRU list, most-recent first; map values point into it.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_STORE_CACHE_H_
