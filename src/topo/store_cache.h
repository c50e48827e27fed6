#ifndef TENCENTREC_TOPO_STORE_CACHE_H_
#define TENCENTREC_TOPO_STORE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/status.h"
#include "tdstore/client.h"

namespace tencentrec::topo {

/// Fine-grained read-through, write-behind cache in front of a TDStore
/// client (§5.2, temporal burst events), and its bolt's only write buffer
/// for read-modify-write state (histories, pair counts, n_ij, prune flags,
/// lists, thresholds) and materialized results; write-only counters bypass
/// it through the combiner. Cached "in the granularity of data instance,
/// i.e., a key-value pair"; consistency holds because stream grouping sends
/// all tuples for a key to the same worker, making each cached key
/// single-writer and the cached copy authoritative.
///
/// Writes are WRITE-BEHIND: Put/AddDouble update the entry and mark it
/// dirty instead of issuing a point call per key. Flush() ships every dirty
/// entry, in the order each was first staged, as one Client::MultiPut — so
/// a batch of hot-key updates costs one call per host (and one WAL record
/// per same-instance run) rather than thousands of single-op writes. Same-
/// key puts coalesce, last value wins. Once kFlushAt keys are staged (not
/// counting re-staged ones) Put flushes by itself; the bolt flushes the rest
/// at Cleanup. Other workers see a write once it ships.
///
/// A dirty entry is never evicted, so a read always sees this worker's
/// newest value. An entry whose put fails stays dirty and ships with the
/// next flush (at-least-once); re-staged entries wait for kFlushAt new
/// puts before the next auto-flush retries them, so a store outage costs no
/// store call per staged put. Flush() returns the first error and
/// last_error() keeps it, so an auto-flush failure stays visible.
///
/// `capacity` bounds the clean entries, LRU-evicted; capacity 0 keeps
/// nothing once it has shipped. A bolt restart drops the cache and re-reads
/// from TDStore (the recovery story of §3.3).
///
/// Absence is cached too: a Get that comes back NotFound leaves a negative
/// entry, so repeated probes of a dead key (deregistered item, fresh user)
/// stop hitting the store. The single-writer-per-key grouping keeps this
/// sound — the only writer that could create the key is this worker, and
/// both write paths (Put / AddDouble) overwrite the negative entry in the
/// same call, so a write after a cached NotFound is visible on the very
/// next read.
///
/// Not thread-safe: one cache per bolt instance.
class StoreCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t negative_hits = 0;  ///< cached NotFound served without a store read
    int64_t misses = 0;
    int64_t writes = 0;
  };

  /// Staged keys (beyond any re-staged by a failed flush) that trigger an
  /// auto-flush.
  static constexpr size_t kFlushAt = 256;

  StoreCache(tdstore::Client* client, size_t capacity);

  /// The entry's value, else one TDStore read. A NotFound result is cached
  /// as a negative entry; this worker's own writes overwrite it
  /// immediately, so serving cached absence never hides a value this key
  /// could have.
  Result<std::string> Get(const std::string& key);

  /// Stages `value` as the key's newest value (see class comment).
  void Put(const std::string& key, std::string value);

  /// Read-modify-write add on a double; uses the entry when there is one
  /// (saving the TDStore read, exactly the §5.2 optimization) and stages
  /// the new value. Safe because this worker is the key's only writer.
  Result<double> AddDouble(const std::string& key, double delta);

  /// Ships every staged put as one MultiPut. Returns the first per-put
  /// error; the failed entries stay staged. Idempotent when nothing is
  /// staged.
  Status Flush();

  /// First error seen by any flush since the last ClearError().
  const Status& last_error() const { return last_error_; }
  void ClearError() { last_error_ = Status::OK(); }

  const Stats& stats() const { return stats_; }
  /// Entries held, clean and staged.
  size_t size() const { return entries_.size(); }
  /// Staged puts not yet shipped.
  size_t pending() const { return staged_.size(); }
  /// Flushes shipped so far (auto + explicit).
  int64_t flushes() const { return flushes_; }

 private:
  struct Entry {
    std::string value;
    bool negative = false;  ///< cached NotFound; `value` is empty
    bool dirty = false;     ///< staged put not yet shipped
    /// Trace active when the put was first staged (0 = unsampled). Flush
    /// re-opens a tdstore.write span under it so a sampled trace still
    /// reaches the store write even though the write ships later.
    uint64_t trace = 0;
    /// The entry's node in `lru_` (clean) or `staged_` (dirty).
    std::list<const std::string*>::iterator node;
  };

  /// Holds a clean value read from the store, then evicts past capacity.
  void InsertClean(const std::string& key, std::string value, bool negative);
  /// Moves a clean entry to the LRU front; a staged one keeps its place.
  void Touch(Entry& entry);
  /// Evicts least recently used clean entries down to capacity.
  void Trim();

  tdstore::Client* client_;
  const size_t capacity_;
  /// Clean keys, most recent first; the LRU order. The lists point at
  /// `entries_`'s own keys, which a node-based map keeps in place across
  /// rehashes, so each key is held once.
  std::list<const std::string*> lru_;
  /// Dirty keys in the order first staged; the order Flush ships them.
  std::list<const std::string*> staged_;
  std::unordered_map<std::string, Entry> entries_;
  /// Staged-key count that triggers the next auto-flush.
  size_t flush_at_ = kFlushAt;
  Status last_error_;
  int64_t flushes_ = 0;
  Stats stats_;
  Counter* staged_ops_ = nullptr;
  Counter* flushed_batches_ = nullptr;
  Counter* coalesced_puts_ = nullptr;
};

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_STORE_CACHE_H_
