#ifndef TENCENTREC_TDSTORE_BATCH_WRITER_H_
#define TENCENTREC_TDSTORE_BATCH_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/status.h"
#include "tdstore/client.h"

namespace tencentrec::tdstore {

/// Write-behind put buffer in front of a Client. Callers stage overwrites;
/// the writer ships them as grouped MultiPut calls when the buffer reaches
/// `max_ops` or on an explicit Flush(). This turns the per-key write storm
/// of the read-modify-write bolts into a handful of per-host batches (the
/// paper's "combine frequent operations" theme applied to the storage RPC
/// layer).
///
/// Same-key puts coalesce, last value wins: a pure overwrite needs no
/// history. The writer stages no increments; counters reach the store
/// through the combiner's own MultiIncrDouble (topo::Combiner).
///
/// A failed flush re-stages its failed puts, which the next flush retries
/// (unless a newer put of the key replaced them meanwhile). Flush() returns
/// the first error and last_error() keeps it until ClearError(), so an
/// auto-flush failure stays visible to whoever flushes next.
///
/// Not thread-safe: one writer per bolt/shard, matching the
/// single-writer-per-key field-grouping contract.
class BatchWriter {
 public:
  struct Options {
    /// Auto-flush when this many ops are staged (beyond any re-staged by a
    /// failed flush).
    size_t max_ops = 256;
  };

  BatchWriter(Client* client, Options options);

  /// Stages an overwrite; replaces an earlier staged put of the same key.
  void Put(std::string_view key, std::string_view value);
  void PutDouble(std::string_view key, double value);

  /// Ships everything staged. Returns the first per-op error; the failed
  /// puts stay staged. Idempotent when empty.
  Status Flush();

  /// Ops currently staged.
  size_t pending() const { return puts_.size(); }

  /// Value of the staged put for `key`, or nullptr when none is staged.
  /// Lets a write-behind cache serve read-your-writes even after its copy
  /// of the key was evicted. The pointer is valid only until the next Put()
  /// or Flush().
  const std::string* StagedPut(std::string_view key) const;

  /// First error seen by any flush since the last ClearError().
  const Status& last_error() const { return last_error_; }
  void ClearError() { last_error_ = Status::OK(); }

  /// Flushes shipped so far (auto + explicit), for tests and benches.
  int64_t flushes() const { return flushes_; }

 private:
  Client* client_;
  Options options_;  ///< sanitized copy (max_ops floors at 1)
  /// Staged (key, value) puts in staging order, the shape MultiPut takes.
  std::vector<std::pair<std::string, std::string>> puts_;
  /// Trace active when each put was first staged (0 = unsampled). Flush
  /// re-opens a tdstore.write span under it so a sampled trace still
  /// reaches the store write even though the write ships later in a batch.
  std::vector<uint64_t> traces_;
  /// Index into puts_ of each staged key (last-wins coalescing).
  FlatStringMap<size_t> index_;
  /// Staged-op count that triggers the next auto-flush.
  size_t flush_at_ = 0;
  Status last_error_;
  int64_t flushes_ = 0;
  Counter* staged_ops_ = nullptr;
  Counter* flushed_batches_ = nullptr;
  Counter* coalesced_puts_ = nullptr;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_BATCH_WRITER_H_
