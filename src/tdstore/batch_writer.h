#ifndef TENCENTREC_TDSTORE_BATCH_WRITER_H_
#define TENCENTREC_TDSTORE_BATCH_WRITER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "tdstore/client.h"

namespace tencentrec::tdstore {

/// Write-behind buffer in front of a Client. Callers stage puts and
/// increments; the writer ships them as grouped Multi* calls when the buffer
/// reaches `max_ops` or on an explicit Flush(). This turns the per-key write
/// storm of the count and similarity bolts into a handful of per-host
/// batches (the paper's "combine frequent operations" theme applied to the
/// storage RPC layer).
///
/// Ordering guarantees: staged ops ship in staging order. Same-key puts
/// coalesce (last value wins — a pure overwrite needs no history); same-key
/// increments are NEVER coalesced, each is applied separately in order on
/// the server, so flushing through the batch path yields bit-identical
/// float state to issuing the same point ops (delta coalescing is the
/// combiner's job, upstream of this layer).
///
/// Not thread-safe: one writer per bolt/shard, matching the
/// single-writer-per-key field-grouping contract.
class BatchWriter {
 public:
  struct Options {
    /// Auto-flush when this many ops are staged.
    size_t max_ops = 256;
  };

  using PutCallback = std::function<void(const Status&)>;
  using IncrDoubleCallback = std::function<void(const Result<double>&)>;

  BatchWriter(Client* client, Options options);

  /// Stages an overwrite. Coalesces with an earlier staged put of the same
  /// key (both callbacks still fire, with the final op's status).
  void Put(std::string_view key, std::string_view value,
           PutCallback cb = nullptr);
  void PutDouble(std::string_view key, double value, PutCallback cb = nullptr);

  /// Stages an increment; the callback receives the post-increment value
  /// once the batch ships.
  void IncrDouble(std::string_view key, double delta,
                  IncrDoubleCallback cb = nullptr);

  /// Ships everything staged. Returns the first per-op error (callbacks see
  /// every individual outcome). Idempotent when empty.
  Status Flush();

  /// Ops currently staged.
  size_t pending() const { return ops_.size(); }

  /// Value of the live staged put for `key`, or nullptr when none is
  /// staged. Lets a write-behind cache serve read-your-writes even after
  /// its copy of the key was evicted. The pointer is valid only until the
  /// next staging call or Flush().
  const std::string* StagedPut(const std::string& key) const;
  /// True when ANY op (put or incr) is staged for `key`.
  bool HasStaged(const std::string& key) const;

  /// First error seen by any flush since the last ClearError() — lets a
  /// caller that relies on callbacks alone detect that something went wrong
  /// without tracking every op.
  const Status& last_error() const { return last_error_; }
  void ClearError() { last_error_ = Status::OK(); }

  /// Flushes shipped so far (auto + explicit), for tests and benches.
  int64_t flushes() const { return flushes_; }

 private:
  enum class Kind { kPut, kIncrDouble };
  struct StagedOp {
    Kind kind;
    std::string key;
    std::string value;  ///< kPut payload
    double ddelta = 0.0;
    /// Trace active when the op was staged (0 = unsampled). Flush re-opens
    /// a tdstore.write span under it so a sampled trace still reaches the
    /// store write even though the write ships later in a batch.
    uint64_t trace_id = 0;
    PutCallback put_cb;
    IncrDoubleCallback incr_double_cb;
  };

  /// Flushes once `max_ops` ops are staged.
  void MaybeAutoFlush();
  /// Flushes first if `key` already has a staged op of a different kind —
  /// partition-by-kind shipping is order-preserving only while each key's
  /// staged ops are homogeneous.
  void ResolveKindConflict(std::string_view key, Kind kind);

  Client* client_;
  Options options_;  ///< sanitized copy (max_ops floors at 1)
  std::vector<StagedOp> ops_;
  /// Kind staged for each key in ops_ (conflict detection); cleared on flush.
  std::unordered_map<std::string, Kind> staged_kind_;
  /// Index into ops_ of the live put per key (last-wins coalescing).
  std::unordered_map<std::string, size_t> put_index_;
  Status last_error_;
  int64_t flushes_ = 0;
  Counter* staged_ops_ = nullptr;
  Counter* flushed_batches_ = nullptr;
  Counter* coalesced_puts_ = nullptr;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_BATCH_WRITER_H_
