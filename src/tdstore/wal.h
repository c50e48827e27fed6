#ifndef TENCENTREC_TDSTORE_WAL_H_
#define TENCENTREC_TDSTORE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/recordio.h"
#include "common/status.h"

namespace tencentrec::tdstore {

/// One logged mutation, and the one op record of TDStore: a host logs a run
/// of these to its WAL and passes the same run to the instance's slave. The
/// WAL is a *redo log of absolute values*: Incr results are logged as the
/// encoded post-increment value, never as deltas, so replaying any suffix of
/// the log over any state that already contains its effects is idempotent —
/// which is what lets a checkpoint snapshot race benignly with appends, lets
/// recovery replay without tracking applied positions per key, and lets a
/// slave apply a record by overwriting.
struct WalOp {
  bool is_delete = false;
  std::string key;
  std::string value;
};

/// One crc-framed WAL record: either an atomic batch of ops against one
/// data instance (a point op or a whole contiguous Multi* run), or a
/// barrier — a marker the processing tier appends (fsynced) once everything
/// up to a batch boundary has been flushed to the store. Recovery replays
/// to the last barrier shared by every server, discarding the uncommitted
/// suffix of a batch that was mid-flight at the crash.
struct WalRecord {
  enum class Kind : uint8_t { kOps = 0, kBarrier = 1 };
  Kind kind = Kind::kOps;
  int32_t instance_id = 0;  ///< kOps: which data instance the ops hit
  uint64_t barrier_id = 0;  ///< kBarrier: monotone batch-boundary id
  std::vector<WalOp> ops;
};

/// Write-ahead log for one TDStore data server, covering every instance it
/// hosts (records carry the instance id). Single file, crc-framed records
/// over the common/recordio little-endian format, magic+version header.
///
/// Thread-safe: appends from concurrent per-instance critical sections
/// serialize on an internal mutex (within one instance the caller's
/// instance lock already orders apply and append identically).
class Wal {
 public:
  struct Options {
    /// Sync policy for OP records only — barrier records always fsync.
    /// Default kNone: in the barriered deployment recovery truncates to the
    /// last barrier every server holds, so an op record is never trusted
    /// until the next barrier fsync lands anyway; syncing ops between
    /// barriers spends fsyncs on bytes recovery would discard. Standalone
    /// users without barriers pick kGroupCommit (bounded loss) or
    /// kFsyncEveryAppend (no loss) to make op records durable on their own.
    SyncPolicy sync = SyncPolicy::kNone;
    /// kGroupCommit: fsync at most once per this interval; appends in
    /// between are buffered (lost on power cut, bounded by the interval —
    /// the classic group-commit trade).
    uint64_t group_commit_interval_micros = 2000;
  };

  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating or recovering) the log. Existing records are read into
  /// recovered() and any torn tail is physically truncated off the file.
  Status Open(const std::string& path, const Options& options);

  /// Appends one record. Barrier records are always fsynced (a barrier IS
  /// the durability point); op records follow the sync policy.
  Status Append(const WalRecord& record);

  /// Appends one kOps record: encodes straight from `ops` into a reusable
  /// scratch buffer (no WalRecord construction). This is the hot apply-path
  /// entry — the wal_overhead_pct budget is measured against it.
  Status AppendOps(int32_t instance_id, const WalOp* ops, size_t count);

  /// Forces buffered appends to disk now (checkpoint prologue, tests).
  Status Sync();

  /// Records recovered at Open(), valid prefix only, in append order.
  const std::vector<WalRecord>& recovered() const { return recovered_; }
  /// Highest barrier id among recovered records (0 = none).
  uint64_t recovered_last_barrier() const { return recovered_last_barrier_; }
  /// Moves the recovered records out for replay; the WAL keeps none.
  std::vector<WalRecord> TakeRecovered();

  /// Truncates the recovered log to end exactly at the barrier record with
  /// `barrier_id` (file and recovered() both), discarding the uncommitted
  /// suffix. barrier_id 0 truncates to the header (nothing committed).
  /// Call before any Append. Fails if no such barrier was recovered.
  Status TruncateToBarrier(uint64_t barrier_id);

  /// Drops every record in the file (a checkpoint snapshot captured their
  /// effects). Atomic: writes a fresh header to a temp file and renames.
  Status Reset();

  /// Records appended (plus recovered) since Open, for tests.
  uint64_t record_count() const;

  Status Close();

 private:
  Status SyncLocked(SyncPolicy effective);
  /// Frames + writes one already-encoded payload and applies the op-record
  /// sync policy (or the unconditional barrier fsync). Callers hold mu_.
  Status AppendPayloadLocked(const std::string& payload, bool is_barrier);

  mutable std::mutex mu_;
  std::string encode_buf_;  ///< scratch for AppendOps, guarded by mu_
  std::string path_;
  Options options_;
  std::FILE* file_ = nullptr;
  long tail_bytes_ = 0;  ///< end of last durable record; short appends roll back
  uint64_t last_sync_micros_ = 0;
  uint64_t records_ = 0;
  std::vector<WalRecord> recovered_;
  /// Byte offset of the end of each recovered record (for barrier truncate).
  std::vector<long> recovered_ends_;
  uint64_t recovered_last_barrier_ = 0;
  Counter* appends_ = nullptr;
  Counter* appended_bytes_ = nullptr;
  Counter* syncs_ = nullptr;
};

/// Encodes/decodes one record payload (exposed for tests and the recovery
/// bench; framing is common/recordio's job).
std::string EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecord(const std::string& payload);

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_WAL_H_
