#ifndef TENCENTREC_TDSTORE_ENGINE_H_
#define TENCENTREC_TDSTORE_ENGINE_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tencentrec::tdstore {

/// Storage engine behind one data instance. TDStore supports multiple
/// engines (§3.3: MDB, LDB, RDB, FDB); this repo implements all four with
/// distinct trade-offs:
///  - MDB: in-memory hash table (the default for recommendation state);
///  - LDB: log-structured merge engine (memtable + sorted runs, tombstones,
///    compaction) in the LevelDB mold;
///  - FDB: append-only file engine with an in-memory index, durable across
///    reopen;
///  - RDB: Redis-style in-memory engine with point-in-time snapshot
///    persistence (mutations after the last snapshot are lost on restart).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual Status Put(std::string_view key, std::string_view value) = 0;

  /// Applies a batch of puts in order, taking ownership of the strings.
  /// Engines override this when one pass beats repeated Put() calls
  /// (amortized locking, one memtable-seal check per batch, keys and values
  /// moved into place); the default loops Put() and stops at the first
  /// error.
  virtual Status MultiPut(
      std::vector<std::pair<std::string, std::string>> kvs) {
    for (const auto& [key, value] : kvs) {
      Status s = Put(key, value);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// NotFound if the key is absent (or deleted).
  virtual Result<std::string> Get(std::string_view key) const = 0;

  virtual Status Delete(std::string_view key) = 0;

  /// Visits all live keys with the given prefix, in unspecified order.
  /// The visitor returns false to stop early.
  virtual Status ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view key, std::string_view value)>&
          visitor) const = 0;

  /// Number of live keys (may be approximate for engines with tombstones).
  virtual size_t Count() const = 0;

  /// Durability/compaction hook; no-op where meaningless.
  virtual Status Flush() = 0;

  /// Writes a point-in-time snapshot of every live key to `path`: an 8-byte
  /// `[magic][version]` header, crc-framed kv records, and a footer record
  /// carrying the count — the commit marker, so a snapshot torn mid-write is
  /// Corruption on read, never a silently shorter state. Written to a temp
  /// file, fsynced, then renamed, so a crash during snapshotting can never
  /// clobber the previous good snapshot at `path`. Callers serialize
  /// mutations around the call (the checkpoint path holds the instance
  /// lock); a concurrent writer would tear the cut.
  virtual Status SnapshotTo(const std::string& path) const;

  /// Loads a snapshot written by SnapshotTo. The default applies records
  /// with MultiPut over whatever is present (recovery restores into freshly
  /// created engines); engines with a cheap clear (MDB) override to start
  /// from empty. A missing, torn, or footer-less file is an error.
  virtual Status RestoreFrom(const std::string& path);
};

/// Streaming writer for the engine snapshot format (shared by the default
/// Engine::SnapshotTo, engine overrides, and the recovery bench). Records go
/// to `path` + ".tmp"; Finish() writes the footer, fsyncs, and renames over
/// `path`. Dropping the writer without Finish() deletes the temp file.
class SnapshotWriter {
 public:
  static Result<std::unique_ptr<SnapshotWriter>> Create(
      const std::string& path);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  Status Add(std::string_view key, std::string_view value);
  Status Finish();

 private:
  SnapshotWriter(std::string path, std::string tmp, std::FILE* file)
      : path_(std::move(path)), tmp_(std::move(tmp)), file_(file) {}

  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  uint64_t count_ = 0;
};

/// Reads a snapshot file, calling `apply` for each kv record in write order.
/// Fails with Corruption on a torn frame, a bad crc, a missing footer, or a
/// footer count that disagrees with the records actually present.
Status ReadSnapshot(
    const std::string& path,
    const std::function<Status(std::string key, std::string value)>& apply);

enum class EngineType {
  kMdb,  ///< memory database: hash table
  kLdb,  ///< level database: LSM (memtable + runs)
  kFdb,  ///< file database: append-only log + index
  kRdb,  ///< redis database: in-memory + point-in-time snapshots
};

struct EngineOptions {
  EngineType type = EngineType::kMdb;
  /// LDB: entries held in the memtable before flushing to a run.
  size_t ldb_memtable_limit = 4096;
  /// LDB: runs that trigger a full merge.
  size_t ldb_max_runs = 4;
  /// FDB: file path (required for kFdb).
  std::string fdb_path;
  /// FDB: rewrite the file when dead bytes exceed this fraction.
  double fdb_compact_garbage_ratio = 0.5;
  /// RDB: snapshot file path (required for kRdb).
  std::string rdb_path;
  /// RDB: auto-snapshot every this many mutations (0 = only on Flush()).
  int64_t rdb_snapshot_interval_ops = 0;
};

/// Instantiates the engine described by `options`.
Result<std::unique_ptr<Engine>> CreateEngine(const EngineOptions& options);

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_ENGINE_H_
