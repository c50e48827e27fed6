#ifndef TENCENTREC_TDSTORE_RDB_ENGINE_H_
#define TENCENTREC_TDSTORE_RDB_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>

#include "tdstore/mdb_engine.h"

namespace tencentrec::tdstore {

/// Redis DataBase engine: the MDB in-memory hash table plus Redis-style
/// point-in-time snapshot persistence in the engine snapshot format
/// (Engine::SnapshotTo). All reads and writes are served from memory;
/// Flush() (and, when `rdb_snapshot_interval_ops` is set, every N mutations)
/// snapshots the keyspace to `rdb_path`, and Open() restores the last
/// snapshot. Mutations after the last snapshot are lost on restart — exactly
/// Redis's RDB durability model, trading durability for pure-memory write
/// latency (contrast FDB, which logs every mutation). An interval snapshot
/// runs inside the mutating call, so concurrent writers must be serialized
/// by the caller, as for SnapshotTo (DataServer's instance lock does).
class RdbEngine : public MdbEngine {
 public:
  ~RdbEngine() override = default;

  /// Creates the engine, restoring the snapshot at options.rdb_path
  /// (required) when one exists.
  static Result<std::unique_ptr<RdbEngine>> Open(const EngineOptions& options);

  Status Put(std::string_view key, std::string_view value) override;
  Status MultiPut(
      std::vector<std::pair<std::string, std::string>> kvs) override;
  Status Delete(std::string_view key) override;

  /// Writes a snapshot now.
  Status Flush() override;

  /// Snapshots written so far (tests/observability).
  int64_t snapshots_written() const { return snapshots_.load(); }

 private:
  RdbEngine(std::string path, int64_t snapshot_interval_ops)
      : path_(std::move(path)),
        snapshot_interval_ops_(snapshot_interval_ops) {}

  /// Counts `n` mutations and snapshots once the interval is reached.
  Status AfterMutations(size_t n);

  const std::string path_;
  const int64_t snapshot_interval_ops_;
  std::atomic<int64_t> mutations_since_snapshot_{0};
  std::atomic<int64_t> snapshots_{0};
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_RDB_ENGINE_H_
