#ifndef TENCENTREC_TDSTORE_FDB_ENGINE_H_
#define TENCENTREC_TDSTORE_FDB_ENGINE_H_

#include <cstdio>
#include <mutex>
#include <string>

#include "common/flat_map.h"
#include "tdstore/engine.h"

namespace tencentrec::tdstore {

/// File DataBase engine: an append-only data file with an in-memory key ->
/// file-offset index (bitcask-style). Values are read back from the file on
/// Get, records carry CRCs, deletes are tombstone records, and Open()
/// rebuilds the index by scanning the file — so state survives process
/// restarts. Compaction rewrites live records once dead bytes pass
/// `fdb_compact_garbage_ratio`.
class FdbEngine : public Engine {
 public:
  ~FdbEngine() override;

  /// Creates or recovers the file at options.fdb_path (required).
  static Result<std::unique_ptr<FdbEngine>> Open(const EngineOptions& options);

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) const override;
  Status Delete(std::string_view key) override;
  Status ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, std::string_view)>& visitor)
      const override;
  size_t Count() const override;
  Status Flush() override;

  /// Bytes occupied by shadowed/deleted records (compaction pressure).
  size_t DeadBytes() const;

 private:
  struct IndexEntry {
    long value_offset = 0;  ///< offset of the value bytes in the file
    uint32_t value_len = 0;
  };

  FdbEngine(std::string path, double compact_ratio)
      : path_(std::move(path)), compact_ratio_(compact_ratio) {}

  Status Recover();
  Status AppendRecordLocked(std::string_view key, std::string_view value,
                            bool tombstone);
  Status MaybeCompactLocked();

  const std::string path_;
  const double compact_ratio_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  long file_size_ = 0;
  size_t dead_bytes_ = 0;
  FlatStringMap<IndexEntry> index_;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_FDB_ENGINE_H_
