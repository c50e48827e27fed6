#ifndef TENCENTREC_TDSTORE_MDB_ENGINE_H_
#define TENCENTREC_TDSTORE_MDB_ENGINE_H_

#include <shared_mutex>
#include <string>

#include "common/flat_map.h"
#include "tdstore/engine.h"

namespace tencentrec::tdstore {

/// Memory DataBase engine: a flat byte-string hash table (FlatStringMap)
/// behind a reader/writer lock. The workhorse for recommendation status
/// data, where everything must fit in memory and reads dominate.
class MdbEngine : public Engine {
 public:
  MdbEngine() = default;

  Status Put(std::string_view key, std::string_view value) override;
  /// One writer-lock acquisition for the whole batch instead of per key;
  /// keys and values are moved into the table.
  Status MultiPut(
      std::vector<std::pair<std::string, std::string>> kvs) override;
  Result<std::string> Get(std::string_view key) const override;
  Status Delete(std::string_view key) override;
  Status ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, std::string_view)>& visitor)
      const override;
  size_t Count() const override;
  Status Flush() override { return Status::OK(); }
  /// Clears the table and bulk-loads under a single writer lock, so a
  /// restore replaces state instead of merging over stale leftovers.
  Status RestoreFrom(const std::string& path) override;

 private:
  mutable std::shared_mutex mu_;
  FlatStringMap<std::string> map_;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_MDB_ENGINE_H_
