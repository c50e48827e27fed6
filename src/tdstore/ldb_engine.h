#ifndef TENCENTREC_TDSTORE_LDB_ENGINE_H_
#define TENCENTREC_TDSTORE_LDB_ENGINE_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tdstore/engine.h"

namespace tencentrec::tdstore {

/// Level DataBase engine: a miniature LSM tree. Writes land in a sorted
/// memtable; when it reaches `ldb_memtable_limit` entries it is sealed into
/// an immutable sorted run. Reads consult memtable first, then runs newest
/// to oldest. Deletes are tombstones. When more than `ldb_max_runs` runs
/// accumulate, all runs merge into one, dropping shadowed entries and
/// tombstones.
class LdbEngine : public Engine {
 public:
  explicit LdbEngine(const EngineOptions& options)
      : memtable_limit_(options.ldb_memtable_limit == 0
                            ? 1
                            : options.ldb_memtable_limit),
        max_runs_(options.ldb_max_runs == 0 ? 1 : options.ldb_max_runs) {}

  Status Put(std::string_view key, std::string_view value) override;
  /// One lock acquisition and one seal/compaction check for the whole batch
  /// (the memtable may transiently overshoot its limit by the batch size).
  Status MultiPut(
      std::vector<std::pair<std::string, std::string>> kvs) override;
  Result<std::string> Get(std::string_view key) const override;
  Status Delete(std::string_view key) override;
  Status ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, std::string_view)>& visitor)
      const override;
  size_t Count() const override;
  /// Seals the memtable into a run (mostly useful to force merge behaviour
  /// in tests).
  Status Flush() override;

  size_t NumRuns() const;

 private:
  // nullopt value = tombstone.
  using Entry = std::pair<std::string, std::optional<std::string>>;
  using Run = std::vector<Entry>;  // sorted by key, unique keys

  void SealMemtableLocked();
  void MaybeCompactLocked();
  static const std::optional<std::string>* FindInRun(const Run& run,
                                                     std::string_view key);

  const size_t memtable_limit_;
  const size_t max_runs_;
  mutable std::mutex mu_;
  std::map<std::string, std::optional<std::string>> memtable_;
  std::vector<Run> runs_;  // oldest first
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_LDB_ENGINE_H_
