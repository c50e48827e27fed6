#include "tdstore/rdb_engine.h"

namespace tencentrec::tdstore {

Result<std::unique_ptr<RdbEngine>> RdbEngine::Open(
    const EngineOptions& options) {
  if (options.rdb_path.empty()) {
    return Status::InvalidArgument("RDB engine requires rdb_path");
  }
  std::unique_ptr<RdbEngine> engine(
      new RdbEngine(options.rdb_path, options.rdb_snapshot_interval_ops));
  Status s = engine->RestoreFrom(options.rdb_path);
  if (!s.ok() && !s.IsNotFound()) return s;  // NotFound: no snapshot yet
  return engine;
}

Status RdbEngine::AfterMutations(size_t n) {
  const int64_t pending =
      mutations_since_snapshot_.fetch_add(static_cast<int64_t>(n)) +
      static_cast<int64_t>(n);
  if (snapshot_interval_ops_ > 0 && pending >= snapshot_interval_ops_) {
    return Flush();
  }
  return Status::OK();
}

Status RdbEngine::Put(std::string_view key, std::string_view value) {
  TR_RETURN_IF_ERROR(MdbEngine::Put(key, value));
  return AfterMutations(1);
}

Status RdbEngine::MultiPut(
    std::vector<std::pair<std::string, std::string>> kvs) {
  const size_t n = kvs.size();
  TR_RETURN_IF_ERROR(MdbEngine::MultiPut(std::move(kvs)));
  return AfterMutations(n);
}

Status RdbEngine::Delete(std::string_view key) {
  TR_RETURN_IF_ERROR(MdbEngine::Delete(key));
  return AfterMutations(1);
}

Status RdbEngine::Flush() {
  mutations_since_snapshot_.store(0);
  TR_RETURN_IF_ERROR(SnapshotTo(path_));
  snapshots_.fetch_add(1);
  return Status::OK();
}

}  // namespace tencentrec::tdstore
