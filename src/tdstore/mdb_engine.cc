#include "tdstore/mdb_engine.h"
#include <mutex>

#include "common/strings.h"

namespace tencentrec::tdstore {

Status MdbEngine::Put(std::string_view key, std::string_view value) {
  std::unique_lock lock(mu_);
  map_[key].assign(value);
  return Status::OK();
}

Status MdbEngine::MultiPut(
    std::vector<std::pair<std::string, std::string>> kvs) {
  std::unique_lock lock(mu_);
  for (auto& [key, value] : kvs) {
    map_.InsertOrAssign(std::move(key), std::move(value));
  }
  return Status::OK();
}

Result<std::string> MdbEngine::Get(std::string_view key) const {
  std::shared_lock lock(mu_);
  const std::string* value = map_.Find(key);
  if (value == nullptr) return Status::NotFound();
  return *value;
}

Status MdbEngine::Delete(std::string_view key) {
  std::unique_lock lock(mu_);
  map_.Erase(key);
  return Status::OK();
}

Status MdbEngine::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor)
    const {
  std::shared_lock lock(mu_);
  for (size_t i = 0; i < map_.size(); ++i) {
    const auto& [key, value] = map_.entry(i);
    if (StartsWith(key, prefix) && !visitor(key, value)) break;
  }
  return Status::OK();
}

size_t MdbEngine::Count() const {
  std::shared_lock lock(mu_);
  return map_.size();
}

Status MdbEngine::RestoreFrom(const std::string& path) {
  std::unique_lock lock(mu_);
  FlatStringMap<std::string> loaded;
  Status s = ReadSnapshot(path, [&](std::string key, std::string value) {
    loaded.InsertOrAssign(std::move(key), std::move(value));
    return Status::OK();
  });
  TR_RETURN_IF_ERROR(s);
  // Swap in only after the whole file validated, so a corrupt snapshot
  // leaves the engine untouched.
  map_ = std::move(loaded);
  return Status::OK();
}

}  // namespace tencentrec::tdstore
