#include "tdstore/mdb_engine.h"
#include <mutex>

#include "common/strings.h"

namespace tencentrec::tdstore {

Status MdbEngine::Put(std::string_view key, std::string_view value) {
  std::unique_lock lock(mu_);
  map_[std::string(key)] = std::string(value);
  return Status::OK();
}

Status MdbEngine::MultiPut(
    std::vector<std::pair<std::string, std::string>> kvs) {
  std::unique_lock lock(mu_);
  map_.reserve(map_.size() + kvs.size());
  for (auto& [key, value] : kvs) {
    map_.insert_or_assign(std::move(key), std::move(value));
  }
  return Status::OK();
}

Result<std::string> MdbEngine::Get(std::string_view key) const {
  std::shared_lock lock(mu_);
  auto it = map_.find(std::string(key));
  if (it == map_.end()) return Status::NotFound();
  return it->second;
}

Status MdbEngine::Delete(std::string_view key) {
  std::unique_lock lock(mu_);
  map_.erase(std::string(key));
  return Status::OK();
}

Status MdbEngine::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor)
    const {
  std::shared_lock lock(mu_);
  for (const auto& [k, v] : map_) {
    if (StartsWith(k, prefix)) {
      if (!visitor(k, v)) break;
    }
  }
  return Status::OK();
}

size_t MdbEngine::Count() const {
  std::shared_lock lock(mu_);
  return map_.size();
}

Status MdbEngine::RestoreFrom(const std::string& path) {
  std::unique_lock lock(mu_);
  std::unordered_map<std::string, std::string> loaded;
  Status s = ReadSnapshot(path, [&](std::string key, std::string value) {
    loaded[std::move(key)] = std::move(value);
    return Status::OK();
  });
  TR_RETURN_IF_ERROR(s);
  // Swap in only after the whole file validated, so a corrupt snapshot
  // leaves the engine untouched.
  map_ = std::move(loaded);
  return Status::OK();
}

}  // namespace tencentrec::tdstore
