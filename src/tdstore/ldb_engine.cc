#include "tdstore/ldb_engine.h"

#include <algorithm>

#include "common/strings.h"

namespace tencentrec::tdstore {

Status LdbEngine::Put(std::string_view key, std::string_view value) {
  std::lock_guard lock(mu_);
  memtable_[std::string(key)] = std::string(value);
  if (memtable_.size() >= memtable_limit_) {
    SealMemtableLocked();
    MaybeCompactLocked();
  }
  return Status::OK();
}

Status LdbEngine::MultiPut(
    std::vector<std::pair<std::string, std::string>> kvs) {
  std::lock_guard lock(mu_);
  for (auto& [key, value] : kvs) {
    memtable_.insert_or_assign(std::move(key), std::move(value));
  }
  if (memtable_.size() >= memtable_limit_) {
    SealMemtableLocked();
    MaybeCompactLocked();
  }
  return Status::OK();
}

Status LdbEngine::Delete(std::string_view key) {
  std::lock_guard lock(mu_);
  memtable_[std::string(key)] = std::nullopt;  // tombstone
  if (memtable_.size() >= memtable_limit_) {
    SealMemtableLocked();
    MaybeCompactLocked();
  }
  return Status::OK();
}

const std::optional<std::string>* LdbEngine::FindInRun(const Run& run,
                                                       std::string_view key) {
  auto it = std::lower_bound(
      run.begin(), run.end(), key,
      [](const Entry& e, std::string_view k) { return e.first < k; });
  if (it != run.end() && it->first == key) return &it->second;
  return nullptr;
}

Result<std::string> LdbEngine::Get(std::string_view key) const {
  std::lock_guard lock(mu_);
  auto mit = memtable_.find(std::string(key));
  if (mit != memtable_.end()) {
    if (!mit->second.has_value()) return Status::NotFound();
    return *mit->second;
  }
  for (auto rit = runs_.rbegin(); rit != runs_.rend(); ++rit) {
    const std::optional<std::string>* v = FindInRun(*rit, key);
    if (v != nullptr) {
      if (!v->has_value()) return Status::NotFound();
      return **v;
    }
  }
  return Status::NotFound();
}

Status LdbEngine::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor)
    const {
  std::lock_guard lock(mu_);
  // Merge view: newest source wins. Collect winners into a sorted map of the
  // prefix range (prefix scans here back small admin/debug surfaces, not the
  // hot path, so materializing is fine).
  std::map<std::string, std::optional<std::string>> view;
  for (const auto& run : runs_) {
    auto it = std::lower_bound(
        run.begin(), run.end(), prefix,
        [](const Entry& e, std::string_view k) { return e.first < k; });
    for (; it != run.end() && StartsWith(it->first, prefix); ++it) {
      view[it->first] = it->second;  // later (newer) runs overwrite
    }
  }
  for (auto it = memtable_.lower_bound(std::string(prefix));
       it != memtable_.end() && StartsWith(it->first, prefix); ++it) {
    view[it->first] = it->second;
  }
  for (const auto& [k, v] : view) {
    if (!v.has_value()) continue;  // tombstone
    if (!visitor(k, *v)) break;
  }
  return Status::OK();
}

size_t LdbEngine::Count() const {
  std::lock_guard lock(mu_);
  // Exact count via merge (cheap at the scales the tests/benches use; the
  // interface allows approximation but exactness keeps tests strict).
  std::map<std::string_view, bool> live;
  for (const auto& run : runs_) {
    for (const auto& [k, v] : run) live[k] = v.has_value();
  }
  for (const auto& [k, v] : memtable_) live[k] = v.has_value();
  size_t n = 0;
  for (const auto& [k, alive] : live) {
    if (alive) ++n;
  }
  return n;
}

Status LdbEngine::Flush() {
  std::lock_guard lock(mu_);
  SealMemtableLocked();
  MaybeCompactLocked();
  return Status::OK();
}

void LdbEngine::SealMemtableLocked() {
  if (memtable_.empty()) return;
  Run run;
  run.reserve(memtable_.size());
  for (auto& [k, v] : memtable_) run.emplace_back(k, std::move(v));
  runs_.push_back(std::move(run));
  memtable_.clear();
}

void LdbEngine::MaybeCompactLocked() {
  if (runs_.size() <= max_runs_) return;
  // Full merge, newest wins, tombstones dropped (nothing older remains).
  std::map<std::string, std::optional<std::string>> merged;
  for (const auto& run : runs_) {
    for (const auto& [k, v] : run) merged[k] = v;
  }
  Run out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) {
    if (v.has_value()) out.emplace_back(k, std::move(v));
  }
  runs_.clear();
  if (!out.empty()) runs_.push_back(std::move(out));
}

size_t LdbEngine::NumRuns() const {
  std::lock_guard lock(mu_);
  return runs_.size();
}

}  // namespace tencentrec::tdstore
