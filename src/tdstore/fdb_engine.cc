#include "tdstore/fdb_engine.h"

#include <cstring>

#include "common/crc32.h"
#include "common/strings.h"

namespace tencentrec::tdstore {

namespace {

// Record: [u32 crc][u32 key_len][u32 value_len][u8 tombstone][key][value]
// crc covers everything after the crc field.
constexpr size_t kHeaderSize = 4 + 4 + 4 + 1;

size_t RecordSize(size_t key_len, size_t value_len) {
  return kHeaderSize + key_len + value_len;
}

}  // namespace

FdbEngine::~FdbEngine() {
  std::lock_guard lock(mu_);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<std::unique_ptr<FdbEngine>> FdbEngine::Open(
    const EngineOptions& options) {
  if (options.fdb_path.empty()) {
    return Status::InvalidArgument("FDB engine requires fdb_path");
  }
  std::unique_ptr<FdbEngine> engine(
      new FdbEngine(options.fdb_path, options.fdb_compact_garbage_ratio));
  Status s = engine->Recover();
  if (!s.ok()) return s;
  return engine;
}

Status FdbEngine::Recover() {
  std::lock_guard lock(mu_);
  std::FILE* existing = std::fopen(path_.c_str(), "rb");
  long valid = 0;
  if (existing != nullptr) {
    char header[kHeaderSize];
    while (true) {
      long record_start = std::ftell(existing);
      if (std::fread(header, 1, kHeaderSize, existing) != kHeaderSize) break;
      uint32_t crc, key_len, value_len;
      std::memcpy(&crc, header, 4);
      std::memcpy(&key_len, header + 4, 4);
      std::memcpy(&value_len, header + 8, 4);
      uint8_t tombstone = static_cast<uint8_t>(header[12]);
      if (key_len > (1u << 24) || value_len > (1u << 28)) break;
      std::string data(static_cast<size_t>(key_len) + value_len, '\0');
      if (std::fread(data.data(), 1, data.size(), existing) != data.size()) {
        break;
      }
      uint32_t actual = Crc32(header + 4, kHeaderSize - 4);
      actual = Crc32(data.data(), data.size(), actual);
      if (actual != crc) break;  // torn/corrupt tail
      const std::string_view key(data.data(), key_len);
      if (const IndexEntry* old = index_.Find(key)) {
        dead_bytes_ += RecordSize(key.size(), old->value_len);
      }
      if (tombstone != 0) {
        index_.Erase(key);
        dead_bytes_ += RecordSize(key.size(), value_len);
      } else {
        IndexEntry entry;
        entry.value_offset =
            record_start + static_cast<long>(kHeaderSize + key_len);
        entry.value_len = value_len;
        index_[key] = entry;
      }
      valid = record_start + static_cast<long>(RecordSize(key_len, value_len));
    }
    std::fclose(existing);
  }

  file_ = std::fopen(path_.c_str(), existing != nullptr ? "rb+" : "wb+");
  if (file_ == nullptr) return Status::IOError("cannot open " + path_);
  if (std::fseek(file_, valid, SEEK_SET) != 0) {
    return Status::IOError("cannot seek " + path_);
  }
  file_size_ = valid;
  return Status::OK();
}

Status FdbEngine::AppendRecordLocked(std::string_view key,
                                     std::string_view value, bool tombstone) {
  char header[kHeaderSize];
  uint32_t key_len = static_cast<uint32_t>(key.size());
  uint32_t value_len = static_cast<uint32_t>(value.size());
  std::memcpy(header + 4, &key_len, 4);
  std::memcpy(header + 8, &value_len, 4);
  header[12] = tombstone ? 1 : 0;
  uint32_t crc = Crc32(header + 4, kHeaderSize - 4);
  crc = Crc32(key.data(), key.size(), crc);
  crc = Crc32(value.data(), value.size(), crc);
  std::memcpy(header, &crc, 4);

  if (std::fseek(file_, file_size_, SEEK_SET) != 0) {
    return Status::IOError("seek failed on " + path_);
  }
  if (std::fwrite(header, 1, kHeaderSize, file_) != kHeaderSize ||
      std::fwrite(key.data(), 1, key.size(), file_) != key.size() ||
      std::fwrite(value.data(), 1, value.size(), file_) != value.size()) {
    return Status::IOError("append failed on " + path_);
  }
  file_size_ += static_cast<long>(RecordSize(key.size(), value.size()));
  return Status::OK();
}

Status FdbEngine::Put(std::string_view key, std::string_view value) {
  std::lock_guard lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("engine closed");
  if (const IndexEntry* old = index_.Find(key)) {
    dead_bytes_ += RecordSize(key.size(), old->value_len);
  }
  long value_offset = file_size_ + static_cast<long>(kHeaderSize + key.size());
  TR_RETURN_IF_ERROR(AppendRecordLocked(key, value, /*tombstone=*/false));
  IndexEntry entry;
  entry.value_offset = value_offset;
  entry.value_len = static_cast<uint32_t>(value.size());
  index_[key] = entry;
  return MaybeCompactLocked();
}

Result<std::string> FdbEngine::Get(std::string_view key) const {
  std::lock_guard lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("engine closed");
  const IndexEntry* entry = index_.Find(key);
  if (entry == nullptr) return Status::NotFound();
  std::string value(entry->value_len, '\0');
  if (std::fseek(file_, entry->value_offset, SEEK_SET) != 0) {
    return Status::IOError("seek failed on " + path_);
  }
  if (std::fread(value.data(), 1, value.size(), file_) != value.size()) {
    return Status::IOError("read failed on " + path_);
  }
  return value;
}

Status FdbEngine::Delete(std::string_view key) {
  std::lock_guard lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("engine closed");
  const IndexEntry* entry = index_.Find(key);
  if (entry == nullptr) return Status::OK();
  dead_bytes_ += RecordSize(key.size(), entry->value_len);
  TR_RETURN_IF_ERROR(AppendRecordLocked(key, "", /*tombstone=*/true));
  // The tombstone record itself is immediately dead weight too.
  dead_bytes_ += RecordSize(key.size(), 0);
  index_.Erase(key);
  return MaybeCompactLocked();
}

Status FdbEngine::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor)
    const {
  // Snapshot keys first to avoid holding references into the index while
  // the visitor runs.
  std::vector<std::string> keys;
  {
    std::lock_guard lock(mu_);
    for (size_t i = 0; i < index_.size(); ++i) {
      const std::string& key = index_.entry(i).key;
      if (StartsWith(key, prefix)) keys.push_back(key);
    }
  }
  for (const auto& k : keys) {
    auto v = Get(k);
    if (!v.ok()) {
      if (v.status().IsNotFound()) continue;  // deleted since snapshot
      return v.status();
    }
    if (!visitor(k, *v)) break;
  }
  return Status::OK();
}

size_t FdbEngine::Count() const {
  std::lock_guard lock(mu_);
  return index_.size();
}

Status FdbEngine::Flush() {
  std::lock_guard lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
  return Status::OK();
}

size_t FdbEngine::DeadBytes() const {
  std::lock_guard lock(mu_);
  return dead_bytes_;
}

Status FdbEngine::MaybeCompactLocked() {
  if (file_size_ <= 0 || compact_ratio_ <= 0.0) return Status::OK();
  if (static_cast<double>(dead_bytes_) <
      compact_ratio_ * static_cast<double>(file_size_)) {
    return Status::OK();
  }
  // Rewrite live records into a fresh file, then swap.
  std::string tmp_path = path_ + ".compact";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb+");
  if (tmp == nullptr) return Status::IOError("cannot open " + tmp_path);

  FlatStringMap<IndexEntry> new_index;
  long new_size = 0;
  for (size_t i = 0; i < index_.size(); ++i) {
    const auto& [key, entry] = index_.entry(i);
    std::string value(entry.value_len, '\0');
    if (std::fseek(file_, entry.value_offset, SEEK_SET) != 0 ||
        std::fread(value.data(), 1, value.size(), file_) != value.size()) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return Status::IOError("compaction read failed on " + path_);
    }
    char header[kHeaderSize];
    uint32_t key_len = static_cast<uint32_t>(key.size());
    uint32_t value_len = static_cast<uint32_t>(value.size());
    std::memcpy(header + 4, &key_len, 4);
    std::memcpy(header + 8, &value_len, 4);
    header[12] = 0;
    uint32_t crc = Crc32(header + 4, kHeaderSize - 4);
    crc = Crc32(key.data(), key.size(), crc);
    crc = Crc32(value.data(), value.size(), crc);
    std::memcpy(header, &crc, 4);
    if (std::fwrite(header, 1, kHeaderSize, tmp) != kHeaderSize ||
        std::fwrite(key.data(), 1, key.size(), tmp) != key.size() ||
        std::fwrite(value.data(), 1, value.size(), tmp) != value.size()) {
      std::fclose(tmp);
      std::remove(tmp_path.c_str());
      return Status::IOError("compaction write failed on " + tmp_path);
    }
    IndexEntry ne;
    ne.value_offset = new_size + static_cast<long>(kHeaderSize + key.size());
    ne.value_len = value_len;
    new_index[key] = ne;
    new_size += static_cast<long>(RecordSize(key.size(), value.size()));
  }
  std::fflush(tmp);
  std::fclose(std::exchange(file_, nullptr));
  std::fclose(tmp);
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp_path + " -> " + path_);
  }
  file_ = std::fopen(path_.c_str(), "rb+");
  if (file_ == nullptr) return Status::IOError("reopen failed: " + path_);
  if (std::fseek(file_, new_size, SEEK_SET) != 0) {
    return Status::IOError("seek failed after compaction: " + path_);
  }
  index_ = std::move(new_index);
  file_size_ = new_size;
  dead_bytes_ = 0;
  return Status::OK();
}

}  // namespace tencentrec::tdstore
