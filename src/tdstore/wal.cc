#include "tdstore/wal.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

namespace tencentrec::tdstore {

namespace {

// File header identifying a TDStore write-ahead log ("TDWL", version 1).
constexpr uint32_t kMagic = 0x4c574454;
constexpr uint32_t kVersion = 1;

constexpr size_t kMaxKeyLen = 1u << 24;
constexpr size_t kMaxValueLen = 1u << 28;
// Record payload upper bound (a Multi* run is capped far below this by the
// batching layer; the bound only rejects garbage length fields).
constexpr size_t kMaxRecordLen = 1u << 30;

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  payload.push_back(static_cast<char>(record.kind));
  PutFixed32LE(&payload, static_cast<uint32_t>(record.instance_id));
  PutFixed64LE(&payload, record.barrier_id);
  PutFixed32LE(&payload, static_cast<uint32_t>(record.ops.size()));
  for (const auto& op : record.ops) {
    payload.push_back(op.is_delete ? 1 : 0);
    PutFixed32LE(&payload, static_cast<uint32_t>(op.key.size()));
    PutFixed32LE(&payload, static_cast<uint32_t>(op.value.size()));
    payload += op.key;
    payload += op.value;
  }
  return payload;
}

Result<WalRecord> DecodeWalRecord(const std::string& payload) {
  constexpr size_t kHeader = 1 + 4 + 8 + 4;
  if (payload.size() < kHeader) {
    return Status::Corruption("wal record too short");
  }
  WalRecord record;
  const uint8_t kind = static_cast<uint8_t>(payload[0]);
  if (kind > static_cast<uint8_t>(WalRecord::Kind::kBarrier)) {
    return Status::Corruption("unknown wal record kind");
  }
  record.kind = static_cast<WalRecord::Kind>(kind);
  record.instance_id = static_cast<int32_t>(GetFixed32LE(payload.data() + 1));
  record.barrier_id = GetFixed64LE(payload.data() + 5);
  const uint32_t op_count = GetFixed32LE(payload.data() + 13);
  size_t pos = kHeader;
  record.ops.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    if (pos + 9 > payload.size()) {
      return Status::Corruption("wal record op header truncated");
    }
    WalOp op;
    op.is_delete = payload[pos] != 0;
    const uint32_t key_len = GetFixed32LE(payload.data() + pos + 1);
    const uint32_t value_len = GetFixed32LE(payload.data() + pos + 5);
    pos += 9;
    if (key_len > kMaxKeyLen || value_len > kMaxValueLen ||
        pos + key_len + value_len > payload.size()) {
      return Status::Corruption("wal record op body truncated");
    }
    op.key = payload.substr(pos, key_len);
    pos += key_len;
    op.value = payload.substr(pos, value_len);
    pos += value_len;
    record.ops.push_back(std::move(op));
  }
  if (pos != payload.size()) {
    return Status::Corruption("wal record trailing bytes");
  }
  return record;
}

Wal::~Wal() { Close(); }

Status Wal::Open(const std::string& path, const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return Status::FailedPrecondition("wal already open");
  if (path.empty()) return Status::InvalidArgument("wal needs a path");
  path_ = path;
  options_ = options;
  recovered_.clear();
  recovered_ends_.clear();
  recovered_last_barrier_ = 0;
  records_ = 0;

  auto& reg = MetricRegistry::Default();
  appends_ = reg.GetCounter("store.wal.appends");
  appended_bytes_ = reg.GetCounter("store.wal.appended_bytes");
  syncs_ = reg.GetCounter("store.wal.syncs");

  std::FILE* existing = std::fopen(path_.c_str(), "rb");
  long valid_bytes = 0;
  bool has_header = false;
  if (existing != nullptr) {
    Status header = ReadLogHeader(existing, kMagic, kVersion, path_);
    if (header.IsCorruption()) {
      std::fclose(existing);
      return header;
    }
    if (header.ok()) {
      has_header = true;
      valid_bytes = static_cast<long>(kLogHeaderSize);
      while (true) {
        auto frame = ReadFrame(existing, kMaxRecordLen, path_);
        if (!frame.ok()) break;
        auto record = DecodeWalRecord(*frame);
        if (!record.ok()) break;
        if (record->kind == WalRecord::Kind::kBarrier &&
            record->barrier_id > recovered_last_barrier_) {
          recovered_last_barrier_ = record->barrier_id;
        }
        valid_bytes += static_cast<long>(kFrameOverhead + frame->size());
        recovered_.push_back(std::move(record).value());
        recovered_ends_.push_back(valid_bytes);
      }
    }
    std::fclose(existing);
  }

  file_ = std::fopen(path_.c_str(), existing != nullptr ? "rb+" : "wb+");
  if (file_ == nullptr) return Status::IOError("cannot open " + path_);
  // Physically drop the torn tail (or a header-less stub).
  if (::ftruncate(::fileno(file_), valid_bytes) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IOError("cannot truncate " + path_);
  }
  if (!has_header) {
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        !WriteLogHeader(file_, kMagic, kVersion, path_).ok()) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::IOError("cannot write header of " + path_);
    }
    valid_bytes = static_cast<long>(kLogHeaderSize);
    TR_RETURN_IF_ERROR(SyncLocked(SyncPolicy::kFsyncEveryAppend));
  } else if (std::fseek(file_, valid_bytes, SEEK_SET) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::IOError("cannot seek " + path_);
  }
  tail_bytes_ = valid_bytes;
  records_ = recovered_.size();
  last_sync_micros_ = MonoMicros();
  return Status::OK();
}

Status Wal::SyncLocked(SyncPolicy effective) {
  TR_RETURN_IF_ERROR(SyncFile(file_, effective, path_));
  if (effective != SyncPolicy::kNone && syncs_ != nullptr) syncs_->Add();
  return Status::OK();
}

Status Wal::AppendPayloadLocked(const std::string& payload, bool is_barrier) {
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  auto written = AppendFrame(file_, payload, path_);
  if (!written.ok()) {
    // Roll the torn record off the disk: the file must always end at a
    // record boundary so the next Open recovers cleanly.
    (void)std::fflush(file_);
    (void)::ftruncate(::fileno(file_), tail_bytes_);
    (void)std::fseek(file_, tail_bytes_, SEEK_SET);
    return written.status();
  }
  tail_bytes_ += static_cast<long>(*written);
  ++records_;
  if (appends_ != nullptr) {
    appends_->Add();
    appended_bytes_->Add(*written);
  }

  if (is_barrier) {
    // The barrier is what recovery trusts; it must be on the platter.
    last_sync_micros_ = MonoMicros();
    return SyncLocked(SyncPolicy::kFsyncEveryAppend);
  }
  switch (options_.sync) {
    case SyncPolicy::kNone:
      return Status::OK();
    case SyncPolicy::kFlushEveryAppend:
    case SyncPolicy::kFsyncEveryAppend:
      return SyncLocked(options_.sync);
    case SyncPolicy::kGroupCommit: {
      const uint64_t now = MonoMicros();
      if (now - last_sync_micros_ >= options_.group_commit_interval_micros) {
        last_sync_micros_ = now;
        return SyncLocked(SyncPolicy::kFsyncEveryAppend);
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

Status Wal::Append(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendPayloadLocked(EncodeWalRecord(record),
                             record.kind == WalRecord::Kind::kBarrier);
}

Status Wal::AppendOps(int32_t instance_id, const WalOp* ops, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  // Same payload EncodeWalRecord produces for a kOps record, built into the
  // reusable scratch buffer straight from the caller's ops.
  std::string& payload = encode_buf_;
  payload.clear();
  size_t need = 1 + 4 + 8 + 4;
  for (size_t i = 0; i < count; ++i) {
    need += 9 + ops[i].key.size() + ops[i].value.size();
  }
  payload.reserve(need);
  payload.push_back(static_cast<char>(WalRecord::Kind::kOps));
  PutFixed32LE(&payload, static_cast<uint32_t>(instance_id));
  PutFixed64LE(&payload, 0);  // barrier_id
  PutFixed32LE(&payload, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    payload.push_back(ops[i].is_delete ? 1 : 0);
    PutFixed32LE(&payload, static_cast<uint32_t>(ops[i].key.size()));
    PutFixed32LE(&payload, static_cast<uint32_t>(ops[i].value.size()));
    payload.append(ops[i].key);
    payload.append(ops[i].value);
  }
  return AppendPayloadLocked(payload, /*is_barrier=*/false);
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  last_sync_micros_ = MonoMicros();
  return SyncLocked(SyncPolicy::kFsyncEveryAppend);
}

std::vector<WalRecord> Wal::TakeRecovered() {
  std::lock_guard<std::mutex> lock(mu_);
  recovered_ends_.clear();
  return std::exchange(recovered_, {});
}

Status Wal::TruncateToBarrier(uint64_t barrier_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  long end = static_cast<long>(kLogHeaderSize);
  size_t keep = 0;
  if (barrier_id != 0) {
    bool found = false;
    for (size_t i = 0; i < recovered_.size(); ++i) {
      if (recovered_[i].kind == WalRecord::Kind::kBarrier &&
          recovered_[i].barrier_id == barrier_id) {
        end = recovered_ends_[i];
        keep = i + 1;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("no barrier " + std::to_string(barrier_id) +
                              " in " + path_);
    }
  }
  if (std::fflush(file_) != 0 || ::ftruncate(::fileno(file_), end) != 0 ||
      std::fseek(file_, end, SEEK_SET) != 0) {
    return Status::IOError("cannot truncate " + path_);
  }
  recovered_.resize(keep);
  recovered_ends_.resize(keep);
  recovered_last_barrier_ = barrier_id;
  tail_bytes_ = end;
  records_ = keep;
  return Status::OK();
}

Status Wal::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  const std::string tmp = path_ + ".tmp";
  std::FILE* fresh = std::fopen(tmp.c_str(), "wb");
  if (fresh == nullptr) return Status::IOError("cannot open " + tmp);
  Status header = WriteLogHeader(fresh, kMagic, kVersion, tmp);
  if (header.ok() && std::fflush(fresh) != 0) {
    header = Status::IOError("fflush failed on " + tmp);
  }
  if (header.ok() && ::fsync(::fileno(fresh)) != 0) {
    header = Status::IOError("fsync failed on " + tmp);
  }
  std::fclose(fresh);
  if (!header.ok()) {
    std::remove(tmp.c_str());
    return header;
  }
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp + " -> " + path_);
  }
  file_ = std::fopen(path_.c_str(), "rb+");
  if (file_ == nullptr) return Status::IOError("reopen failed: " + path_);
  if (std::fseek(file_, static_cast<long>(kLogHeaderSize), SEEK_SET) != 0) {
    return Status::IOError("seek failed: " + path_);
  }
  tail_bytes_ = static_cast<long>(kLogHeaderSize);
  records_ = 0;
  recovered_.clear();
  recovered_ends_.clear();
  recovered_last_barrier_ = 0;
  last_sync_micros_ = MonoMicros();
  return Status::OK();
}

uint64_t Wal::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

Status Wal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
  return Status::OK();
}

}  // namespace tencentrec::tdstore
