#include "tdstore/engine.h"

#include <unistd.h>

#include <cstdio>

#include "common/recordio.h"
#include "tdstore/fdb_engine.h"
#include "tdstore/ldb_engine.h"
#include "tdstore/mdb_engine.h"
#include "tdstore/rdb_engine.h"

namespace tencentrec::tdstore {

namespace {

// Engine snapshot file ("TDSN", version 1). Frame payloads:
//   kv record: [u8 0][u32 key_len][u32 value_len][key][value]
//   footer:    [u8 1][u64 count]
constexpr uint32_t kSnapMagic = 0x4e534454;
constexpr uint32_t kSnapVersion = 1;
constexpr uint8_t kTagKv = 0;
constexpr uint8_t kTagFooter = 1;
constexpr size_t kMaxSnapKeyLen = 1u << 24;
constexpr size_t kMaxSnapValueLen = 1u << 28;

}  // namespace

Result<std::unique_ptr<SnapshotWriter>> SnapshotWriter::Create(
    const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("snapshot needs a path");
  std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::IOError("cannot open " + tmp);
  Status header = WriteLogHeader(file, kSnapMagic, kSnapVersion, tmp);
  if (!header.ok()) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return header;
  }
  return std::unique_ptr<SnapshotWriter>(
      new SnapshotWriter(path, std::move(tmp), file));
}

SnapshotWriter::~SnapshotWriter() {
  if (file_ != nullptr) {  // dropped without Finish: abandon the temp file
    std::fclose(file_);
    std::remove(tmp_.c_str());
  }
}

Status SnapshotWriter::Add(std::string_view key, std::string_view value) {
  if (file_ == nullptr) return Status::FailedPrecondition("snapshot finished");
  std::string payload;
  payload.reserve(9 + key.size() + value.size());
  payload.push_back(static_cast<char>(kTagKv));
  PutFixed32LE(&payload, static_cast<uint32_t>(key.size()));
  PutFixed32LE(&payload, static_cast<uint32_t>(value.size()));
  payload += key;
  payload += value;
  auto written = AppendFrame(file_, payload, tmp_);
  if (!written.ok()) return written.status();
  ++count_;
  return Status::OK();
}

Status SnapshotWriter::Finish() {
  if (file_ == nullptr) return Status::FailedPrecondition("snapshot finished");
  std::string footer;
  footer.push_back(static_cast<char>(kTagFooter));
  PutFixed64LE(&footer, count_);
  Status s = AppendFrame(file_, footer, tmp_).status();
  if (s.ok() && std::fflush(file_) != 0) {
    s = Status::IOError("fflush failed on " + tmp_);
  }
  if (s.ok() && ::fsync(::fileno(file_)) != 0) {
    s = Status::IOError("fsync failed on " + tmp_);
  }
  std::fclose(file_);
  file_ = nullptr;
  if (!s.ok()) {
    std::remove(tmp_.c_str());
    return s;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return Status::IOError("rename failed: " + tmp_ + " -> " + path_);
  }
  return Status::OK();
}

Status ReadSnapshot(
    const std::string& path,
    const std::function<Status(std::string key, std::string value)>& apply) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("no snapshot at " + path);
  Status header = ReadLogHeader(file, kSnapMagic, kSnapVersion, path);
  if (!header.ok()) {
    std::fclose(file);
    return header.IsNotFound()
               ? Status::Corruption("snapshot header truncated: " + path)
               : header;
  }
  uint64_t applied = 0;
  bool saw_footer = false;
  Status result = Status::OK();
  while (true) {
    auto frame = ReadFrame(file, 9 + kMaxSnapKeyLen + kMaxSnapValueLen, path);
    if (frame.status().IsNotFound()) break;  // clean EOF
    if (!frame.ok()) {
      result = frame.status();
      break;
    }
    if (saw_footer) {
      result = Status::Corruption("snapshot records after footer: " + path);
      break;
    }
    const std::string& payload = *frame;
    if (payload.empty()) {
      result = Status::Corruption("empty snapshot record: " + path);
      break;
    }
    const uint8_t tag = static_cast<uint8_t>(payload[0]);
    if (tag == kTagFooter) {
      if (payload.size() != 9 || GetFixed64LE(payload.data() + 1) != applied) {
        result = Status::Corruption("snapshot footer mismatch: " + path);
        break;
      }
      saw_footer = true;
      continue;
    }
    if (tag != kTagKv || payload.size() < 9) {
      result = Status::Corruption("bad snapshot record: " + path);
      break;
    }
    const uint32_t key_len = GetFixed32LE(payload.data() + 1);
    const uint32_t value_len = GetFixed32LE(payload.data() + 5);
    if (payload.size() != 9 + static_cast<size_t>(key_len) + value_len) {
      result = Status::Corruption("snapshot record length mismatch: " + path);
      break;
    }
    result = apply(payload.substr(9, key_len), payload.substr(9 + key_len));
    if (!result.ok()) break;
    ++applied;
  }
  std::fclose(file);
  TR_RETURN_IF_ERROR(result);
  if (!saw_footer) {
    // The footer is the commit marker: without it this file is a snapshot
    // that never finished (and Finish()'s rename should have kept it from
    // ever landing at `path`).
    return Status::Corruption("snapshot missing footer: " + path);
  }
  return Status::OK();
}

Status Engine::SnapshotTo(const std::string& path) const {
  auto writer = SnapshotWriter::Create(path);
  if (!writer.ok()) return writer.status();
  Status add = Status::OK();
  Status scan =
      ScanPrefix("", [&](std::string_view key, std::string_view value) {
        add = (*writer)->Add(key, value);
        return add.ok();
      });
  TR_RETURN_IF_ERROR(scan);
  TR_RETURN_IF_ERROR(add);
  return (*writer)->Finish();
}

Status Engine::RestoreFrom(const std::string& path) {
  // Batched so engines with a MultiPut fast path (one lock/seal check per
  // batch) restore at bulk-load speed rather than per-record.
  std::vector<std::pair<std::string, std::string>> batch;
  constexpr size_t kBatch = 1024;
  Status s = ReadSnapshot(path, [&](std::string key, std::string value) {
    batch.emplace_back(std::move(key), std::move(value));
    if (batch.size() >= kBatch) {
      Status put = MultiPut(std::move(batch));
      batch.clear();
      return put;
    }
    return Status::OK();
  });
  TR_RETURN_IF_ERROR(s);
  if (!batch.empty()) TR_RETURN_IF_ERROR(MultiPut(std::move(batch)));
  return Status::OK();
}

Result<std::unique_ptr<Engine>> CreateEngine(const EngineOptions& options) {
  switch (options.type) {
    case EngineType::kMdb:
      return std::unique_ptr<Engine>(std::make_unique<MdbEngine>());
    case EngineType::kLdb:
      return std::unique_ptr<Engine>(std::make_unique<LdbEngine>(options));
    case EngineType::kFdb: {
      auto engine = FdbEngine::Open(options);
      if (!engine.ok()) return engine.status();
      return std::unique_ptr<Engine>(std::move(engine).value());
    }
    case EngineType::kRdb: {
      auto engine = RdbEngine::Open(options);
      if (!engine.ok()) return engine.status();
      return std::unique_ptr<Engine>(std::move(engine).value());
    }
  }
  return Status::InvalidArgument("unknown engine type");
}

}  // namespace tencentrec::tdstore
