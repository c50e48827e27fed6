#include "tdstore/data_server.h"

#include <algorithm>

#include "common/metrics.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {

Status DataServer::CreateInstance(int instance_id,
                                  const EngineOptions& options) {
  if (down_.load()) return Status::Unavailable("data server down");
  std::lock_guard lock(map_mu_);
  if (instances_.count(instance_id) > 0) {
    return Status::AlreadyExists("instance exists: " +
                                 std::to_string(instance_id));
  }
  auto engine = CreateEngine(options);
  if (!engine.ok()) return engine.status();
  auto inst = std::make_unique<Instance>();
  inst->engine = std::move(engine).value();
  instances_[instance_id] = std::move(inst);
  return Status::OK();
}

bool DataServer::HasInstance(int instance_id) const {
  std::lock_guard lock(map_mu_);
  return instances_.count(instance_id) > 0;
}

DataServer::Instance* DataServer::FindInstance(int instance_id) const {
  std::lock_guard lock(map_mu_);
  auto it = instances_.find(instance_id);
  return it == instances_.end() ? nullptr : it->second.get();
}

Status DataServer::SetSlave(int instance_id, DataServer* slave) {
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  inst->slave = slave;
  return Status::OK();
}

void DataServer::ClearAllSlaves() {
  std::lock_guard lock(map_mu_);
  for (auto& [id, inst] : instances_) {
    std::lock_guard ilock(inst->mu);
    inst->slave = nullptr;
    inst->is_host = false;
    inst->pending.clear();
  }
}

Status DataServer::SetHostRole(int instance_id, bool is_host) {
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  inst->is_host = is_host;
  return Status::OK();
}

Status DataServer::ClearInstance(int instance_id) {
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  std::vector<std::string> keys;
  TR_RETURN_IF_ERROR(inst->engine->ScanPrefix(
      "", [&](std::string_view key, std::string_view) {
        keys.emplace_back(key);
        return true;
      }));
  for (const auto& key : keys) {
    TR_RETURN_IF_ERROR(inst->engine->Delete(key));
  }
  return Status::OK();
}

namespace {

/// The put write (point Put and MultiPut): the logged value is the item's.
struct PutWrite {
  template <typename Item>
  Status operator()(Engine* engine, const Item& item, std::string*,
                    std::string_view* value) const {
    *value = item.value;
    return engine->Put(item.key, item.value);
  }
};

/// The increment write: read-modify-write of one 8-byte double (missing
/// key = 0), logged as the encoded post-increment value so that replay and
/// replication overwrite rather than re-add.
struct IncrWrite {
  Result<double> operator()(Engine* engine, const BatchIncrDouble& item,
                            std::string* scratch,
                            std::string_view* value) const {
    double current = 0.0;
    auto existing = engine->Get(item.key);
    if (existing.ok()) {
      Result<double> decoded = DecodeDouble(*existing);
      if (!decoded.ok()) return decoded.status();
      current = *decoded;
    } else if (!existing.status().IsNotFound()) {
      return existing.status();
    }
    const double next = current + item.delta;
    EncodeDoubleTo(scratch, next);
    TR_RETURN_IF_ERROR(engine->Put(item.key, *scratch));
    *value = *scratch;
    return next;
  }
};

}  // namespace

template <typename InstanceOf, typename Out, typename Run>
Status DataServer::RunLoop(size_t n, InstanceOf instance_of, Out* out,
                           std::atomic<int64_t>* per_item, Run run) const {
  if (down_.load()) return Status::Unavailable("data server down");
  invocations_.fetch_add(1, std::memory_order_relaxed);
  size_t i = 0;
  while (i < n) {
    const int instance_id = instance_of(i);
    size_t j = i + 1;
    while (j < n && instance_of(j) == instance_id) ++j;
    Status refused;
    Status failed;
    Instance* inst = FindInstance(instance_id);
    if (inst == nullptr) {
      refused = Status::NotFound("no instance " + std::to_string(instance_id));
    } else {
      InstanceLock lock(inst->mu);
      if (inst->is_host) {
        failed = run(inst, instance_id, lock, i, j);
      } else {
        refused = Status::Unavailable("not the host replica");
      }
    }
    if (!refused.ok()) {
      for (size_t k = i; k < j; ++k) out[k] = refused;
    } else if (per_item != nullptr) {
      per_item->fetch_add(static_cast<int64_t>(j - i),
                          std::memory_order_relaxed);
    }
    TR_RETURN_IF_ERROR(failed);
    i = j;
  }
  return Status::OK();
}

template <typename Item, typename Out, typename Write>
Status DataServer::WriteRuns(const Item* items, size_t n, bool is_delete,
                             Out* out, Write write) {
  return RunLoop(
      n, [items](size_t k) { return items[k].instance_id; }, out, &writes_,
      [&](Instance* inst, int instance_id, InstanceLock&, size_t i, size_t j) {
        // Items apply in input order, so same-key writes in one run see
        // each other. The record is built only when a WAL or a slave will
        // read it.
        const bool record = wal_ != nullptr || inst->slave != nullptr;
        std::vector<WalOp> ops;
        if (record) ops.reserve(j - i);
        std::string scratch;
        for (size_t k = i; k < j; ++k) {
          std::string_view value;
          out[k] = write(inst->engine.get(), items[k], &scratch, &value);
          if (record && StatusOf(out[k]).ok()) {
            ops.push_back(
                {is_delete, std::string(items[k].key), std::string(value)});
          }
        }
        return CommitLocked(inst, instance_id, std::move(ops));
      });
}

Status DataServer::CommitLocked(Instance* inst, int instance_id,
                                std::vector<WalOp>&& ops) {
  if (ops.empty()) return Status::OK();
  // The whole run is one atomic WAL record: recovery replays all of it or
  // (past the commit barrier) none of it.
  if (wal_ != nullptr) {
    TR_RETURN_IF_ERROR(wal_->AppendOps(instance_id, ops.data(), ops.size()));
  }
  if (inst->slave == nullptr) return Status::OK();
  if (sync_replication_) {
    (void)inst->slave->ApplyOps(instance_id, std::move(ops));
  } else {
    inst->pending.push_back(std::move(ops));
  }
  return Status::OK();
}

Status DataServer::Put(int instance_id, std::string_view key,
                       std::string_view value) {
  const BatchPut item{instance_id, key, value};
  Status out;
  TR_RETURN_IF_ERROR(WriteRuns(&item, 1, /*is_delete=*/false, &out,
                               PutWrite()));
  return out;
}

Status DataServer::Delete(int instance_id, std::string_view key) {
  const BatchPut item{instance_id, key, {}};
  Status out;
  TR_RETURN_IF_ERROR(WriteRuns(
      &item, 1, /*is_delete=*/true, &out,
      [](Engine* engine, const BatchPut& it, std::string*, std::string_view*) {
        return engine->Delete(it.key);
      }));
  return out;
}

Result<double> DataServer::IncrDouble(int instance_id, std::string_view key,
                                      double delta) {
  const BatchIncrDouble item{instance_id, key, delta};
  Result<double> out = Status::Internal("unset");
  TR_RETURN_IF_ERROR(
      WriteRuns(&item, 1, /*is_delete=*/false, &out, IncrWrite()));
  return out;
}

Status DataServer::MultiPut(const std::vector<BatchPut>& items,
                            std::vector<Status>* out) {
  out->assign(items.size(), Status::Internal("unset"));
  return WriteRuns(items.data(), items.size(), /*is_delete=*/false,
                   out->data(), PutWrite());
}

Status DataServer::MultiIncrDouble(const std::vector<BatchIncrDouble>& items,
                                   std::vector<Result<double>>* out) {
  out->assign(items.size(), Result<double>(Status::Internal("unset")));
  return WriteRuns(items.data(), items.size(), /*is_delete=*/false,
                   out->data(), IncrWrite());
}

Result<std::string> DataServer::Get(int instance_id,
                                    std::string_view key) const {
  Result<std::string> out = Status::Internal("unset");
  TR_RETURN_IF_ERROR(RunLoop(
      1, [instance_id](size_t) { return instance_id; }, &out, &reads_,
      [&](Instance* inst, int, InstanceLock& lock, size_t, size_t) {
        lock.unlock();  // the engine serializes its own reads
        out = inst->engine->Get(key);
        return Status::OK();
      }));
  return out;
}

Status DataServer::MultiGet(const std::vector<BatchGet>& items,
                            std::vector<Result<std::string>>* out) const {
  out->assign(items.size(), Result<std::string>(Status::Internal("unset")));
  return RunLoop(
      items.size(), [&items](size_t k) { return items[k].instance_id; },
      out->data(), &reads_,
      [&](Instance* inst, int, InstanceLock&, size_t i, size_t j) {
        for (size_t k = i; k < j; ++k) {
          (*out)[k] = inst->engine->Get(items[k].key);
        }
        return Status::OK();
      });
}

Status DataServer::ScanPrefix(
    int instance_id, std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor)
    const {
  Status out;
  TR_RETURN_IF_ERROR(RunLoop(
      1, [instance_id](size_t) { return instance_id; }, &out, nullptr,
      [&](Instance* inst, int, InstanceLock& lock, size_t, size_t) {
        lock.unlock();
        out = inst->engine->ScanPrefix(prefix, visitor);
        return Status::OK();
      }));
  return out;
}

Status DataServer::FlushReplication() {
  if (down_.load()) return Status::Unavailable("data server down");
  std::vector<std::pair<int, Instance*>> snapshot;
  {
    std::lock_guard lock(map_mu_);
    for (auto& [id, inst] : instances_) snapshot.emplace_back(id, inst.get());
  }
  for (auto& [id, inst] : snapshot) {
    std::deque<std::vector<WalOp>> pending;
    DataServer* slave;
    {
      std::lock_guard lock(inst->mu);
      pending.swap(inst->pending);
      slave = inst->slave;
    }
    if (slave == nullptr) continue;
    for (auto& ops : pending) {
      Status s = slave->ApplyOps(id, std::move(ops));
      if (!s.ok() && !s.IsUnavailable()) return s;
    }
  }
  return Status::OK();
}

size_t DataServer::PendingReplication() const {
  std::lock_guard lock(map_mu_);
  size_t n = 0;
  for (const auto& [id, inst] : instances_) {
    std::lock_guard ilock(inst->mu);
    for (const auto& ops : inst->pending) n += ops.size();
  }
  return n;
}

Status DataServer::ApplyOps(int instance_id, std::vector<WalOp> ops) {
  if (down_.load()) return Status::Unavailable("data server down");
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  Engine* engine = inst->engine.get();
  const bool all_puts =
      std::none_of(ops.begin(), ops.end(),
                   [](const WalOp& op) { return op.is_delete; });
  if (all_puts && ops.size() > 1) {
    std::vector<std::pair<std::string, std::string>> kvs;
    kvs.reserve(ops.size());
    for (WalOp& op : ops) {
      kvs.emplace_back(std::move(op.key), std::move(op.value));
    }
    return engine->MultiPut(std::move(kvs));
  }
  for (const WalOp& op : ops) {
    TR_RETURN_IF_ERROR(op.is_delete ? engine->Delete(op.key)
                                    : engine->Put(op.key, op.value));
  }
  return Status::OK();
}

Status DataServer::CopyInstanceTo(int instance_id, DataServer* target) const {
  if (down_.load()) return Status::Unavailable("data server down");
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  // Shipped as put records of up to kChunk keys: one target lock per chunk,
  // on the engine's MultiPut path.
  constexpr size_t kChunk = 1024;
  std::vector<WalOp> chunk;
  Status status = Status::OK();
  TR_RETURN_IF_ERROR(inst->engine->ScanPrefix(
      "", [&](std::string_view key, std::string_view value) {
        chunk.push_back({false, std::string(key), std::string(value)});
        if (chunk.size() < kChunk) return true;
        status = target->ApplyOps(instance_id, std::move(chunk));
        chunk.clear();
        return status.ok();
      }));
  TR_RETURN_IF_ERROR(status);
  return chunk.empty() ? Status::OK()
                       : target->ApplyOps(instance_id, std::move(chunk));
}

size_t DataServer::TotalKeys() const {
  std::lock_guard lock(map_mu_);
  size_t n = 0;
  for (const auto& [id, inst] : instances_) n += inst->engine->Count();
  return n;
}

std::string DataServer::SnapshotPath(int instance_id) const {
  return durable_dir_ + "/server" + std::to_string(server_id_) + ".i" +
         std::to_string(instance_id) + ".snap";
}

Status DataServer::EnableDurability(const std::string& dir,
                                    const Wal::Options& options) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  if (dir.empty()) return Status::InvalidArgument("durability needs a dir");
  auto wal = std::make_unique<Wal>();
  TR_RETURN_IF_ERROR(wal->Open(
      dir + "/server" + std::to_string(server_id_) + ".wal", options));
  durable_dir_ = dir;
  wal_ = std::move(wal);
  return Status::OK();
}

uint64_t DataServer::WalLastBarrier() const {
  return wal_ != nullptr ? wal_->recovered_last_barrier() : 0;
}

Status DataServer::RecoverDurable(uint64_t commit_barrier) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  const uint64_t t0 = MonoMicros();
  std::vector<std::pair<int, Instance*>> snapshot;
  {
    std::lock_guard lock(map_mu_);
    for (auto& [id, inst] : instances_) snapshot.emplace_back(id, inst.get());
  }
  for (auto& [id, inst] : snapshot) {
    std::lock_guard lock(inst->mu);
    Status s = inst->engine->RestoreFrom(SnapshotPath(id));
    if (s.IsNotFound()) continue;  // never checkpointed (or slave role)
    TR_RETURN_IF_ERROR(s);
  }
  // Drop everything past the cluster-wide commit point, then redo the
  // surviving suffix through the one applier: absolute values, installed
  // without logging or replicating them again — the cluster re-seeds slaves
  // from the recovered hosts.
  TR_RETURN_IF_ERROR(wal_->TruncateToBarrier(commit_barrier));
  uint64_t replayed = 0;
  for (WalRecord& rec : wal_->TakeRecovered()) {
    if (rec.kind != WalRecord::Kind::kOps) continue;
    TR_RETURN_IF_ERROR(ApplyOps(rec.instance_id, std::move(rec.ops)));
    ++replayed;
  }
  auto& reg = MetricRegistry::Default();
  reg.GetCounter("store.recovery.replayed_records")->Add(replayed);
  reg.GetCounter("store.recovery.duration_us")->Add(MonoMicros() - t0);
  reg.GetCounter("store.recovery.count")->Add();
  reg.GetGauge("store.recovery.last_barrier")
      ->Set(static_cast<int64_t>(commit_barrier));
  return Status::OK();
}

Status DataServer::AppendBarrier(uint64_t barrier_id) {
  if (down_.load()) return Status::Unavailable("data server down");
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  WalRecord rec;
  rec.kind = WalRecord::Kind::kBarrier;
  rec.barrier_id = barrier_id;
  return wal_->Append(rec);
}

Status DataServer::Checkpoint(uint64_t barrier_id) {
  if (down_.load()) return Status::Unavailable("data server down");
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  const uint64_t t0 = MonoMicros();
  std::vector<std::pair<int, Instance*>> snapshot;
  {
    std::lock_guard lock(map_mu_);
    for (auto& [id, inst] : instances_) snapshot.emplace_back(id, inst.get());
  }
  // All instance locks at once (instances_ is id-ordered, so every
  // checkpointer acquires in the same order): the snapshots and the WAL
  // reset see one cut, with no append landing between them.
  std::vector<std::unique_lock<ProfiledMutex>> locks;
  locks.reserve(snapshot.size());
  for (auto& [id, inst] : snapshot) locks.emplace_back(inst->mu);
  for (auto& [id, inst] : snapshot) {
    if (!inst->is_host) continue;
    TR_RETURN_IF_ERROR(inst->engine->SnapshotTo(SnapshotPath(id)));
  }
  TR_RETURN_IF_ERROR(wal_->Reset());
  if (barrier_id != 0) {
    // Re-seed the committed barrier so recovery after a post-checkpoint
    // crash still reports it (the snapshots contain its state).
    WalRecord rec;
    rec.kind = WalRecord::Kind::kBarrier;
    rec.barrier_id = barrier_id;
    TR_RETURN_IF_ERROR(wal_->Append(rec));
  }
  auto& reg = MetricRegistry::Default();
  reg.GetCounter("store.checkpoint.count")->Add();
  reg.GetCounter("store.checkpoint.duration_us")->Add(MonoMicros() - t0);
  return Status::OK();
}

}  // namespace tencentrec::tdstore
