#include "tdstore/batch_writer.h"

#include <memory>

#include "common/trace.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {

BatchWriter::BatchWriter(Client* client, Options options)
    : client_(client), options_(options) {
  if (options_.max_ops == 0) options_.max_ops = 1;
  if (MetricsEnabled()) {
    auto& reg = MetricRegistry::Default();
    staged_ops_ = reg.GetCounter("tdstore.batch_writer.staged_ops");
    flushed_batches_ = reg.GetCounter("tdstore.batch_writer.flushes");
    coalesced_puts_ = reg.GetCounter("tdstore.batch_writer.coalesced_puts");
  }
}

void BatchWriter::ResolveKindConflict(std::string_view key, Kind kind) {
  auto it = staged_kind_.find(std::string(key));
  if (it != staged_kind_.end() && it->second != kind) (void)Flush();
}

void BatchWriter::Put(std::string_view key, std::string_view value,
                      PutCallback cb) {
  ResolveKindConflict(key, Kind::kPut);
  if (staged_ops_ != nullptr) staged_ops_->Add();
  std::string k(key);
  auto idx_it = put_index_.find(k);
  if (idx_it != put_index_.end()) {
    // Last value wins; the superseded op's callback fires with the final
    // op's outcome (the overwrite made its effect unobservable anyway).
    StagedOp& op = ops_[idx_it->second];
    op.value = std::string(value);
    if (op.trace_id == 0) op.trace_id = CurrentTraceId();
    if (cb != nullptr) {
      if (op.put_cb != nullptr) {
        PutCallback prev = std::move(op.put_cb);
        op.put_cb = [prev = std::move(prev),
                     cb = std::move(cb)](const Status& s) {
          prev(s);
          cb(s);
        };
      } else {
        op.put_cb = std::move(cb);
      }
    }
    if (coalesced_puts_ != nullptr) coalesced_puts_->Add();
    return;
  }
  StagedOp op;
  op.kind = Kind::kPut;
  op.key = k;
  op.value = std::string(value);
  op.put_cb = std::move(cb);
  op.trace_id = CurrentTraceId();
  put_index_[k] = ops_.size();
  staged_kind_[std::move(k)] = Kind::kPut;
  ops_.push_back(std::move(op));
  MaybeAutoFlush();
}

void BatchWriter::PutDouble(std::string_view key, double value,
                            PutCallback cb) {
  Put(key, EncodeDouble(value), std::move(cb));
}

void BatchWriter::IncrDouble(std::string_view key, double delta,
                             IncrDoubleCallback cb) {
  ResolveKindConflict(key, Kind::kIncrDouble);
  if (staged_ops_ != nullptr) staged_ops_->Add();
  StagedOp op;
  op.kind = Kind::kIncrDouble;
  op.key = std::string(key);
  op.ddelta = delta;
  op.incr_double_cb = std::move(cb);
  op.trace_id = CurrentTraceId();
  staged_kind_[op.key] = Kind::kIncrDouble;
  ops_.push_back(std::move(op));
  MaybeAutoFlush();
}

const std::string* BatchWriter::StagedPut(const std::string& key) const {
  auto it = put_index_.find(key);
  if (it == put_index_.end()) return nullptr;
  return &ops_[it->second].value;
}

bool BatchWriter::HasStaged(const std::string& key) const {
  return staged_kind_.find(key) != staged_kind_.end();
}

void BatchWriter::MaybeAutoFlush() {
  if (ops_.size() >= options_.max_ops) (void)Flush();
}

Status BatchWriter::Flush() {
  if (ops_.empty()) return Status::OK();
  std::vector<StagedOp> ops = std::move(ops_);
  ops_.clear();
  put_index_.clear();
  staged_kind_.clear();
  ++flushes_;
  if (flushed_batches_ != nullptr) flushed_batches_->Add();

  // Partition by kind, remembering where each op landed. Per-key ordering
  // survives because staging never mixes kinds for one key.
  std::vector<std::pair<std::string, std::string>> puts;
  std::vector<size_t> put_src;
  std::vector<std::pair<std::string, double>> dadds;
  std::vector<size_t> dadd_src;
  for (size_t i = 0; i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case Kind::kPut:
        puts.emplace_back(ops[i].key, std::move(ops[i].value));
        put_src.push_back(i);
        break;
      case Kind::kIncrDouble:
        dadds.emplace_back(ops[i].key, ops[i].ddelta);
        dadd_src.push_back(i);
        break;
    }
  }

  Status first_error;
  auto note = [&first_error, this](const Status& s) {
    if (s.ok()) return;
    if (first_error.ok()) first_error = s;
    if (last_error_.ok()) last_error_ = s;
  };
  // Staging detached these writes from the Executes that issued them;
  // re-attach each sampled op by spanning this flush's store call under its
  // staged trace id, so a sampled trace still reaches tdstore.write.
  auto sampled_spans = [&ops](const std::vector<size_t>& src) {
    std::vector<std::unique_ptr<ScopedSpan>> spans;
    for (size_t i : src) {
      if (ops[i].trace_id != 0) {
        spans.push_back(
            std::make_unique<ScopedSpan>(ops[i].trace_id, "tdstore.write"));
      }
    }
    return spans;
  };

  if (!puts.empty()) {
    std::vector<Status> statuses;
    Status overall;
    {
      auto spans = sampled_spans(put_src);
      overall = client_->MultiPut(puts, &statuses);
    }
    for (size_t i = 0; i < put_src.size(); ++i) {
      const Status& s = overall.ok() ? statuses[i] : overall;
      note(s);
      if (ops[put_src[i]].put_cb != nullptr) ops[put_src[i]].put_cb(s);
    }
  }
  if (!dadds.empty()) {
    std::vector<Result<double>> results;
    Status overall;
    {
      auto spans = sampled_spans(dadd_src);
      overall = client_->MultiIncrDouble(dadds, &results);
    }
    for (size_t i = 0; i < dadd_src.size(); ++i) {
      Result<double> r = overall.ok() ? std::move(results[i])
                                      : Result<double>(overall);
      note(r.status());
      if (ops[dadd_src[i]].incr_double_cb != nullptr) {
        ops[dadd_src[i]].incr_double_cb(r);
      }
    }
  }
  return first_error;
}

}  // namespace tencentrec::tdstore
