#include "tdstore/batch_writer.h"

#include <memory>

#include "common/trace.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {

BatchWriter::BatchWriter(Client* client, Options options)
    : client_(client), options_(options) {
  if (options_.max_ops == 0) options_.max_ops = 1;
  flush_at_ = options_.max_ops;
  if (MetricsEnabled()) {
    auto& reg = MetricRegistry::Default();
    staged_ops_ = reg.GetCounter("tdstore.batch_writer.staged_ops");
    flushed_batches_ = reg.GetCounter("tdstore.batch_writer.flushes");
    coalesced_puts_ = reg.GetCounter("tdstore.batch_writer.coalesced_puts");
  }
}

void BatchWriter::Put(std::string_view key, std::string_view value) {
  if (staged_ops_ != nullptr) staged_ops_->Add();
  auto [slot, inserted] = index_.TryEmplace(key);
  if (!inserted) {
    puts_[*slot].second.assign(value);
    uint64_t& trace = traces_[*slot];
    if (trace == 0) trace = CurrentTraceId();
    if (coalesced_puts_ != nullptr) coalesced_puts_->Add();
    return;
  }
  *slot = puts_.size();
  puts_.emplace_back(std::string(key), std::string(value));
  traces_.push_back(CurrentTraceId());
  if (puts_.size() >= flush_at_) (void)Flush();
}

void BatchWriter::PutDouble(std::string_view key, double value) {
  Put(key, EncodeDouble(value));
}

const std::string* BatchWriter::StagedPut(std::string_view key) const {
  const size_t* i = index_.Find(key);
  return i == nullptr ? nullptr : &puts_[*i].second;
}

Status BatchWriter::Flush() {
  if (puts_.empty()) return Status::OK();
  std::vector<std::pair<std::string, std::string>> puts = std::move(puts_);
  std::vector<uint64_t> traces = std::move(traces_);
  puts_.clear();
  traces_.clear();
  index_.Clear();
  ++flushes_;
  if (flushed_batches_ != nullptr) flushed_batches_->Add();

  std::vector<Status> statuses;
  Status overall;
  {
    // Staging detached these writes from the Executes that issued them;
    // re-attach each sampled put by spanning this flush's store call under
    // its staged trace id, so a sampled trace still reaches tdstore.write.
    std::vector<std::unique_ptr<ScopedSpan>> spans;
    for (uint64_t trace : traces) {
      if (trace != 0) {
        spans.push_back(std::make_unique<ScopedSpan>(trace, "tdstore.write"));
      }
    }
    overall = client_->MultiPut(puts, &statuses);
  }
  Status first_error;
  for (size_t i = 0; i < puts.size(); ++i) {
    const Status& s = overall.ok() ? statuses[i] : overall;
    if (s.ok()) continue;
    if (first_error.ok()) first_error = s;
    // Re-staged for the next flush (at-least-once, like the combiner's
    // re-buffer): the caller's cached copy may be evicted before the key
    // is written again, so the writer keeps the value itself.
    index_.InsertOrAssign(puts[i].first, puts_.size());
    puts_.push_back(std::move(puts[i]));
    traces_.push_back(traces[i]);
  }
  // Re-staged puts wait for max_ops new ones before the next auto-flush
  // retries them, so a store outage costs no store call per staged put.
  flush_at_ = puts_.size() + options_.max_ops;
  if (!first_error.ok() && last_error_.ok()) last_error_ = first_error;
  return first_error;
}

}  // namespace tencentrec::tdstore
