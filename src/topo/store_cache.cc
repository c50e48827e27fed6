#include "topo/store_cache.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "tdstore/codec.h"

namespace tencentrec::topo {

StoreCache::StoreCache(tdstore::Client* client, size_t capacity)
    : client_(client), capacity_(capacity) {
  if (MetricsEnabled()) {
    auto& reg = MetricRegistry::Default();
    staged_ops_ = reg.GetCounter("topo.store_cache.staged_ops");
    flushed_batches_ = reg.GetCounter("topo.store_cache.flushes");
    coalesced_puts_ = reg.GetCounter("topo.store_cache.coalesced_puts");
  }
}

void StoreCache::Touch(Entry& entry) {
  if (!entry.dirty) lru_.splice(lru_.begin(), lru_, entry.node);
}

void StoreCache::Trim() {
  while (lru_.size() > capacity_) {
    const std::string* key = lru_.back();
    lru_.pop_back();
    entries_.erase(entries_.find(*key));
  }
}

void StoreCache::InsertClean(const std::string& key, std::string value,
                             bool negative) {
  if (capacity_ == 0) return;  // would be evicted at once
  auto it = entries_.emplace(key, Entry{std::move(value), negative,
                                        /*dirty=*/false, /*trace=*/0, {}})
                .first;
  lru_.push_front(&it->first);
  it->second.node = lru_.begin();
  Trim();
}

Result<std::string> StoreCache::Get(const std::string& key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& entry = it->second;
    Touch(entry);
    if (entry.negative) {
      ++stats_.negative_hits;
      return Status::NotFound(key);
    }
    ++stats_.hits;
    return entry.value;
  }
  ++stats_.misses;
  auto value = client_->Get(key);
  if (!value.ok()) {
    if (value.status().IsNotFound()) InsertClean(key, "", /*negative=*/true);
    return value.status();
  }
  InsertClean(key, *value, /*negative=*/false);
  return value;
}

void StoreCache::Put(const std::string& key, std::string value) {
  ++stats_.writes;
  if (staged_ops_ != nullptr) staged_ops_->Add();
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& entry = it->second;
  entry.value = std::move(value);
  entry.negative = false;
  if (entry.dirty) {
    // Last value wins; the put keeps its place in the shipping order.
    if (entry.trace == 0) entry.trace = CurrentTraceId();
    if (coalesced_puts_ != nullptr) coalesced_puts_->Add();
    return;
  }
  entry.dirty = true;
  entry.trace = CurrentTraceId();
  if (inserted) {
    entry.node = staged_.insert(staged_.end(), &it->first);
  } else {
    staged_.splice(staged_.end(), lru_, entry.node);
  }
  if (staged_.size() >= flush_at_) (void)Flush();
}

Result<double> StoreCache::AddDouble(const std::string& key, double delta) {
  double current = 0.0;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.negative) {
      // Known-absent: the add starts from 0 with no store read; the Put
      // below replaces the negative entry.
      ++stats_.negative_hits;
    } else {
      ++stats_.hits;
      auto decoded = tdstore::DecodeDouble(it->second.value);
      if (!decoded.ok()) return decoded.status();
      current = *decoded;
    }
  } else {
    ++stats_.misses;
    auto value = client_->Get(key);
    if (value.ok()) {
      auto decoded = tdstore::DecodeDouble(*value);
      if (!decoded.ok()) return decoded.status();
      current = *decoded;
    } else if (!value.status().IsNotFound()) {
      return value.status();
    }
  }
  const double next = current + delta;
  Put(key, tdstore::EncodeDouble(next));
  return next;
}

Status StoreCache::Flush() {
  if (staged_.empty()) return Status::OK();
  ++flushes_;
  if (flushed_batches_ != nullptr) flushed_batches_->Add();

  // Views of the entries' own strings: neither moves before MultiPut returns.
  std::vector<std::pair<std::string_view, std::string_view>> puts;
  std::vector<Entry*> shipped;
  puts.reserve(staged_.size());
  shipped.reserve(staged_.size());
  for (const std::string* key : staged_) {
    Entry& entry = entries_.find(*key)->second;
    puts.emplace_back(*key, entry.value);
    shipped.push_back(&entry);
  }
  std::vector<Status> statuses;
  Status overall;
  {
    // Staging detached these writes from the Executes that issued them;
    // re-attach each sampled put by spanning this flush's store call under
    // its staged trace id, so a sampled trace still reaches tdstore.write.
    std::vector<std::unique_ptr<ScopedSpan>> spans;
    for (const Entry* entry : shipped) {
      if (entry->trace != 0) {
        spans.push_back(
            std::make_unique<ScopedSpan>(entry->trace, "tdstore.write"));
      }
    }
    overall = client_->MultiPut(puts, &statuses);
  }
  Status first_error;
  for (size_t i = 0; i < shipped.size(); ++i) {
    const Status& s = overall.ok() ? statuses[i] : overall;
    if (!s.ok()) {
      // Stays staged, in its place, for the next flush (at-least-once).
      if (first_error.ok()) first_error = s;
      continue;
    }
    Entry& entry = *shipped[i];
    entry.dirty = false;
    entry.trace = 0;
    lru_.splice(lru_.begin(), staged_, entry.node);
  }
  Trim();
  // Re-staged puts wait for kFlushAt new ones before the next auto-flush
  // retries them, so a store outage costs no store call per staged put.
  flush_at_ = staged_.size() + kFlushAt;
  if (!first_error.ok() && last_error_.ok()) last_error_ = first_error;
  return first_error;
}

}  // namespace tencentrec::topo
