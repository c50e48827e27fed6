#include "topo/store_cache.h"

#include "tdstore/codec.h"

namespace tencentrec::topo {

void StoreCache::Touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

void StoreCache::InsertOrUpdate(const std::string& key, std::string value,
                                bool negative) {
  if (capacity_ == 0) return;  // cache disabled: nothing can be held
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.value = std::move(value);
    it->second.negative = negative;
    Touch(it->second);
    return;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(value), negative, lru_.begin()};
}

Result<std::string> StoreCache::StoreRead(const std::string& key) {
  // A staged put that has not shipped yet is the key's newest value (the
  // cached copy may have been evicted since staging).
  if (const std::string* staged = writer_->StagedPut(key)) return *staged;
  return client_->Get(key);
}

Result<std::string> StoreCache::Get(const std::string& key) {
  if (!Active()) {
    ++stats_.misses;
    return StoreRead(key);
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.negative) {
      ++stats_.negative_hits;
      Touch(it->second);
      return Status::NotFound(key);
    }
    ++stats_.hits;
    Touch(it->second);
    return it->second.value;
  }
  ++stats_.misses;
  auto value = StoreRead(key);
  if (!value.ok()) {
    if (value.status().IsNotFound()) {
      InsertOrUpdate(key, "", /*negative=*/true);
    }
    return value.status();
  }
  InsertOrUpdate(key, *value);
  return value;
}

Status StoreCache::Put(const std::string& key, std::string value) {
  ++stats_.writes;
  // A flush-time failure leaves the put staged on the writer, which
  // retries it; the cache entry stays ahead of the store meanwhile.
  writer_->Put(key, value);
  if (Active()) InsertOrUpdate(key, std::move(value));
  return Status::OK();
}

Result<double> StoreCache::AddDouble(const std::string& key, double delta) {
  if (!Active()) {
    ++stats_.misses;
    ++stats_.writes;
    if (writer_->StagedPut(key) != nullptr) {
      // The staged put must land before a point incr, or its later flush
      // would clobber the increment.
      TR_RETURN_IF_ERROR(writer_->Flush());
    }
    return client_->IncrDouble(key, delta);
  }
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
    auto value = StoreRead(key);
    if (value.ok()) {
      auto decoded = tdstore::DecodeDouble(*value);
      if (!decoded.ok()) return decoded.status();
      current = *decoded;
    } else if (!value.status().IsNotFound()) {
      return value.status();
    }
  }
  const double next = current + delta;
  TR_RETURN_IF_ERROR(Put(key, tdstore::EncodeDouble(next)));
  return next;
}

void StoreCache::Clear() {
  lru_.clear();
  entries_.clear();
}

}  // namespace tencentrec::topo
