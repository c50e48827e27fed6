#ifndef TENCENTREC_COMMON_FLAT_MAP_H_
#define TENCENTREC_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace tencentrec {

/// Open-addressing hash map from uint64 keys to small trivially-copyable
/// values, built for the CF counter workloads (pair counts, item counts,
/// observation counts, table indices) where std::unordered_map's
/// node-per-entry layout was the measured hot spot (DESIGN.md §15: ~58% of
/// per-action CPU in _M_find_before_node/operator[] frames).
///
/// Layout and scheme:
///  - struct-of-arrays: one contiguous key array, one contiguous value
///    array, so a probe touches only key cache lines and a hit loads the
///    value with a single indexed access;
///  - power-of-two capacity with linear probing; slots are addressed by
///    `HashInt(key) & mask` (SplitMix64 finalizer — sequential ids and
///    packed pair keys are both well mixed);
///  - the all-ones key (~0) is the reserved empty sentinel. Item/user ids
///    are non-negative and packed pair keys have lo < hi, so no live key
///    collides with it (checked);
///  - grows at 3/4 load by doubling and rehashing — amortized O(1) upsert;
///  - no per-key erase (the CF tables never need one: sessions are dropped
///    whole, prune/observation/list/history tables are insert-only), which
///    keeps probing tombstone-free.
template <typename V>
class FlatMap64 {
 public:
  static constexpr uint64_t kEmptyKey = ~0ull;

  FlatMap64() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 before the first insert).
  size_t capacity() const { return keys_.size(); }

  /// Pointer to the value for `key`, or nullptr when absent.
  const V* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    const size_t i = Probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }
  V* Find(uint64_t key) {
    return const_cast<V*>(static_cast<const FlatMap64*>(this)->Find(key));
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  /// Upsert: the value for `key`, default-constructed on first access
  /// (matching std::unordered_map::operator[] semantics).
  V& operator[](uint64_t key) {
    TR_CHECK(key != kEmptyKey);
    if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) Grow();
    const size_t i = Probe(key);
    if (keys_[i] == kEmptyKey) {
      keys_[i] = key;
      ++size_;
    }
    return values_[i];
  }

  /// Drops all entries but keeps the allocated capacity (scratch reuse).
  void Clear() {
    if (size_ == 0) return;
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    std::fill(values_.begin(), values_.end(), V{});
    size_ = 0;
  }

  /// Pre-sizes the table for `n` entries without rehash churn.
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) cap *= 2;
    if (cap > keys_.size()) Rehash(cap);
  }

  /// Visits every (key, value) pair. Order is unspecified (slot order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
    }
  }

  /// Hints the cache that `key` is about to be probed: prefetches the home
  /// slot's key and value lines. Batch loops call this one element ahead so
  /// the random-access miss overlaps the current element's work; correct
  /// (just useless) if the key is never actually probed.
  void Prefetch(uint64_t key) const {
    if (keys_.empty()) return;
    const size_t i = static_cast<size_t>(HashInt(key)) & mask_;
    __builtin_prefetch(&keys_[i]);
    __builtin_prefetch(&values_[i]);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  /// Index of `key`'s slot, or of the first empty slot on its probe chain.
  /// Requires a non-empty table with at least one empty slot (guaranteed by
  /// the 3/4 load cap).
  size_t Probe(uint64_t key) const {
    size_t i = static_cast<size_t>(HashInt(key)) & mask_;
    while (keys_[i] != key && keys_[i] != kEmptyKey) i = (i + 1) & mask_;
    return i;
  }

  void Grow() { Rehash(keys_.empty() ? kMinCapacity : keys_.size() * 2); }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_capacity, kEmptyKey);
    values_.assign(new_capacity, V{});
    mask_ = new_capacity - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      const size_t j = Probe(old_keys[i]);
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  uint64_t mask_ = 0;
};

/// Open-addressing set of uint64 keys — FlatMap64 without the value array
/// (pruned-pair sets, tracked-item dedup). Same sentinel/probing scheme.
class FlatSet64 {
 public:
  static constexpr uint64_t kEmptyKey = ~0ull;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(uint64_t key) const {
    if (size_ == 0) return false;
    return keys_[Probe(key)] == key;
  }

  /// Returns true when `key` was newly inserted.
  bool Insert(uint64_t key) {
    TR_CHECK(key != kEmptyKey);
    if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) Grow();
    const size_t i = Probe(key);
    if (keys_[i] == key) return false;
    keys_[i] = key;
    ++size_;
    return true;
  }

  void Clear() {
    if (size_ == 0) return;
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    size_ = 0;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t k : keys_) {
      if (k != kEmptyKey) fn(k);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Probe(uint64_t key) const {
    size_t i = static_cast<size_t>(HashInt(key)) & mask_;
    while (keys_[i] != key && keys_[i] != kEmptyKey) i = (i + 1) & mask_;
    return i;
  }

  void Grow() {
    const size_t new_capacity =
        keys_.empty() ? kMinCapacity : keys_.size() * 2;
    std::vector<uint64_t> old_keys = std::move(keys_);
    keys_.assign(new_capacity, kEmptyKey);
    mask_ = new_capacity - 1;
    for (uint64_t k : old_keys) {
      if (k != kEmptyKey) keys_[Probe(k)] = k;
    }
  }

  std::vector<uint64_t> keys_;
  size_t size_ = 0;
  uint64_t mask_ = 0;
};

/// The table hash of FlatStringMap (common/hash.h: HashBytes).
struct BytesHash {
  uint64_t operator()(std::string_view key) const { return HashBytes(key); }
};

/// Open-addressing hash map from byte-string keys to values: the table under
/// TDStore's MDB/RDB engines, FDB's index, the batch writer's staging index
/// and the combiner (DESIGN.md §16), where every store op passes several
/// string-keyed tables and a node-per-key std::unordered_map pays an
/// allocation per insert and a temporary key per lookup.
///
/// Layout and scheme:
///  - 8-byte slots: the low 32 bits of the key's hash plus a 32-bit index
///    into the entry pool, so a probe walks eight slots per cache line and
///    touches an entry only when the stored hash matches;
///  - the entry pool is dense, `entry(0..size())`, in chunks of 16, 32, 64,
///    ... entries that never move: growth neither copies entries nor holds
///    two copies of them, and untouched chunk pages cost no RSS;
///  - power-of-two slot count with linear probing from `hash & mask`;
///    grows at 3/4 load by doubling, re-placing slots from their stored
///    hashes without reading a key;
///  - lookups take a std::string_view and build no key; a key string is
///    allocated only when it is inserted;
///  - erase shifts the rest of the probe run back (no tombstones, so
///    deletes keep probes short) and moves the last entry into the freed
///    pool position, so iteration order is insertion order until the first
///    erase and unspecified after it.
///
/// `Hash` maps a key to 64 bits; only the low 32 are used. Tests substitute
/// a degenerate one to force stored-hash collisions and wrap-around runs.
template <typename V, typename Hash = BytesHash>
class FlatStringMap {
 public:
  struct Entry {
    std::string key;
    V value;
  };

  FlatStringMap() = default;
  ~FlatStringMap() { Release(); }
  FlatStringMap(FlatStringMap&& other) noexcept { Steal(other); }
  FlatStringMap& operator=(FlatStringMap&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  FlatStringMap(const FlatStringMap&) = delete;
  FlatStringMap& operator=(const FlatStringMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 before the first insert).
  size_t capacity() const { return slots_.size(); }

  /// Pointer to the value for `key`, or nullptr when absent. Never mutates
  /// the table, so concurrent finds are safe under a reader lock.
  const V* Find(std::string_view key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[Probe(key, HashOf(key))];
    return slot.index == kEmpty ? nullptr : &At(slot.index).value;
  }
  V* Find(std::string_view key) {
    return const_cast<V*>(static_cast<const FlatStringMap*>(this)->Find(key));
  }

  /// The value for `key` and whether it was inserted. An absent key is
  /// inserted with a value-initialized V, copying the key — or moving it,
  /// when given as a std::string rvalue. The pointer is valid until the
  /// next insert or erase.
  template <typename K>
  std::pair<V*, bool> TryEmplace(K&& key) {
    const std::string_view view(key);
    if (slots_.empty()) Rehash(kMinCapacity);
    const uint32_t hash = HashOf(view);
    size_t i = Probe(view, hash);
    if (slots_[i].index != kEmpty) return {&At(slots_[i].index).value, false};
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
      i = Probe(view, hash);
    }
    TR_CHECK(size_ < kEmpty);
    Entry* entry = new (AppendPosition())
        Entry{std::string(std::forward<K>(key)), V{}};
    slots_[i] = Slot{hash, static_cast<uint32_t>(size_)};
    ++size_;
    return {&entry->value, true};
  }

  /// Upsert with std::unordered_map::operator[] semantics.
  V& operator[](std::string_view key) { return *TryEmplace(key).first; }

  template <typename K, typename U>
  void InsertOrAssign(K&& key, U&& value) {
    *TryEmplace(std::forward<K>(key)).first = std::forward<U>(value);
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(std::string_view key) {
    if (size_ == 0) return false;
    const size_t i = Probe(key, HashOf(key));
    const uint32_t index = slots_[i].index;
    if (index == kEmpty) return false;
    EraseSlot(i);
    const uint32_t last = static_cast<uint32_t>(size_ - 1);
    if (index != last) {
      Entry& hole = At(index);
      hole = std::move(At(last));
      size_t j = HashOf(hole.key) & mask_;
      while (slots_[j].index != last) j = (j + 1) & mask_;
      slots_[j].index = index;
    }
    At(last).~Entry();
    --size_;
    return true;
  }

  /// Entry `i` of the dense pool, 0 <= i < size().
  const Entry& entry(size_t i) const { return At(static_cast<uint32_t>(i)); }

  /// Drops all entries but keeps the slots and the pool (scratch reuse).
  void Clear() {
    if (size_ == 0) return;
    for (size_t i = 0; i < size_; ++i) At(static_cast<uint32_t>(i)).~Entry();
    std::fill(slots_.begin(), slots_.end(), Slot{0, kEmpty});
    size_ = 0;
  }

  /// Hands every entry to `fn(std::string&& key, V&& value)` in pool order,
  /// then clears the table.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (size_t i = 0; i < size_; ++i) {
      Entry& e = At(static_cast<uint32_t>(i));
      fn(std::move(e.key), std::move(e.value));
    }
    Clear();
  }

 private:
  struct Slot {
    uint32_t hash;   ///< low 32 bits of the key's hash
    uint32_t index;  ///< pool position, or kEmpty
  };

  static constexpr uint32_t kEmpty = ~0u;
  static constexpr size_t kMinCapacity = 16;
  static constexpr unsigned kFirstChunkBits = 4;  ///< chunk c: 16 << c

  uint32_t HashOf(std::string_view key) const {
    return static_cast<uint32_t>(hash_(key));
  }

  /// Slot holding `key`, or the empty slot ending its probe run. Requires
  /// allocated slots with at least one empty (the 3/4 load cap).
  size_t Probe(std::string_view key, uint32_t hash) const {
    size_t i = hash & mask_;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.index == kEmpty) return i;
      if (slot.hash == hash && At(slot.index).key == key) return i;
      i = (i + 1) & mask_;
    }
  }

  /// Empties slot `i` by shifting later members of its run back into the
  /// hole (Knuth's Algorithm R): a slot moves unless its home lies
  /// cyclically in (hole, slot].
  void EraseSlot(size_t i) {
    size_t hole = i;
    for (size_t k = (i + 1) & mask_; slots_[k].index != kEmpty;
         k = (k + 1) & mask_) {
      const size_t home = slots_[k].hash & mask_;
      if (((k - home) & mask_) >= ((k - hole) & mask_)) {
        slots_[hole] = slots_[k];
        hole = k;
      }
    }
    slots_[hole] = Slot{0, kEmpty};
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{0, kEmpty});
    mask_ = new_capacity - 1;
    for (const Slot& slot : old) {
      if (slot.index == kEmpty) continue;
      size_t i = slot.hash & mask_;
      while (slots_[i].index != kEmpty) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  static size_t ChunkSize(size_t c) { return size_t{1} << (c + kFirstChunkBits); }

  Entry& At(uint32_t i) const {
    const size_t j = size_t{i} + ChunkSize(0);
    const size_t c = std::bit_width(j) - 1 - kFirstChunkBits;
    return chunks_[c][j - ChunkSize(c)];
  }

  /// Raw storage for entry size_, allocating the next chunk when the pool
  /// (ChunkSize(chunks) - ChunkSize(0) entries) is full.
  void* AppendPosition() {
    const size_t c = chunks_.size();
    if (size_ + ChunkSize(0) == ChunkSize(c)) {
      chunks_.push_back(static_cast<Entry*>(::operator new(
          ChunkSize(c) * sizeof(Entry), std::align_val_t{kChunkAlign})));
    }
    return &At(static_cast<uint32_t>(size_));
  }

  void Release() {
    for (size_t i = 0; i < size_; ++i) At(static_cast<uint32_t>(i)).~Entry();
    for (Entry* chunk : chunks_) {
      ::operator delete(chunk, std::align_val_t{kChunkAlign});
    }
    chunks_.clear();
    slots_.clear();
    size_ = 0;
    mask_ = 0;
  }

  void Steal(FlatStringMap& other) {
    slots_ = std::move(other.slots_);
    chunks_ = std::move(other.chunks_);
    size_ = std::exchange(other.size_, 0);
    mask_ = std::exchange(other.mask_, 0);
    other.slots_.clear();
    other.chunks_.clear();
  }

  static constexpr size_t kChunkAlign =
      alignof(Entry) > 64 ? alignof(Entry) : 64;

  std::vector<Slot> slots_;
  std::vector<Entry*> chunks_;
  size_t size_ = 0;
  size_t mask_ = 0;
  [[no_unique_address]] Hash hash_;
};

}  // namespace tencentrec

#endif  // TENCENTREC_COMMON_FLAT_MAP_H_
