#ifndef TENCENTREC_CORE_ITEMCF_PAIR_KEY_H_
#define TENCENTREC_CORE_ITEMCF_PAIR_KEY_H_

#include <cstdint>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "core/action.h"

namespace tencentrec::core {

/// Canonical (unordered) item-pair key: co-rating and similarity are
/// symmetric, so (a, b) and (b, a) must address the same counter.
struct PairKey {
  ItemId lo = 0;
  ItemId hi = 0;

  PairKey() = default;
  PairKey(ItemId a, ItemId b) : lo(a < b ? a : b), hi(a < b ? b : a) {}

  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  size_t operator()(const PairKey& k) const {
    return static_cast<size_t>(
        HashCombine(HashInt(static_cast<uint64_t>(k.lo)),
                    HashInt(static_cast<uint64_t>(k.hi))));
  }
};

/// The canonical pair packed into one uint64 — `(lo << 32) | hi` — the key
/// format of the flat pair tables (common/flat_map.h): one word to hash,
/// compare, and store instead of a 16-byte struct. Requires ids in
/// [0, 2^32) (checked; every ingest path rejects actions outside that
/// range up front, see core::HasValidIds). The
/// canonical lo <= hi ordering guarantees a packed pair never equals the
/// flat tables' all-ones empty sentinel: that would need lo == hi ==
/// 2^32-1, and the CF layers never form self-pairs.
inline uint64_t PackPair(const PairKey& k) {
  TR_CHECK(k.lo >= 0 && k.hi < (static_cast<ItemId>(1) << 32));
  return (static_cast<uint64_t>(k.lo) << 32) | static_cast<uint64_t>(k.hi);
}

inline uint64_t PackPair(ItemId a, ItemId b) { return PackPair(PairKey(a, b)); }

/// Packed key for a single item id in the flat item tables. Non-negative is
/// enough here (a plain cast would let id -1 alias the empty sentinel).
inline uint64_t PackItem(ItemId item) {
  TR_CHECK(item >= 0);
  return static_cast<uint64_t>(item);
}

/// Packed key for a user id (flat history index).
inline uint64_t PackUser(UserId user) {
  TR_CHECK(user >= 0);
  return static_cast<uint64_t>(user);
}

}  // namespace tencentrec::core

#endif  // TENCENTREC_CORE_ITEMCF_PAIR_KEY_H_
