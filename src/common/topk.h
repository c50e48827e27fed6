#ifndef TENCENTREC_COMMON_TOPK_H_
#define TENCENTREC_COMMON_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace tencentrec {

/// A bounded best-K table of (id, score) entries with upsert semantics.
/// Backs the per-item similar-items lists: the CF pruner needs O(1) access
/// to the current admission threshold (the K-th best score, Algorithm 1's
/// `t`), and updates must replace an existing entry's score rather than
/// duplicate it.
///
/// Layout: struct-of-arrays (one id array, one score array), kept in rank
/// order — (score descending, id ascending) — at all times. The id
/// tie-break makes ordering, eviction, and serialized lists fully
/// deterministic under equal scores, and rank-order-always (rather than a
/// lazily sorted cache) keeps every read path const: the sharded executor
/// hands out `const TopK*` that query threads read outside the stripe
/// locks.
///
/// Kernel shape, sized for K in the tens (the paper's top-k lists):
///  - membership is one branch-free scan over the contiguous id array
///    (vectorizable compare+select reduction; ids are unique so at most
///    one lane matches);
///  - Update is that scan plus a single-pass sift to the entry's new rank
///    (replacing the old sort-the-whole-table-per-call);
///  - Threshold is O(1): the last slot holds the rank-K entry;
///  - Load rebuilds a table from its own rank-order listing (a decoded
///    blob) in O(K), with no membership scan per entry.
template <typename Id>
class TopK {
 public:
  struct Entry {
    Id id;
    double score;

    bool operator==(const Entry&) const = default;
  };

  explicit TopK(size_t k) : k_(k) {
    ids_.reserve(k_);
    scores_.reserve(k_);
  }

  /// Inserts or updates `id` with `score`. Returns true if the entry is in
  /// the table after the call. When the table is full, a new id is admitted
  /// only by strictly beating the current worst score (ties never evict).
  bool Update(const Id& id, double score) {
    const size_t n = ids_.size();
    const size_t pos = Find(id);
    if (pos != n) {
      scores_[pos] = score;
      Sift(pos);
      return true;
    }
    if (n < k_) {
      ids_.push_back(id);
      scores_.push_back(score);
      Sift(n);
      return true;
    }
    if (!(score > scores_[n - 1])) return false;
    ids_[n - 1] = id;
    scores_[n - 1] = score;
    Sift(n - 1);
    return true;
  }

  /// Replaces the entries with the table that Update over `n` entries
  /// builds, `next()` yielding each Entry in turn. An entry that ranks after
  /// every one loaded and whose id is new, as a table's own rank-order
  /// listing yields them, appends in O(1); any other goes through Update.
  /// A 256-bit filter of hashed ids proves most ids new without a scan.
  template <typename NextFn>
  void Load(size_t n, NextFn&& next) {
    ids_.clear();
    scores_.clear();
    uint64_t seen[4] = {};
    for (size_t i = 0; i < n; ++i) {
      const Entry e = next();
      const size_t h = (std::hash<Id>{}(e.id) * 0x9E3779B97F4A7C15ull) >> 56;
      const uint64_t bit = uint64_t{1} << (h & 63);
      const bool fresh = (seen[h >> 6] & bit) == 0 || !Contains(e.id);
      seen[h >> 6] |= bit;
      const size_t m = ids_.size();
      if (fresh &&
          (m == 0 || RankBefore(scores_[m - 1], ids_[m - 1], e.score, e.id))) {
        // A full table rejects an entry that ranks after its last, as
        // Update does.
        if (m < k_) {
          ids_.push_back(e.id);
          scores_.push_back(e.score);
        }
        continue;
      }
      Update(e.id, e.score);
    }
  }

  /// Removes `id` if present; returns true when an entry was removed.
  bool Erase(const Id& id) {
    const size_t n = ids_.size();
    const size_t pos = Find(id);
    if (pos == n) return false;
    ids_.erase(ids_.begin() + static_cast<ptrdiff_t>(pos));
    scores_.erase(scores_.begin() + static_cast<ptrdiff_t>(pos));
    return true;
  }

  bool Contains(const Id& id) const { return Find(id) != ids_.size(); }

  /// The minimum score among the current K best, i.e. the score an item pair
  /// must beat to enter this similar-items list. Zero while the table is not
  /// yet full (everything is admissible).
  ///
  /// Conservative reopen: when an Erase (e.g. a prune decision dropping a
  /// stale entry) shrinks a previously full table below K, the threshold
  /// deliberately collapses back to 0 until the table refills. Any entry
  /// with a positive score is admissible into an under-full table, so a
  /// nonzero threshold here would wrongly prune admissible pairs; the cost
  /// is only that pruning for this item pauses until K entries are known
  /// again. Regression-tested in tests/itemcf_test.cc.
  double Threshold() const {
    if (ids_.size() < k_) return 0.0;
    return scores_.back();
  }

  /// Rank-order accessors (score descending, id ascending on ties) — the
  /// allocation-free read path for the predict/bench hot loops.
  const Id& id_at(size_t rank) const { return ids_[rank]; }
  double score_at(size_t rank) const { return scores_[rank]; }

  /// Entries in rank order, materialized. Cold paths and tests; hot loops
  /// use size()/id_at()/score_at().
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      out.push_back({ids_[i], scores_[i]});
    }
    return out;
  }

  size_t size() const { return ids_.size(); }
  size_t capacity() const { return k_; }
  bool empty() const { return ids_.empty(); }

 private:
  /// Strict rank order: higher score first, lower id first on equal score.
  static bool RankBefore(double sa, const Id& ia, double sb, const Id& ib) {
    if (sa != sb) return sa > sb;
    return ia < ib;
  }

  /// Rank of `id`, or size() when absent. Branch-free select reduction over
  /// the contiguous id array so the compiler can vectorize it.
  size_t Find(const Id& id) const {
    const Id* ids = ids_.data();
    const size_t n = ids_.size();
    size_t hit = n;
    for (size_t r = 0; r < n; ++r) {
      if (ids[r] == id) hit = r;
    }
    return hit;
  }

  /// Restores rank order after the entry at `pos` changed, with one pass in
  /// whichever direction it needs to move (everything else is untouched).
  void Sift(size_t pos) {
    const Id id = ids_[pos];
    const double score = scores_[pos];
    size_t i = pos;
    while (i > 0 && RankBefore(score, id, scores_[i - 1], ids_[i - 1])) {
      ids_[i] = ids_[i - 1];
      scores_[i] = scores_[i - 1];
      --i;
    }
    if (i == pos) {
      const size_t n = ids_.size();
      while (i + 1 < n && RankBefore(scores_[i + 1], ids_[i + 1], score, id)) {
        ids_[i] = ids_[i + 1];
        scores_[i] = scores_[i + 1];
        ++i;
      }
    }
    ids_[i] = id;
    scores_[i] = score;
  }

  size_t k_;
  std::vector<Id> ids_;
  std::vector<double> scores_;
};

}  // namespace tencentrec

#endif  // TENCENTREC_COMMON_TOPK_H_
