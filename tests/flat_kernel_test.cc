// The flat CF kernels (DESIGN.md §15): flat table and arena units, TopK's
// sift kernel against the sort-per-update oracle, and PracticalItemCf's
// windowed totals, similarities and pruning against a naive replay of the
// same trace. Exactness is legitimate: action weights are dyadic rationals
// (multiples of 0.5), so every count is an exact float sum, identical in
// any accumulation order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/random.h"
#include "common/topk.h"
#include "core/itemcf/item_cf.h"
#include "core/itemcf/pair_key.h"

namespace tencentrec::core {
namespace {

// --- flat table units --------------------------------------------------------

TEST(FlatMap64Test, UpsertFindGrow) {
  FlatMap64<double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);

  // Push through several doublings; every key must stay reachable.
  const int n = 1000;
  for (int i = 0; i < n; ++i) map[static_cast<uint64_t>(i)] += i * 0.5;
  EXPECT_EQ(map.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double* v = map.Find(static_cast<uint64_t>(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 0.5);
  }
  EXPECT_EQ(map.Find(static_cast<uint64_t>(n)), nullptr);

  // operator[] on an existing key must not duplicate.
  map[3] += 1.0;
  EXPECT_EQ(map.size(), static_cast<size_t>(n));
  EXPECT_EQ(*map.Find(3), 3 * 0.5 + 1.0);
}

TEST(FlatMap64Test, ClearKeepsCapacityAndReserve) {
  FlatMap64<uint32_t> map;
  map.Reserve(100);
  const size_t cap = map.capacity();
  EXPECT_GE(cap * 3, 100 * 4u);  // sized for 100 at 3/4 load
  for (uint64_t k = 0; k < 100; ++k) map[k] = static_cast<uint32_t>(k);
  EXPECT_EQ(map.capacity(), cap);  // no rehash churn after Reserve
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.Find(5), nullptr);
  map[5] = 9;
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap64Test, ForEachVisitsEveryEntryOnce) {
  FlatMap64<double> map;
  for (uint64_t k = 1; k <= 50; ++k) map[k * 977] = static_cast<double>(k);
  double sum = 0.0;
  size_t visits = 0;
  map.ForEach([&](uint64_t, double v) {
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 50u);
  EXPECT_EQ(sum, 50.0 * 51.0 / 2.0);
}

TEST(FlatSet64Test, InsertContainsClear) {
  FlatSet64 set;
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Insert(1));
  EXPECT_FALSE(set.Insert(1));  // duplicate
  for (uint64_t k = 2; k < 500; ++k) EXPECT_TRUE(set.Insert(k * k));
  EXPECT_EQ(set.size(), 499u);
  for (uint64_t k = 2; k < 500; ++k) EXPECT_TRUE(set.Contains(k * k));
  EXPECT_FALSE(set.Contains(3));
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(1));
}

TEST(PairKeyTest, PackIsCanonicalAndSentinelFree) {
  // Packing is order-insensitive (canonical lo/hi) and lo < hi guarantees
  // the packed key never equals the flat tables' ~0 sentinel.
  EXPECT_EQ(PackPair(3, 9), PackPair(9, 3));
  EXPECT_EQ(PackPair(3, 9), (uint64_t{3} << 32) | 9);
  EXPECT_NE(PackPair(static_cast<ItemId>(0xfffffffe),
                     static_cast<ItemId>(0xffffffff)),
            FlatMap64<double>::kEmptyKey);
}

// --- arena units -------------------------------------------------------------

TEST(ArenaTest, AlignmentAndReset) {
  Arena arena(1024);
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_NE(a, b);

  // Oversized requests get a dedicated block.
  void* big = arena.Allocate(1 << 16);
  std::memset(big, 0xab, 1 << 16);

  const size_t reserved = arena.BytesReserved();
  arena.Reset();
  // Reset rewinds but keeps blocks: same storage comes back.
  void* a2 = arena.Allocate(3, 1);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(arena.BytesReserved(), reserved);
}

TEST(ArenaTest, ArenaVectorGrowthPreservesContents) {
  Arena arena;
  ArenaVector<int> v(&arena, 2);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  // Zero initial capacity must still work (clamped internally).
  ArenaVector<int> w(&arena, 0);
  w.push_back(42);
  EXPECT_EQ(w[0], 42);
}

// --- TopK determinism + kernel equivalence -----------------------------------

/// The pre-rewrite TopK — array-of-structs entries re-sorted on every
/// update — kept as TopK's parity oracle: TopKTest drives both
/// implementations with identical randomized traces and asserts
/// bit-identical entries/thresholds/return values.
///
/// The sort comparator tie-breaks equal scores by ascending id, the total
/// order TopK ranks by (a strict `score >` comparator would leave
/// equal-score order unspecified, since std::sort is not stable). With that
/// order, sort-per-update and TopK's sift kernel are equivalent by
/// construction.
template <typename Id>
class LegacyTopK {
 public:
  using Entry = typename TopK<Id>::Entry;

  explicit LegacyTopK(size_t k) : k_(k) {}

  bool Update(const Id& id, double score) {
    for (auto& e : entries_) {
      if (e.id == id) {
        e.score = score;
        Reorder();
        return true;
      }
    }
    if (entries_.size() < k_) {
      entries_.push_back({id, score});
      Reorder();
      return true;
    }
    if (score > entries_.back().score) {
      entries_.back() = {id, score};
      Reorder();
      return true;
    }
    return false;
  }

  bool Erase(const Id& id) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].id == id) {
        entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  bool Contains(const Id& id) const {
    for (const auto& e : entries_) {
      if (e.id == id) return true;
    }
    return false;
  }

  double Threshold() const {
    if (entries_.size() < k_) return 0.0;
    return entries_.back().score;
  }

  const std::vector<Entry>& entries() const { return entries_; }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return k_; }
  bool empty() const { return entries_.empty(); }

 private:
  void Reorder() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
  }

  size_t k_;
  std::vector<Entry> entries_;
};

TEST(TopKTest, TieOrderingDeterministicUnderShuffledInsertions) {
  // Regression for the ordering bug this PR fixes: equal-score entries used
  // to land in unspecified relative order (non-stable sort, strict `>`
  // comparator), so eviction and serialized lists differed across runs.
  // Now ties rank by ascending id, so any insertion order of the same
  // (id, score) set yields identical entries().
  // (Note what is NOT guaranteed: with a full table, a new tie is rejected
  // — "ties never evict" — so which ids a too-small table retains honestly
  // depends on arrival order. The determinism contract is about ordering
  // and eviction among admitted entries, tested with a table that holds
  // them all.)
  std::vector<int64_t> ids = {5, 9, 1, 7, 3, 8, 2, 6, 4, 10};
  std::vector<TopK<int64_t>::Entry> want;
  std::vector<TopK<int64_t>::Entry> want_rescored;

  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    // Fisher-Yates with the deterministic Rng — a fresh shuffle per round.
    for (size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.Uniform(i + 1)]);
    }
    TopK<int64_t> topk(ids.size());
    for (int64_t id : ids) topk.Update(id, 0.5);  // all-ties insertion
    const auto got = topk.entries();
    ASSERT_EQ(got.size(), ids.size());
    for (size_t r = 1; r < got.size(); ++r) {
      EXPECT_LT(got[r - 1].id, got[r].id);  // ties ordered by id
    }
    // Re-score to two tie groups (still shuffled order): ranking must be
    // (score desc, id asc) regardless of which update arrived when.
    for (int64_t id : ids) topk.Update(id, id % 2 == 0 ? 0.75 : 0.25);
    const auto rescored = topk.entries();
    if (round == 0) {
      want = got;
      want_rescored = rescored;
    } else {
      EXPECT_EQ(got, want) << "round " << round;
      EXPECT_EQ(rescored, want_rescored) << "round " << round;
    }
  }
}

TEST(TopKTest, MatchesLegacyOnRandomizedTraces) {
  // The sift kernel must be bit-identical to the (tie-break-fixed)
  // sort-per-update oracle on any trace: same entries, same thresholds,
  // same return values, including Erase and overflow eviction.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    TopK<int64_t> fast(8);
    LegacyTopK<int64_t> oracle(8);
    for (int step = 0; step < 3000; ++step) {
      const int64_t id = static_cast<int64_t>(1 + rng.Uniform(30));
      if (rng.Bernoulli(0.1)) {
        EXPECT_EQ(fast.Erase(id), oracle.Erase(id)) << "step " << step;
      } else {
        // Quantized scores force frequent exact ties.
        const double score = static_cast<double>(rng.Uniform(12)) / 8.0;
        EXPECT_EQ(fast.Update(id, score), oracle.Update(id, score))
            << "step " << step;
      }
      ASSERT_EQ(fast.entries(), oracle.entries()) << "step " << step;
      EXPECT_EQ(fast.Threshold(), oracle.Threshold()) << "step " << step;
      EXPECT_EQ(fast.size(), oracle.size());
    }
  }
}

// --- PracticalItemCf against a naive replay of the trace --------------------

UserAction Act(UserId user, ItemId item, ActionType type, EventTime ts) {
  UserAction a;
  a.user = user;
  a.item = item;
  a.action = type;
  a.timestamp = ts;
  return a;
}

std::vector<UserAction> RandomActions(uint64_t seed, int num_actions,
                                      int num_users, int num_items) {
  Rng rng(seed);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kShare,
                               ActionType::kPurchase};
  std::vector<UserAction> actions;
  actions.reserve(static_cast<size_t>(num_actions));
  for (int i = 0; i < num_actions; ++i) {
    actions.push_back(
        Act(static_cast<UserId>(1 + rng.Uniform(num_users)),
            static_cast<ItemId>(1 + rng.Uniform(num_items)),
            kTypes[rng.Uniform(5)], Seconds(i * 40)));
  }
  return actions;
}

/// The deltas Algorithm 1's user-history layer emits for a trace, replayed
/// outside the kernel through per-user UserHistory::Apply (the layer the
/// kernel runs too) and logged per session: every (session, item, Δr) and
/// every (session, pair, Δco).
struct DeltaLog {
  std::map<std::pair<int64_t, ItemId>, double> items;
  std::map<std::tuple<int64_t, ItemId, ItemId>, double> pairs;
  int64_t pair_deltas = 0;
  int64_t latest_session = 0;
  std::map<UserId, UserHistory> histories;
};

/// Requires an in-order trace (no late data to fold forward).
DeltaLog Replay(const PracticalItemCf::Options& options,
                const std::vector<UserAction>& actions) {
  DeltaLog log;
  const EventTime length = std::max<EventTime>(1, options.session_length);
  for (const UserAction& a : actions) {
    const int64_t session =
        options.window_sessions > 0 ? a.timestamp / length : 0;
    log.latest_session = std::max(log.latest_session, session);
    UserHistory& history = log.histories[a.user];
    if (options.history_ttl > 0) {
      history.EvictOlderThan(a.timestamp - options.history_ttl);
    }
    history.Apply(
        a, options.weights, options.linked_time,
        [&](ItemId item, double rating_delta, double) {
          if (rating_delta > 0.0) log.items[{session, item}] += rating_delta;
        },
        [&](ItemId other, double co_delta) {
          log.pairs[{session, std::min(a.item, other),
                     std::max(a.item, other)}] += co_delta;
          ++log.pair_deltas;
        });
  }
  return log;
}

/// Runs one trace through PracticalItemCf and checks it against the naive
/// window sums of the replayed delta log: item counts and unpruned pair
/// counts exactly, unpruned similarities as Eq. 5 over those sums, every
/// logged pair delta either applied or skipped as pruned, no pruned pair in
/// either item's list, and the users' histories.
void ExpectMatchesDeltaLog(const PracticalItemCf::Options& options,
                           const std::vector<UserAction>& actions,
                           int num_users, int num_items) {
  PracticalItemCf cf(options);
  for (const auto& action : actions) cf.ProcessAction(action);
  const DeltaLog log = Replay(options, actions);

  auto in_window = [&](int64_t session) {
    return options.window_sessions <= 0 ||
           session > log.latest_session - options.window_sessions;
  };
  std::map<ItemId, double> item_sum;
  for (const auto& [key, delta] : log.items) {
    if (in_window(key.first)) item_sum[key.second] += delta;
  }
  std::map<std::pair<ItemId, ItemId>, double> pair_sum;
  for (const auto& [key, delta] : log.pairs) {
    const auto& [session, lo, hi] = key;
    if (in_window(session)) pair_sum[{lo, hi}] += delta;
  }

  EXPECT_EQ(cf.stats().actions, static_cast<int64_t>(actions.size()));
  EXPECT_EQ(cf.stats().pair_updates + cf.stats().pair_updates_pruned,
            log.pair_deltas);

  for (ItemId a = 1; a <= num_items; ++a) {
    EXPECT_EQ(cf.counts().ItemCount(a), item_sum[a]) << "item " << a;
    for (ItemId b = a + 1; b <= num_items; ++b) {
      if (cf.IsPruned(a, b)) {
        const TopK<ItemId>* la = cf.SimilarItems(a);
        const TopK<ItemId>* lb = cf.SimilarItems(b);
        EXPECT_FALSE(la != nullptr && la->Contains(b))
            << "pruned pair (" << a << ", " << b << ")";
        EXPECT_FALSE(lb != nullptr && lb->Contains(a))
            << "pruned pair (" << a << ", " << b << ")";
        continue;
      }
      const double pc = pair_sum[{a, b}];
      EXPECT_EQ(cf.counts().PairCount(a, b), pc)
          << "pair (" << a << ", " << b << ")";
      const double ca = item_sum[a];
      const double cb = item_sum[b];
      const double eq5 =
          ca > 0.0 && cb > 0.0 && pc > 0.0 ? pc / std::sqrt(ca * cb) : 0.0;
      EXPECT_EQ(cf.Similarity(a, b), eq5)
          << "pair (" << a << ", " << b << ")";
    }
  }

  for (UserId u = 1; u <= num_users; ++u) {
    auto it = log.histories.find(u);
    if (it == log.histories.end()) {
      EXPECT_TRUE(cf.RecentItemsOf(u).empty()) << "user " << u;
      continue;
    }
    const size_t k = options.recent_k > 0
                         ? static_cast<size_t>(options.recent_k)
                         : it->second.size();
    EXPECT_EQ(cf.RecentItemsOf(u), it->second.RecentItems(k)) << "user " << u;
    for (ItemId i = 1; i <= num_items; ++i) {
      EXPECT_EQ(cf.UserRating(u, i), it->second.RatingOf(i))
          << "user " << u << " item " << i;
    }
  }
}

TEST(FlatKernelParityTest, SeededRandomTrace) {
  PracticalItemCf::Options options;
  options.linked_time = Hours(4);
  options.top_k = 5;  // small lists so overflow eviction is exercised
  ExpectMatchesDeltaLog(options, RandomActions(17, 4000, 25, 40), 25, 40);
}

TEST(FlatKernelParityTest, WindowedTraceWithExpiry) {
  PracticalItemCf::Options options;
  options.linked_time = Hours(2);
  options.session_length = Hours(1);
  options.window_sessions = 3;
  options.top_k = 4;
  // 40 s spacing over 4000 actions spans ~44 sessions, so plenty expire.
  ExpectMatchesDeltaLog(options, RandomActions(23, 4000, 20, 24), 20, 24);
}

TEST(FlatKernelParityTest, AllTiesTrace) {
  // Adversarial all-ties workload: one action type and symmetric structure
  // give many exactly-equal similarities, so list admission and eviction
  // run on ties throughout.
  std::vector<UserAction> actions;
  EventTime ts = 0;
  for (UserId u = 1; u <= 16; ++u) {
    for (ItemId i = 1; i <= 12; ++i) {
      actions.push_back(Act(u, i, ActionType::kClick, ts));
      ts += Seconds(10);
    }
  }
  PracticalItemCf::Options options;
  options.linked_time = Days(30);
  options.top_k = 3;  // far smaller than the clique: constant tie-eviction
  ExpectMatchesDeltaLog(options, actions, 16, 12);
}

TEST(FlatKernelParityTest, PruneEraseReopenTrace) {
  // Drives Algorithm 1 hard: tight lists + aggressive delta so pairs get
  // pruned (erasing stale list entries and reopening thresholds), then keep
  // arriving as skipped updates. Every logged pair delta must be either
  // applied or counted as a pruned skip.
  PracticalItemCf::Options options;
  options.linked_time = Hours(6);
  options.top_k = 3;
  options.enable_pruning = true;
  options.hoeffding_delta = 0.4;
  const auto actions = RandomActions(31, 6000, 12, 30);
  ExpectMatchesDeltaLog(options, actions, 12, 30);

  // The trace must actually prune, or the test proves nothing.
  PracticalItemCf probe(options);
  for (const auto& action : actions) probe.ProcessAction(action);
  EXPECT_GT(probe.stats().pairs_pruned, 0);
  EXPECT_GT(probe.stats().pair_updates_pruned, 0);
}

}  // namespace
}  // namespace tencentrec::core
