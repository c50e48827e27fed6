#include <gtest/gtest.h>

#include "common/random.h"
#include "common/topk.h"
#include "core/itemcf/basic_cf.h"
#include "core/itemcf/item_cf.h"

namespace tencentrec::core {
namespace {

UserAction Act(UserId user, ItemId item, ActionType type, EventTime ts) {
  UserAction a;
  a.user = user;
  a.item = item;
  a.action = type;
  a.timestamp = ts;
  return a;
}

// --- WindowedCounts (Eq. 6–10) -----------------------------------------------

TEST(WindowedCountsTest, CumulativeAccumulates) {
  WindowedCounts counts(Hours(1), /*window_sessions=*/0);
  counts.AddItem(1, 2.0, Hours(0));
  counts.AddItem(1, 3.0, Days(10));  // never expires in cumulative mode
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 5.0);
  counts.AddPair(1, 2, 1.5, Days(10));
  EXPECT_DOUBLE_EQ(counts.PairCount(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(counts.PairCount(2, 1), 1.5);  // symmetric key
}

TEST(WindowedCountsTest, SimilarityFormula) {
  WindowedCounts counts(Hours(1), 0);
  counts.AddItem(1, 4.0, 0);
  counts.AddItem(2, 9.0, 0);
  counts.AddPair(1, 2, 3.0, 0);
  // Eq. 5: 3 / (√4·√9) = 0.5.
  EXPECT_DOUBLE_EQ(counts.Similarity(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(counts.Similarity(2, 1), 0.5);
  EXPECT_DOUBLE_EQ(counts.Similarity(1, 3), 0.0);  // unknown item
}

TEST(WindowedCountsTest, WindowExpiresOldSessions) {
  // 1-hour sessions, window of 2 sessions.
  WindowedCounts counts(Hours(1), 2);
  counts.AddItem(1, 1.0, Hours(0));
  counts.AddItem(1, 2.0, Hours(1));
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 3.0);  // both sessions live
  counts.AddItem(1, 4.0, Hours(2));            // session 0 expires
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 6.0);
  counts.AdvanceTo(Hours(5));  // everything expires
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 0.0);
  EXPECT_EQ(counts.NumSessions(), 0u);
}

TEST(WindowedCountsTest, PairCountsExpireTogether) {
  WindowedCounts counts(Hours(1), 2);
  counts.AddItem(1, 1.0, Hours(0));
  counts.AddItem(2, 1.0, Hours(0));
  counts.AddPair(1, 2, 1.0, Hours(0));
  EXPECT_GT(counts.Similarity(1, 2), 0.0);
  counts.AdvanceTo(Hours(3));
  EXPECT_DOUBLE_EQ(counts.Similarity(1, 2), 0.0);
}

TEST(WindowedCountsTest, LateInWindowDataLandsInItsOwnSession) {
  // Late-but-in-window events must credit their own session, so they expire
  // with it — not with whatever session happened to be newest at arrival.
  WindowedCounts counts(Hours(1), /*window_sessions=*/3);
  counts.AddItem(1, 1.0, Hours(2));  // session 2
  counts.AddItem(1, 4.0, Hours(0));  // late: session 0, still in window
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 5.0);
  EXPECT_EQ(counts.NumSessions(), 2u);
  counts.AdvanceTo(Hours(3));  // window = {1,2,3}: session 0 expires alone
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 1.0);
}

TEST(WindowedCountsTest, OutOfOrderStreamBoundsSessions) {
  // Regression: the session deque used to grow per out-of-order event (a
  // new back entry for every backwards timestamp), leaking memory on
  // shuffled streams. Sessions are now kept ordered by id with front-only
  // eviction, so the deque never exceeds the window size.
  WindowedCounts counts(Hours(1), /*window_sessions=*/4);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    counts.AddItem(1 + rng.Uniform(5), 1.0, Hours(20) + Minutes(rng.Uniform(10 * 60)));
    EXPECT_LE(counts.NumSessions(), 4u) << "event " << i;
  }
}

TEST(WindowedCountsTest, FullyExpiredLateDataFoldsOrDrops) {
  WindowedCounts counts(Hours(1), /*window_sessions=*/2);
  counts.AddItem(1, 1.0, Hours(10));  // session 10
  counts.AddItem(1, 2.0, Hours(11));  // session 11; window = {10, 11}
  // Below-window late event: folds into the oldest live session (so totals
  // stay conservative) instead of resurrecting an expired one.
  counts.AddItem(1, 8.0, Hours(3));
  EXPECT_EQ(counts.NumSessions(), 2u);
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 11.0);
  counts.AdvanceTo(Hours(12));  // session 10 (with the folded count) expires
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 2.0);
  // With no live session at all, a fully expired event is dropped.
  counts.AdvanceTo(Hours(30));
  EXPECT_EQ(counts.NumSessions(), 0u);
  counts.AddItem(1, 5.0, Hours(3));
  EXPECT_DOUBLE_EQ(counts.ItemCount(1), 0.0);
  EXPECT_EQ(counts.NumSessions(), 0u);
}

TEST(WindowedCountsTest, TrackedCounts) {
  WindowedCounts counts(Hours(1), 0);
  counts.AddItem(1, 1.0, 0);
  counts.AddItem(2, 1.0, 0);
  counts.AddItem(1, 1.0, 0);
  counts.AddPair(1, 2, 1.0, 0);
  EXPECT_EQ(counts.TrackedItems(), 2u);
  EXPECT_EQ(counts.TrackedPairs(), 1u);
}

// --- TopK threshold semantics (Algorithm 1's `t`) ----------------------------

TEST(TopKTest, EraseReopensThresholdConservatively) {
  // Regression for the prune-erase path: when an Erase shrinks a full list
  // below K, the admission threshold must collapse to 0 (under-full lists
  // admit any positive score). A stale nonzero threshold here would make
  // Hoeffding pruning drop pairs that belong in the list.
  TopK<ItemId> list(/*k=*/3);
  EXPECT_TRUE(list.Update(1, 0.9));
  EXPECT_TRUE(list.Update(2, 0.8));
  EXPECT_TRUE(list.Update(3, 0.7));
  EXPECT_DOUBLE_EQ(list.Threshold(), 0.7);  // full: K-th best
  EXPECT_FALSE(list.Update(4, 0.5));        // below threshold, rejected

  EXPECT_TRUE(list.Erase(2));
  EXPECT_FALSE(list.Erase(2));              // second erase reports absence
  EXPECT_DOUBLE_EQ(list.Threshold(), 0.0);  // reopened
  EXPECT_TRUE(list.Update(4, 0.05));        // low score now admissible
  EXPECT_DOUBLE_EQ(list.Threshold(), 0.05); // full again: threshold recovers
  EXPECT_FALSE(list.Update(5, 0.01));
}

// --- incremental == batch oracle (Eq. 8 telescopes to Eq. 5) -----------------

/// Generates a deterministic random action stream.
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
            kTypes[rng.Uniform(5)], Seconds(i)));
  }
  return actions;
}

class IncrementalOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalOracleTest, MatchesBatchRecompute) {
  // The central correctness claim of §4.1.3: the incrementally maintained
  // counts produce exactly the similarity a batch recompute over the final
  // ratings produces (no window, no pruning, unbounded linked time).
  const auto actions = RandomActions(GetParam(), 1500, 25, 40);

  PracticalItemCf::Options options;
  options.linked_time = Days(365);
  options.window_sessions = 0;
  options.enable_pruning = false;
  options.top_k = 64;
  PracticalItemCf incremental(options);

  BasicItemCf batch(BasicItemCf::SimilarityMeasure::kMinCoRating);
  for (const auto& action : actions) {
    incremental.ProcessAction(action);
    const double w = options.weights.Weight(action.action);
    const double existing = batch.RatingOf(action.user, action.item);
    if (w > existing) batch.SetRating(action.user, action.item, w);
  }
  batch.ComputeSimilarities();

  for (ItemId a = 1; a <= 40; ++a) {
    for (ItemId b = a + 1; b <= 40; ++b) {
      EXPECT_NEAR(incremental.Similarity(a, b), batch.Similarity(a, b), 1e-9)
          << "pair (" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalOracleTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- basic CF (Eq. 1–2) --------------------------------------------------------

TEST(BasicItemCfTest, CosineSimilarity) {
  BasicItemCf cf(BasicItemCf::SimilarityMeasure::kCosine);
  // Two users rate both items identically: cosine = 1.
  cf.SetRating(1, 10, 2.0);
  cf.SetRating(1, 20, 2.0);
  cf.SetRating(2, 10, 3.0);
  cf.SetRating(2, 20, 3.0);
  cf.ComputeSimilarities();
  EXPECT_NEAR(cf.Similarity(10, 20), 1.0, 1e-12);
}

TEST(BasicItemCfTest, CosinePartialOverlap) {
  BasicItemCf cf(BasicItemCf::SimilarityMeasure::kCosine);
  cf.SetRating(1, 10, 1.0);
  cf.SetRating(1, 20, 1.0);
  cf.SetRating(2, 10, 1.0);  // rates only item 10
  cf.ComputeSimilarities();
  // sim = 1 / (√2 · √1) ≈ 0.707.
  EXPECT_NEAR(cf.Similarity(10, 20), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(BasicItemCfTest, RecommendExcludesRated) {
  BasicItemCf cf(BasicItemCf::SimilarityMeasure::kMinCoRating);
  // Users 1..3 like items 10 and 20 together; user 4 only 10.
  for (UserId u = 1; u <= 3; ++u) {
    cf.SetRating(u, 10, 2.0);
    cf.SetRating(u, 20, 2.0);
  }
  cf.SetRating(4, 10, 2.0);
  cf.ComputeSimilarities();
  auto recs = cf.RecommendForUser(4, 5);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].item, 20);
  for (const auto& r : recs) EXPECT_NE(r.item, 10);
}

// --- practical CF: similar-items tables & recommendation ---------------------

PracticalItemCf::Options PlainOptions() {
  PracticalItemCf::Options options;
  options.linked_time = Days(30);
  options.window_sessions = 0;
  options.enable_pruning = false;
  return options;
}

TEST(PracticalItemCfTest, SimilarItemsTableTracksCooccurrence) {
  PracticalItemCf cf(PlainOptions());
  // Many users co-click (1, 2); one user co-clicks (1, 3).
  EventTime t = 0;
  for (UserId u = 1; u <= 5; ++u) {
    cf.ProcessAction(Act(u, 1, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 2, ActionType::kClick, t += Seconds(1)));
  }
  cf.ProcessAction(Act(9, 1, ActionType::kClick, t += Seconds(1)));
  cf.ProcessAction(Act(9, 3, ActionType::kClick, t += Seconds(1)));

  const auto* similar = cf.SimilarItems(1);
  ASSERT_NE(similar, nullptr);
  ASSERT_GE(similar->size(), 2u);
  EXPECT_EQ(similar->entries()[0].id, 2);  // stronger than 3
  EXPECT_GT(cf.Similarity(1, 2), cf.Similarity(1, 3));
}

TEST(PracticalItemCfTest, RecommendFromRecentInterests) {
  PracticalItemCf cf(PlainOptions());
  EventTime t = 0;
  // Build structure: (1,2) and (3,4) are strong pairs.
  for (UserId u = 1; u <= 6; ++u) {
    cf.ProcessAction(Act(u, 1, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 2, ActionType::kClick, t += Seconds(1)));
  }
  for (UserId u = 7; u <= 12; ++u) {
    cf.ProcessAction(Act(u, 3, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 4, ActionType::kClick, t += Seconds(1)));
  }
  // Fresh user clicks item 1 -> expect item 2 recommended, not 3/4.
  cf.ProcessAction(Act(99, 1, ActionType::kClick, t += Seconds(1)));
  auto recs = cf.RecommendForUser(99, 3);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].item, 2);
  for (const auto& r : recs) EXPECT_NE(r.item, 1);  // seen item excluded
}

TEST(PracticalItemCfTest, RecentKFiltersOldInterests) {
  PracticalItemCf::Options options = PlainOptions();
  options.recent_k = 1;  // only the most recent item drives predictions
  PracticalItemCf cf(options);
  EventTime t = 0;
  for (UserId u = 1; u <= 6; ++u) {
    cf.ProcessAction(Act(u, 1, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 2, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 3, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 4, ActionType::kClick, t += Seconds(1)));
  }
  // User 99 clicked 1 long ago and 3 just now: with recent_k=1 the
  // prediction derives from item 3 only.
  cf.ProcessAction(Act(99, 1, ActionType::kClick, t += Seconds(1)));
  cf.ProcessAction(Act(99, 3, ActionType::kClick, t += Seconds(1)));
  auto recent = cf.RecentItemsOf(99);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0], 3);
}

TEST(PracticalItemCfTest, UnknownUserGetsNothing) {
  PracticalItemCf cf(PlainOptions());
  EXPECT_TRUE(cf.RecommendForUser(12345, 5).empty());
}

TEST(PracticalItemCfTest, SlidingWindowForgetsOldTrends) {
  PracticalItemCf::Options options = PlainOptions();
  options.session_length = Hours(1);
  options.window_sessions = 2;
  options.linked_time = Hours(1);
  PracticalItemCf cf(options);
  // Strong (1,2) signal in hour 0.
  for (UserId u = 1; u <= 5; ++u) {
    cf.ProcessAction(Act(u, 1, ActionType::kClick, Minutes(2 * u)));
    cf.ProcessAction(Act(u, 2, ActionType::kClick, Minutes(2 * u + 1)));
  }
  EXPECT_GT(cf.Similarity(1, 2), 0.0);
  // Hours later, a single action advances the window; the old counts are
  // outside it.
  cf.ProcessAction(Act(50, 7, ActionType::kClick, Hours(10)));
  EXPECT_DOUBLE_EQ(cf.Similarity(1, 2), 0.0);
}

// --- Hoeffding pruning (Eq. 9, Algorithm 1) -----------------------------------

TEST(PracticalItemCfTest, PrunesPersistentlyDissimilarPairs) {
  PracticalItemCf::Options options = PlainOptions();
  options.enable_pruning = true;
  options.hoeffding_delta = 0.1;
  options.top_k = 2;  // small lists so thresholds rise fast
  PracticalItemCf cf(options);

  EventTime t = 0;
  // Items 1,2,3 are mutually strongly similar (fill 1's top-2 list) and so
  // are 99,98,97 (fill 99's list) — pruning is bidirectional and needs both
  // thresholds up (Algorithm 1 line 12). The cross pair (1, 99) co-occurs
  // only weakly and keeps getting observed.
  for (int round = 0; round < 60; ++round) {
    UserId u = 1000 + round;
    cf.ProcessAction(Act(u, 1, ActionType::kPurchase, t += Seconds(1)));
    cf.ProcessAction(Act(u, 2, ActionType::kPurchase, t += Seconds(1)));
    cf.ProcessAction(Act(u, 3, ActionType::kPurchase, t += Seconds(1)));
    UserId v = 5000 + round;
    cf.ProcessAction(Act(v, 99, ActionType::kPurchase, t += Seconds(1)));
    cf.ProcessAction(Act(v, 98, ActionType::kPurchase, t += Seconds(1)));
    cf.ProcessAction(Act(v, 97, ActionType::kPurchase, t += Seconds(1)));
    // The weak cross pair, observed every few rounds.
    if (round % 3 == 0) {
      UserId z = 9000 + round;
      cf.ProcessAction(Act(z, 99, ActionType::kBrowse, t += Seconds(1)));
      cf.ProcessAction(Act(z, 1, ActionType::kBrowse, t += Seconds(1)));
    }
  }

  EXPECT_GT(cf.stats().pairs_pruned, 0);
  EXPECT_TRUE(cf.IsPruned(1, 99));
  EXPECT_GT(cf.stats().pair_updates_pruned, 0);  // later updates skipped
  // The pruned pair never sits in the similar-items list.
  const auto* similar = cf.SimilarItems(1);
  ASSERT_NE(similar, nullptr);
  EXPECT_FALSE(similar->Contains(99));
  // The strong pairs survive.
  EXPECT_FALSE(cf.IsPruned(1, 2));
  EXPECT_FALSE(cf.IsPruned(1, 3));
}

// Eq. 2's terms for a candidate are the recent items whose list holds it:
// a co-rated item that a full list left out, and a pruned pair, add none,
// though both pairs keep a positive similarity. The score is then the
// single-term prediction.
TEST(PracticalItemCfTest, Eq2TermsComeOnlyFromListsHoldingTheCandidate) {
  auto expect_one_term = [](const PracticalItemCf& cf, UserId user,
                            ItemId candidate, ItemId holder, ItemId other) {
    ASSERT_TRUE(cf.SimilarItems(holder)->Contains(candidate));
    ASSERT_FALSE(cf.SimilarItems(other)->Contains(candidate));
    ASSERT_GT(cf.EffectiveSimilarity(candidate, other), 0.0);
    const double w = cf.EffectiveSimilarity(candidate, holder);
    const double want = PredictedScore(w * cf.UserRating(user, holder), w);
    bool found = false;
    for (const ScoredItem& rec : cf.RecommendForUser(user, 10)) {
      if (rec.item != candidate) continue;
      found = true;
      EXPECT_DOUBLE_EQ(rec.score, want);
    }
    EXPECT_TRUE(found);
  };

  {
    // Left out by a full list: top_k 1 keeps 40 on 20's list, and 30,
    // co-rated with 20 by one user, stays off it.
    PracticalItemCf::Options options = PlainOptions();
    options.top_k = 1;
    PracticalItemCf cf(options);
    EventTime t = 0;
    for (UserId u = 1; u <= 6; ++u) {
      cf.ProcessAction(Act(u, 10, ActionType::kClick, t += Seconds(1)));
      cf.ProcessAction(Act(u, 30, ActionType::kClick, t += Seconds(1)));
      cf.ProcessAction(Act(100 + u, 20, ActionType::kClick, t += Seconds(1)));
      cf.ProcessAction(Act(100 + u, 40, ActionType::kClick, t += Seconds(1)));
    }
    cf.ProcessAction(Act(50, 20, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(50, 30, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(99, 10, ActionType::kPurchase, t += Seconds(1)));
    cf.ProcessAction(Act(99, 20, ActionType::kClick, t += Seconds(1)));
    expect_one_term(cf, 99, /*candidate=*/30, /*holder=*/10, /*other=*/20);
  }
  {
    // Pruned: the stream of PrunesPersistentlyDissimilarPairs prunes
    // (1, 99) and erases 1 from 99's list.
    PracticalItemCf::Options options = PlainOptions();
    options.enable_pruning = true;
    options.hoeffding_delta = 0.1;
    options.top_k = 2;
    PracticalItemCf cf(options);
    EventTime t = 0;
    for (int round = 0; round < 60; ++round) {
      const UserId u = 1000 + round;
      const UserId v = 5000 + round;
      for (ItemId item : {1, 2, 3}) {
        cf.ProcessAction(Act(u, item, ActionType::kPurchase, t += Seconds(1)));
      }
      for (ItemId item : {99, 98, 97}) {
        cf.ProcessAction(Act(v, item, ActionType::kPurchase, t += Seconds(1)));
      }
      if (round % 3 == 0) {
        const UserId z = 9000 + round;
        cf.ProcessAction(Act(z, 99, ActionType::kBrowse, t += Seconds(1)));
        cf.ProcessAction(Act(z, 1, ActionType::kBrowse, t += Seconds(1)));
      }
    }
    ASSERT_TRUE(cf.IsPruned(1, 99));
    cf.ProcessAction(Act(7, 2, ActionType::kPurchase, t += Seconds(1)));
    cf.ProcessAction(Act(7, 99, ActionType::kClick, t += Seconds(1)));
    expect_one_term(cf, 7, /*candidate=*/1, /*holder=*/2, /*other=*/99);
  }
}

TEST(PracticalItemCfTest, NoPruningBeforeListsFill) {
  PracticalItemCf::Options options = PlainOptions();
  options.enable_pruning = true;
  options.top_k = 50;  // lists never fill in this test
  PracticalItemCf cf(options);
  EventTime t = 0;
  for (UserId u = 1; u <= 10; ++u) {
    cf.ProcessAction(Act(u, 1, ActionType::kClick, t += Seconds(1)));
    cf.ProcessAction(Act(u, 2, ActionType::kClick, t += Seconds(1)));
  }
  EXPECT_EQ(cf.stats().pairs_pruned, 0);
}

TEST(PracticalItemCfTest, PruningSavesPairUpdates) {
  // Same stream with and without pruning: pruning must strictly reduce the
  // number of pair-counter updates and leave top similarities intact.
  const auto actions = RandomActions(77, 4000, 30, 25);

  PracticalItemCf::Options base = PlainOptions();
  base.top_k = 3;
  PracticalItemCf unpruned(base);
  base.enable_pruning = true;
  base.hoeffding_delta = 0.2;
  PracticalItemCf pruned(base);

  for (const auto& action : actions) {
    unpruned.ProcessAction(action);
    pruned.ProcessAction(action);
  }
  EXPECT_GT(pruned.stats().pair_updates_pruned, 0);
  EXPECT_LT(pruned.stats().pair_updates, unpruned.stats().pair_updates);
}

TEST(PracticalItemCfTest, StatsCountActions) {
  PracticalItemCf cf(PlainOptions());
  cf.ProcessAction(Act(1, 1, ActionType::kClick, 0));
  cf.ProcessAction(Act(1, 2, ActionType::kClick, Seconds(1)));
  EXPECT_EQ(cf.stats().actions, 2);
  EXPECT_EQ(cf.stats().pair_updates, 1);
}

TEST(PracticalItemCfTest, HistoryTtlBoundsState) {
  PracticalItemCf::Options options = PlainOptions();
  options.history_ttl = Hours(1);
  PracticalItemCf cf(options);
  cf.ProcessAction(Act(1, 1, ActionType::kClick, Hours(0)));
  cf.ProcessAction(Act(1, 2, ActionType::kClick, Hours(5)));
  // Item 1 evicted: only item 2 is recent.
  auto recent = cf.RecentItemsOf(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0], 2);
}

}  // namespace
}  // namespace tencentrec::core
