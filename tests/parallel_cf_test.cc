#include "core/itemcf/parallel_cf.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/random.h"
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

/// Options under which the drained parallel executor must match the
/// reference bit-for-bit (up to float summation noise): lists never
/// overflow (top_k > #items) and pruning is off, so every layer's state is
/// a pure commutative sum over the action stream.
ParallelItemCf::Options ParityOptions(int num_items) {
  ParallelItemCf::Options options;
  options.cf.linked_time = Days(30);
  options.cf.window_sessions = 0;
  options.cf.enable_pruning = false;
  options.cf.top_k = static_cast<size_t>(num_items) + 8;
  options.user_shards = 4;
  options.pair_shards = 4;
  // Small batches/queues so the test exercises batching boundaries and
  // backpressure, not just one giant flush.
  options.batch_size = 7;
  options.queue_capacity = 4;
  return options;
}

void ExpectParity(const ParallelItemCf& parallel, const PracticalItemCf& ref,
                  int num_users, int num_items) {
  for (ItemId a = 1; a <= num_items; ++a) {
    for (ItemId b = a + 1; b <= num_items; ++b) {
      EXPECT_NEAR(parallel.Similarity(a, b), ref.Similarity(a, b), 1e-12)
          << "pair (" << a << ", " << b << ")";
      EXPECT_NEAR(parallel.EffectiveSimilarity(a, b),
                  ref.EffectiveSimilarity(a, b), 1e-12)
          << "pair (" << a << ", " << b << ")";
    }
  }
  for (UserId u = 1; u <= num_users; ++u) {
    EXPECT_EQ(parallel.RecentItemsOf(u), ref.RecentItemsOf(u)) << "user " << u;
    for (ItemId i = 1; i <= num_items; ++i) {
      EXPECT_DOUBLE_EQ(parallel.UserRating(u, i), ref.UserRating(u, i))
          << "user " << u << " item " << i;
    }
    const auto want = ref.RecommendForUser(u, 5);
    const auto got = parallel.RecommendForUser(u, 5);
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].item, want[r].item) << "user " << u << " rank " << r;
      EXPECT_NEAR(got[r].score, want[r].score, 1e-9)
          << "user " << u << " rank " << r;
    }
  }
}

TEST(ParallelItemCfTest, ParityCumulative) {
  const int kUsers = 20, kItems = 30;
  const auto actions = RandomActions(11, 2000, kUsers, kItems);

  ParallelItemCf::Options options = ParityOptions(kItems);
  ParallelItemCf parallel(options);
  PracticalItemCf reference(options.cf);

  for (const auto& action : actions) reference.ProcessAction(action);
  parallel.ProcessActions(actions);
  parallel.Drain();

  ExpectParity(parallel, reference, kUsers, kItems);
  EXPECT_EQ(parallel.stats().actions, reference.stats().actions);
  EXPECT_EQ(parallel.stats().pair_updates, reference.stats().pair_updates);
}

TEST(ParallelItemCfTest, ParityWindowed) {
  // Sliding-window mode: the drain watermark must settle every shard's
  // window at the stream's high-water timestamp, exactly as one serial
  // WindowedCounts would. The stream includes a multi-session gap so old
  // sessions genuinely expire.
  const int kUsers = 12, kItems = 16;
  ParallelItemCf::Options options = ParityOptions(kItems);
  options.cf.session_length = Hours(1);
  options.cf.window_sessions = 4;
  options.cf.linked_time = Hours(2);

  Rng rng(29);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kShare,
                               ActionType::kPurchase};
  std::vector<UserAction> actions;
  EventTime t = 0;
  for (int i = 0; i < 1200; ++i) {
    t += Seconds(1 + rng.Uniform(30));
    if (i == 600) t += Hours(7);  // expire everything mid-stream
    actions.push_back(Act(static_cast<UserId>(1 + rng.Uniform(kUsers)),
                          static_cast<ItemId>(1 + rng.Uniform(kItems)),
                          kTypes[rng.Uniform(5)], t));
  }

  ParallelItemCf parallel(options);
  PracticalItemCf reference(options.cf);
  for (const auto& action : actions) reference.ProcessAction(action);
  parallel.ProcessActions(actions);
  parallel.Drain();

  for (ItemId a = 1; a <= kItems; ++a) {
    for (ItemId b = a + 1; b <= kItems; ++b) {
      EXPECT_NEAR(parallel.Similarity(a, b), reference.Similarity(a, b),
                  1e-12)
          << "pair (" << a << ", " << b << ")";
    }
  }
}

TEST(ParallelItemCfTest, DrainThenContinue) {
  // Drain is a barrier, not an end-of-stream: ingestion composes across
  // drains exactly like one continuous stream.
  const int kUsers = 10, kItems = 12;
  const auto actions = RandomActions(3, 900, kUsers, kItems);

  ParallelItemCf::Options options = ParityOptions(kItems);
  ParallelItemCf parallel(options);
  PracticalItemCf reference(options.cf);
  for (const auto& action : actions) reference.ProcessAction(action);

  const size_t third = actions.size() / 3;
  std::vector<UserAction> part;
  for (size_t i = 0; i < actions.size(); ++i) {
    parallel.ProcessAction(actions[i]);
    if (i == third || i == 2 * third) parallel.Drain();
  }
  parallel.Drain();
  parallel.Drain();  // repeated drain of a quiescent pipeline is a no-op

  ExpectParity(parallel, reference, kUsers, kItems);
}

TEST(ParallelItemCfTest, ShutdownWithoutDrainDoesNotHang) {
  ParallelItemCf::Options options = ParityOptions(8);
  auto parallel = std::make_unique<ParallelItemCf>(options);
  const auto actions = RandomActions(5, 300, 8, 8);
  parallel->ProcessActions(actions);
  parallel->Shutdown();   // implies a drain; must terminate
  parallel->Shutdown();   // idempotent
  EXPECT_EQ(parallel->stats().actions,
            static_cast<int64_t>(actions.size()));
  parallel.reset();       // destructor after explicit Shutdown is fine
}

TEST(ParallelItemCfTest, StageStatsAggregate) {
  const auto actions = RandomActions(17, 500, 10, 10);
  ParallelItemCf::Options options = ParityOptions(10);
  ParallelItemCf parallel(options);
  parallel.ProcessActions(actions);
  parallel.Drain();

  const auto stages = parallel.stage_stats();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].stage, "user-history");
  EXPECT_EQ(stages[0].workers, options.user_shards);
  // Every action reaches layer 1 exactly once.
  EXPECT_EQ(stages[0].events, actions.size());
  EXPECT_GT(stages[0].batches, 0u);
  EXPECT_EQ(stages[1].stage, "count+sim");
  EXPECT_EQ(stages[1].workers, options.pair_shards);
  // Layer 2 consumes one event per pair delta.
  EXPECT_EQ(stages[1].events,
            static_cast<uint64_t>(parallel.stats().pair_updates +
                                  parallel.stats().pair_updates_pruned));
  EXPECT_EQ(parallel.stats().actions, static_cast<int64_t>(actions.size()));
}

TEST(ParallelItemCfTest, SingleShardDegenerateConfig) {
  // 1x1 shards with a tiny queue still drains correctly (the degenerate
  // serial configuration).
  const int kUsers = 8, kItems = 10;
  const auto actions = RandomActions(23, 600, kUsers, kItems);
  ParallelItemCf::Options options = ParityOptions(kItems);
  options.user_shards = 1;
  options.pair_shards = 1;
  options.queue_capacity = 1;
  options.batch_size = 1;

  ParallelItemCf parallel(options);
  PracticalItemCf reference(options.cf);
  for (const auto& action : actions) reference.ProcessAction(action);
  parallel.ProcessActions(actions);
  parallel.Drain();
  ExpectParity(parallel, reference, kUsers, kItems);
}

TEST(ParallelItemCfTest, PruningConcurrencySmoke) {
  // With pruning on and small lists, mid-stream similarity reads are racy
  // snapshots and prune timing is nondeterministic — exact parity is out of
  // scope. This is the TSan workload: heavy cross-shard traffic through the
  // shared stripes with pruning exercising the erase path. Run it under
  // -DTR_SANITIZE_THREAD=ON (ctest -L concurrent) to race-check.
  ParallelItemCf::Options options;
  options.cf.linked_time = Days(30);
  options.cf.window_sessions = 0;
  options.cf.enable_pruning = true;
  options.cf.hoeffding_delta = 0.2;
  options.cf.top_k = 3;
  options.user_shards = 4;
  options.pair_shards = 4;
  options.batch_size = 4;
  options.queue_capacity = 2;

  ParallelItemCf parallel(options);
  const auto actions = RandomActions(41, 4000, 30, 25);
  parallel.ProcessActions(actions);
  parallel.Drain();

  EXPECT_EQ(parallel.stats().actions, static_cast<int64_t>(actions.size()));
  // Sanity: the drained state is still a valid similarity structure.
  for (ItemId a = 1; a <= 25; ++a) {
    for (ItemId b = a + 1; b <= 25; ++b) {
      const double sim = parallel.Similarity(a, b);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0 + 1e-9);
    }
  }
}

TEST(ParallelItemCfTest, PruningParityOneActionInFlight) {
  // With one action in flight and one pair shard, the action's rating delta
  // reaches its count stripe before its pair deltas are emitted, and those
  // reach the pair shard in emission order: the executor runs the serial
  // kernel's sequence of Algorithm 1 steps. So even with pruning on and
  // lists that overflow, the drained state must equal the reference bit for
  // bit. Cumulative counts only: between drains the executor defers window
  // eviction, so a windowed stream differs at session boundaries.
  const int kUsers = 30, kItems = 25;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ParallelItemCf::Options options;
    options.cf.linked_time = Days(30);
    options.cf.window_sessions = 0;
    options.cf.enable_pruning = true;
    options.cf.hoeffding_delta = 0.5;
    options.cf.top_k = 2 + static_cast<int>(seed % 2);
    options.cf.support_shrinkage = seed <= 2 ? 0.0 : 2.0;
    options.user_shards = 3;
    options.pair_shards = 1;
    options.batch_size = 4;
    options.queue_capacity = 2;
    ParallelItemCf parallel(options);
    PracticalItemCf reference(options.cf);
    for (const auto& action : RandomActions(seed, 1000, kUsers, kItems)) {
      reference.ProcessAction(action);
      parallel.ProcessAction(action);
      parallel.Drain();
    }

    for (ItemId a = 1; a <= kItems; ++a) {
      for (ItemId b = a + 1; b <= kItems; ++b) {
        EXPECT_EQ(parallel.Similarity(a, b), reference.Similarity(a, b))
            << "pair (" << a << ", " << b << ")";
        EXPECT_EQ(parallel.IsPruned(a, b), reference.IsPruned(a, b))
            << "pair (" << a << ", " << b << ")";
      }
      const TopK<ItemId>* got = parallel.SimilarItems(a);
      const TopK<ItemId>* want = reference.SimilarItems(a);
      ASSERT_EQ(got == nullptr, want == nullptr) << "item " << a;
      if (want != nullptr) {
        EXPECT_EQ(got->entries(), want->entries()) << "item " << a;
      }
    }
    for (UserId u = 1; u <= kUsers; ++u) {
      EXPECT_EQ(parallel.RecommendForUser(u, 5),
                reference.RecommendForUser(u, 5))
          << "user " << u;
    }
    const auto got = parallel.stats();
    const auto want = reference.stats();
    EXPECT_GT(want.pairs_pruned, 0);
    EXPECT_EQ(got.actions, want.actions);
    EXPECT_EQ(got.pair_updates, want.pair_updates);
    EXPECT_EQ(got.pair_updates_pruned, want.pair_updates_pruned);
    EXPECT_EQ(got.pairs_pruned, want.pairs_pruned);
  }
}

TEST(ParallelItemCfTest, ConcurrentDriversViaProcessActionsChunks) {
  // The driver API is single-threaded by contract, but nothing stops a
  // caller from interleaving ProcessAction with queries-after-drain in a
  // loop; make sure state survives many small drain cycles.
  ParallelItemCf::Options options = ParityOptions(10);
  ParallelItemCf parallel(options);
  PracticalItemCf reference(options.cf);

  const auto actions = RandomActions(53, 800, 10, 10);
  for (size_t i = 0; i < actions.size(); ++i) {
    reference.ProcessAction(actions[i]);
    parallel.ProcessAction(actions[i]);
    if (i % 97 == 0) {
      parallel.Drain();
      (void)parallel.RecommendForUser(actions[i].user, 3);
    }
  }
  parallel.Drain();
  ExpectParity(parallel, reference, 10, 10);
}

}  // namespace
}  // namespace tencentrec::core
