#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "core/itemcf/item_cf.h"
#include "engine/monitor.h"
#include "engine/tencentrec.h"
#include "tdstore/client.h"
#include "topo/bolts.h"

namespace tencentrec::engine {
namespace {

using core::ActionType;
using core::Demographics;
using core::ItemId;
using core::UserAction;
using core::UserId;

UserAction Act(UserId user, ItemId item, ActionType type, EventTime ts,
               Demographics d = {}) {
  UserAction a;
  a.user = user;
  a.item = item;
  a.action = type;
  a.timestamp = ts;
  a.demographics = d;
  return a;
}

Demographics Male(uint8_t age = 2) {
  Demographics d;
  d.gender = Demographics::kMale;
  d.age_band = age;
  return d;
}

TencentRec::Options BaseOptions(const std::string& app) {
  TencentRec::Options options;
  options.app.app = app;
  options.app.parallelism = 2;
  options.app.linked_time = Days(30);
  options.app.combiner_interval = 8;
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  return options;
}

/// A co-click clique plus a cold user: standard fixture traffic.
std::vector<UserAction> CliqueTraffic() {
  std::vector<UserAction> actions;
  EventTime t = 0;
  for (UserId u = 1; u <= 6; ++u) {
    actions.push_back(Act(u, 101, ActionType::kClick, t += Seconds(1), Male()));
    actions.push_back(Act(u, 102, ActionType::kClick, t += Seconds(1), Male()));
  }
  actions.push_back(Act(50, 101, ActionType::kClick, t += Seconds(1), Male()));
  return actions;
}

TEST(EngineTest, CfRecommendationFromStore) {
  auto engine = TencentRec::Create(BaseOptions("cf"));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());

  auto recs = (*engine)->query().RecommendCf(50, 3, Seconds(100));
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 102);  // co-clicked with the user's item 101
}

TEST(EngineTest, HybridFallsBackToGroupHotItems) {
  auto engine = TencentRec::Create(BaseOptions("hybrid"));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());

  // A brand-new male user: no CF signal, gets group hot items.
  auto recs = (*engine)->query().Recommend(999, Male(), 2, Seconds(100));
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_TRUE((*recs)[0].item == 101 || (*recs)[0].item == 102);
}

TEST(EngineTest, ResultFilterApplies) {
  TencentRec::Options options = BaseOptions("filtered");
  options.app.result_filter = [](ItemId item) { return item != 102; };
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());
  auto recs = (*engine)->query().Recommend(50, Male(), 5, Seconds(100));
  ASSERT_TRUE(recs.ok());
  for (const auto& r : *recs) EXPECT_NE(r.item, 102);
}

TEST(EngineTest, TdAccessPathDeliversSameData) {
  auto engine = TencentRec::Create(BaseOptions("viaaccess"));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->PublishActions(CliqueTraffic()).ok());
  ASSERT_TRUE((*engine)->ProcessFromAccess().ok());

  auto recs = (*engine)->query().RecommendCf(50, 3, Seconds(100));
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 102);

  // A second drain with no new messages is a no-op.
  ASSERT_TRUE((*engine)->ProcessFromAccess().ok());
  // New messages published later are picked up from the committed offsets.
  ASSERT_TRUE(
      (*engine)
          ->PublishActions({Act(7, 101, ActionType::kClick, Seconds(200)),
                            Act(7, 103, ActionType::kClick, Seconds(201))})
          .ok());
  ASSERT_TRUE((*engine)->ProcessFromAccess().ok());
  auto pc = (*engine)->query().WindowPairCount(101, 103, Seconds(300));
  ASSERT_TRUE(pc.ok());
  EXPECT_GT(*pc, 0.0);
}

TEST(EngineTest, ContentBasedViaCatalog) {
  TencentRec::Options options = BaseOptions("news");
  options.app.algorithms.content_based = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterItem(1, {{100, 1.0}}).ok());
  ASSERT_TRUE((*engine)->RegisterItem(2, {{100, 1.0}}).ok());
  ASSERT_TRUE((*engine)->RegisterItem(3, {{200, 1.0}}).ok());

  ASSERT_TRUE(
      (*engine)
          ->ProcessBatch({Act(1, 1, ActionType::kRead, Seconds(10))})
          .ok());
  auto recs = (*engine)->query().RecommendCb(1, 5, Seconds(20));
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 2);  // same topic, unseen
  for (const auto& r : *recs) EXPECT_NE(r.item, 1);
}

TEST(EngineTest, SituationalCtrQuery) {
  TencentRec::Options options = BaseOptions("ads");
  options.app.algorithms.ctr = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());

  std::vector<UserAction> actions;
  for (int i = 0; i < 200; ++i) {
    actions.push_back(
        Act(1 + i % 10, 7, ActionType::kImpression, Seconds(i), Male()));
    if (i % 4 == 0) {
      actions.push_back(
          Act(1 + i % 10, 7, ActionType::kClick, Seconds(i), Male()));
    }
  }
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());

  auto ctr = (*engine)->query().PredictCtr(7, Male(), Seconds(300));
  ASSERT_TRUE(ctr.ok());
  EXPECT_NEAR(*ctr, 0.25, 0.05);

  auto counts = (*engine)->query().SituationCounts(7, Male(), Seconds(300));
  ASSERT_TRUE(counts.ok());
  EXPECT_DOUBLE_EQ(counts->first, 200.0);
  EXPECT_DOUBLE_EQ(counts->second, 50.0);
}

TEST(EngineTest, AssociationRuleQuery) {
  auto engine = TencentRec::Create(BaseOptions("ar"));
  ASSERT_TRUE(engine.ok());
  std::vector<UserAction> actions;
  EventTime t = 0;
  // 4 users buy 201; 2 of them also buy 202.
  for (UserId u = 1; u <= 4; ++u) {
    actions.push_back(Act(u, 201, ActionType::kPurchase, t += Seconds(1)));
  }
  for (UserId u = 1; u <= 2; ++u) {
    actions.push_back(Act(u, 202, ActionType::kPurchase, t += Seconds(1)));
  }
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());
  auto rules = (*engine)->query().RecommendAr(201, 5, Seconds(100),
                                              /*min_support=*/1.0,
                                              /*min_confidence=*/0.01);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  EXPECT_EQ((*rules)[0].item, 202);
}

TEST(EngineTest, MaterializedResults) {
  TencentRec::Options options = BaseOptions("materialized");
  options.materialize_results = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());
  // Touch user 50 again: the storage layer recomputes on activity, reading
  // counts that are durable by now (the statistics path is decoupled, so a
  // user's very last event of a batch may materialize on their next touch).
  ASSERT_TRUE(
      (*engine)
          ->ProcessBatch({Act(50, 101, ActionType::kBrowse, Seconds(90),
                              Male())})
          .ok());
  // The storage layer materialized a list for the active user.
  auto recs = (*engine)->query().MaterializedResults(50);
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 102);
  // An untouched user has no materialized list.
  auto none = (*engine)->query().MaterializedResults(777);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(EngineTest, BoltsIssueNoPointWrites) {
  // Every bolt write goes through its write-behind StoreCache or its
  // Combiner, both of which ship batched calls. Every point Put, Delete and
  // IncrDouble records in tdstore.client.write_us, so a batch that moves
  // its count issued a point write somewhere in the topology.
  SetMetricsEnabled(true);
  TencentRec::Options options = BaseOptions("nopoint");
  options.app.enable_pruning = true;
  options.materialize_results = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  LatencyHistogram* point_writes =
      MetricRegistry::Default().GetHistogram("tdstore.client.write_us");
  const uint64_t before = point_writes->Snap().count;
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());
  EXPECT_EQ(point_writes->Snap().count, before);

  // n_ij and the materialized results did land, through the batched path.
  tdstore::Client client((*engine)->store());
  auto count_keys = [&client](const std::string& prefix) {
    int64_t keys = 0;
    (void)client.ScanPrefix(prefix, [&](std::string_view, std::string_view) {
      ++keys;
      return true;
    });
    return keys;
  };
  EXPECT_GT(count_keys("po:nopoint:"), 0);
  EXPECT_GT(count_keys("rec:nopoint:"), 0);
}

TEST(EngineTest, SlidingWindowStateExpires) {
  TencentRec::Options options = BaseOptions("windowed");
  options.app.session_length = Hours(1);
  options.app.window_sessions = 2;
  options.app.linked_time = Hours(1);
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());

  std::vector<UserAction> actions;
  EventTime t = 0;
  for (UserId u = 1; u <= 4; ++u) {
    actions.push_back(Act(u, 101, ActionType::kClick, t += Seconds(5)));
    actions.push_back(Act(u, 102, ActionType::kClick, t += Seconds(5)));
  }
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());
  auto fresh = (*engine)->query().SimilarityFromCounts(101, 102, Minutes(10));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, 0.0);
  // Hours later the window has moved on: counts read as zero.
  auto stale = (*engine)->query().SimilarityFromCounts(101, 102, Hours(10));
  ASSERT_TRUE(stale.ok());
  EXPECT_DOUBLE_EQ(*stale, 0.0);
}

TEST(EngineTest, WindowedHotListsFollowTheTrend) {
  TencentRec::Options options = BaseOptions("hotwindow");
  options.app.session_length = Hours(1);
  options.app.window_sessions = 2;
  options.app.linked_time = Hours(1);
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());

  // Hour 0: item 7 is hot among males; hours 5-6: item 9 takes over.
  std::vector<UserAction> actions;
  for (UserId u = 1; u <= 6; ++u) {
    actions.push_back(Act(u, 7, ActionType::kClick,
                          Minutes(static_cast<int64_t>(u)), Male()));
  }
  for (UserId u = 1; u <= 3; ++u) {
    actions.push_back(Act(u, 9, ActionType::kClick,
                          Hours(5) + Minutes(static_cast<int64_t>(u)),
                          Male()));
  }
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());

  auto hot = (*engine)->query().HotItems(core::DemographicGroup(Male()), 3,
                                         Hours(5) + Minutes(30));
  ASSERT_TRUE(hot.ok());
  ASSERT_FALSE(hot->empty());
  // Item 7's sessions expired from the 2-hour window: item 9 leads and 7's
  // live popularity is zero even if a stale list entry lingers.
  EXPECT_EQ((*hot)[0].item, 9);
  auto pop7 = (*engine)->query().WindowItemCount(7, Hours(6));
  // (WindowItemCount covers CF counts; the DB counter check goes through
  // the hot list ordering above.)
  ASSERT_TRUE(pop7.ok());
}

TEST(EngineTest, DistributedPruningActivatesAndServes) {
  TencentRec::Options options = BaseOptions("pruned");
  options.app.enable_pruning = true;
  options.app.hoeffding_delta = 0.3;
  options.app.top_k = 2;  // small lists so thresholds rise quickly
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());

  // Two strong cliques plus a persistently weak cross pair, repeated long
  // enough for both items' lists to fill and the Hoeffding bound to fire.
  std::vector<UserAction> actions;
  EventTime t = 0;
  for (int round = 0; round < 60; ++round) {
    UserId u = 1000 + round;
    for (ItemId i : {1, 2, 3}) {
      actions.push_back(Act(u, i, ActionType::kPurchase, t += Seconds(1)));
    }
    UserId v = 5000 + round;
    for (ItemId i : {99, 98, 97}) {
      actions.push_back(Act(v, i, ActionType::kPurchase, t += Seconds(1)));
    }
    if (round % 3 == 0) {
      UserId z = 9000 + round;
      actions.push_back(Act(z, 99, ActionType::kBrowse, t += Seconds(1)));
      actions.push_back(Act(z, 1, ActionType::kBrowse, t += Seconds(1)));
    }
  }
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());

  // Within the main batch the pruning check races benignly with the §5.1
  // statistics/computation decoupling: a pair task can drain its whole
  // queue before the ItemCountBolt combiner ever flushes, so its sims
  // compute against itemCounts of 0 and the similar lists (and hence the
  // K-th-score admission thresholds) end the batch durably depressed.
  // Activation inside one batch is therefore timing-dependent — under
  // `ctest -j` load it sometimes doesn't happen at all. The decoupling's
  // own contract is "the next touch of this pair refreshes it", so each
  // settle batch below re-touches BOTH cliques once (recomputing the
  // strong sims against the now-durable window sums, which restores the
  // thresholds to ~0.95) and adds a few more weak (1,99) co-ratings. By
  // the second settle batch the weak observations evaluate the Hoeffding
  // bound against recovered thresholds: epsilon ~ 0.15 at n ~ 25
  // observations (delta = 0.3) vs t - sim ~ 0.95 - 0.15, so pruning must
  // fire. The loop bound is slack, not a retry-until-lucky.
  tdstore::Client client((*engine)->store());
  auto count_flags = [&client] {
    int64_t flags = 0;
    (void)client.ScanPrefix("pr:pruned:",
                            [&](std::string_view, std::string_view) {
                              ++flags;
                              return true;
                            });
    return flags;
  };
  int64_t pruned_flags = count_flags();
  for (int settle = 0; settle < 20 && pruned_flags == 0; ++settle) {
    std::vector<UserAction> batch;
    UserId u = 20000 + settle;
    for (ItemId i : {1, 2, 3}) {
      batch.push_back(Act(u, i, ActionType::kPurchase, t += Seconds(1)));
    }
    UserId v = 30000 + settle;
    for (ItemId i : {99, 98, 97}) {
      batch.push_back(Act(v, i, ActionType::kPurchase, t += Seconds(1)));
    }
    for (int round = 0; round < 4; ++round) {
      UserId z = 40000 + settle * 100 + round;
      batch.push_back(Act(z, 99, ActionType::kBrowse, t += Seconds(1)));
      batch.push_back(Act(z, 1, ActionType::kBrowse, t += Seconds(1)));
    }
    ASSERT_TRUE((*engine)->ProcessBatch(batch).ok());
    pruned_flags = count_flags();
  }
  EXPECT_GT(pruned_flags, 0);

  // Serving still works: user 9000 touched items 99 and 1, so the strong
  // partners of both cliques are candidates (users 1000+ rated their whole
  // clique, leaving themselves nothing new).
  auto recs = (*engine)->query().RecommendCf(9000, 4, t + Seconds(10));
  ASSERT_TRUE(recs.ok());
  EXPECT_FALSE(recs->empty());
}

TEST(EngineTest, PipelineOnDurableEngines) {
  // The same pipeline with every TDStore instance on the FDB engine
  // (durable, file-backed) instead of MDB — the paper's engines are
  // interchangeable behind the instance API.
  TencentRec::Options options = BaseOptions("durable");
  options.store.engine.type = tdstore::EngineType::kFdb;
  const std::string prefix =
      ::testing::TempDir() + "engine_fdb_" + std::to_string(::getpid());
  options.store.engine.fdb_path = prefix;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());
  auto recs = (*engine)->query().RecommendCf(50, 3, Seconds(100));
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 102);
  // Cleanup the instance files.
  for (const auto& entry : std::filesystem::directory_iterator(
           ::testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("engine_fdb_", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
}

TEST(EngineTest, ParallelSpoutsSplitTopicPartitions) {
  TencentRec::Options options = BaseOptions("parspout");
  options.topic_partitions = 4;
  options.spout_parallelism = 2;  // two consumer-group members
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->PublishActions(CliqueTraffic()).ok());
  ASSERT_TRUE((*engine)->ProcessFromAccess().ok());

  // Both spout instances pulled data and the pipeline saw every action.
  for (const auto& m : (*engine)->last_metrics()) {
    if (m.component == "spout") {
      EXPECT_EQ(m.tuples_emitted, CliqueTraffic().size());
    }
    if (m.component == "pretreatment") {
      EXPECT_EQ(m.tuples_executed, CliqueTraffic().size());
    }
  }
  auto recs = (*engine)->query().RecommendCf(50, 3, Seconds(100));
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ((*recs)[0].item, 102);
}

TEST(EngineTest, ParallelCfMirrorMatchesReference) {
  TencentRec::Options options = BaseOptions("mirrored");
  options.mirror_parallel_cf = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->ProcessBatch(CliqueTraffic()).ok());

  core::ParallelItemCf* mirror = (*engine)->parallel_cf();
  ASSERT_NE(mirror, nullptr);

  // The mirror ran the identical algorithm configuration over the identical
  // batch, so its drained state matches a serial reference exactly.
  core::PracticalItemCf::Options ref_opts;
  ref_opts.weights = options.app.weights;
  ref_opts.linked_time = options.app.linked_time;
  ref_opts.top_k = options.app.top_k;
  ref_opts.recent_k = options.app.recent_k;
  ref_opts.session_length = options.app.session_length;
  ref_opts.window_sessions = options.app.window_sessions;
  ref_opts.enable_pruning = options.app.enable_pruning;
  ref_opts.hoeffding_delta = options.app.hoeffding_delta;
  core::PracticalItemCf reference(ref_opts);
  for (const auto& a : CliqueTraffic()) reference.ProcessAction(a);

  EXPECT_NEAR(mirror->Similarity(101, 102), reference.Similarity(101, 102),
              1e-12);
  EXPECT_GT(mirror->Similarity(101, 102), 0.0);
  auto recs = mirror->RecommendForUser(50, 3);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].item, 102);  // same answer as the store path

  // The mirror's stage counters surface through the monitor snapshot.
  auto snapshot = CollectMonitorSnapshot(engine->get());
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->pipeline.size(), 2u);
  EXPECT_EQ(snapshot->pipeline[0].stage, "user-history");
  EXPECT_EQ(snapshot->pipeline[0].events, CliqueTraffic().size());
  EXPECT_GT(snapshot->pipeline[0].workers, 0);
  EXPECT_EQ(snapshot->pipeline[1].stage, "count+sim");
  const std::string report = FormatMonitorSnapshot(*snapshot);
  EXPECT_NE(report.find("parallel cf pipeline"), std::string::npos);
  EXPECT_NE(report.find("user-history"), std::string::npos);
}

TEST(EngineTest, ActionsOutsideTheIdContractAreDroppedAndCounted) {
  // User -5 and item 2^32 + 7 used to reach the mirror's packed tables and
  // abort the process (PackUser / PackPair checks); item 2^32 + 7 would
  // also share CTR counters with item 7 in the store.
  TencentRec::Options options = BaseOptions("idcontract");
  options.mirror_parallel_cf = true;
  auto engine = TencentRec::Create(options);
  ASSERT_TRUE(engine.ok());
  Counter* rejected = topo::RejectedActionsCounter((*engine)->app());
  const uint64_t before = rejected->Value();

  const std::vector<UserAction> valid = CliqueTraffic();
  std::vector<UserAction> batch = valid;
  const EventTime t = batch.back().timestamp;
  batch.insert(batch.begin() + 3,
               Act(-5, 101, ActionType::kClick, t, Male()));
  batch.push_back(Act(2, (ItemId{1} << 32) + 7, ActionType::kClick, t,
                      Male()));
  ASSERT_TRUE((*engine)->ProcessBatch(batch).ok());
  EXPECT_EQ(rejected->Value() - before, 2u);

  // The mirror saw exactly the valid actions.
  core::PracticalItemCf::Options ref_opts;
  ref_opts.linked_time = options.app.linked_time;
  core::PracticalItemCf reference(ref_opts);
  for (const auto& a : valid) reference.ProcessAction(a);
  const core::ParallelItemCf* mirror = (*engine)->parallel_cf();
  EXPECT_EQ(mirror->stats().actions, static_cast<int64_t>(valid.size()));
  EXPECT_EQ(mirror->Similarity(101, 102), reference.Similarity(101, 102));
  for (UserId u : {UserId{1}, UserId{2}, UserId{50}}) {
    EXPECT_EQ(mirror->RecentItemsOf(u), reference.RecentItemsOf(u));
    EXPECT_EQ(mirror->RecommendForUser(u, 3), reference.RecommendForUser(u, 3));
  }

  // The TDAccess path drops them at the pretreatment bolt, on the same
  // counter, and none of their state reaches the store.
  ASSERT_TRUE((*engine)
                  ->PublishActions({Act(3, (ItemId{1} << 32) + 7,
                                        ActionType::kPurchase, t, Male()),
                                    Act(0, 101, ActionType::kClick, t)})
                  .ok());
  ASSERT_TRUE((*engine)->ProcessFromAccess().ok());
  EXPECT_EQ(rejected->Value() - before, 4u);
  auto count7 = (*engine)->query().WindowItemCount(7, t);
  ASSERT_TRUE(count7.ok());
  EXPECT_EQ(*count7, 0.0);
  auto count101 = (*engine)->query().WindowItemCount(101, t);
  ASSERT_TRUE(count101.ok());
  EXPECT_EQ(*count101, reference.counts().ItemCount(101));
}

}  // namespace
}  // namespace tencentrec::engine
