#include <gtest/gtest.h>

#include <set>

#include "common/metrics.h"
#include "common/random.h"
#include "common/topk.h"
#include "core/itemcf/item_cf.h"
#include "engine/tencentrec.h"
#include "topo/action_codec.h"
#include "topo/blob_codec.h"
#include "topo/bolts.h"
#include "topo/combiner.h"
#include "topo/spouts.h"
#include "topo/store_cache.h"
#include "topo/topology_factory.h"

namespace tencentrec::topo {
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

// --- blob codecs --------------------------------------------------------------

TEST(BlobCodecTest, UserHistoryRoundTrip) {
  core::UserHistory history;
  history.Restore(1, 2.0, Hours(1));
  history.Restore(7, 3.0, Hours(2));
  auto decoded = DecodeUserHistory(EncodeUserHistory(history));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 2u);
  EXPECT_DOUBLE_EQ(decoded->RatingOf(1), 2.0);
  EXPECT_DOUBLE_EQ(decoded->RatingOf(7), 3.0);
}

TEST(BlobCodecTest, EmptyHistoryRoundTrip) {
  core::UserHistory history;
  auto decoded = DecodeUserHistory(EncodeUserHistory(history));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 0u);
}

TEST(BlobCodecTest, CorruptHistoryRejected) {
  EXPECT_TRUE(DecodeUserHistory("xyz").status().IsCorruption());
  core::UserHistory history;
  history.Restore(1, 2.0, 3);
  std::string blob = EncodeUserHistory(history);
  blob.pop_back();  // truncated record
  EXPECT_TRUE(DecodeUserHistory(blob).status().IsCorruption());
  blob = EncodeUserHistory(history) + "x";  // trailing bytes
  EXPECT_TRUE(DecodeUserHistory(blob).status().IsCorruption());
}

TEST(BlobCodecTest, ScoredListRoundTrip) {
  core::Recommendations list = {{5, 0.9}, {3, 0.7}, {8, 0.1}};
  auto decoded = DecodeScoredList(EncodeScoredList(list));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, list);
  EXPECT_TRUE(DecodeScoredList("??").status().IsCorruption());
}

TEST(BlobCodecTest, TagVectorAndItemListRoundTrip) {
  core::TagVector tags = {{10, 1.0}, {20, 0.5}};
  auto dtags = DecodeTagVector(EncodeTagVector(tags));
  ASSERT_TRUE(dtags.ok());
  EXPECT_EQ(*dtags, tags);

  std::vector<ItemId> items = {1, 2, 99};
  auto ditems = DecodeItemList(EncodeItemList(items));
  ASSERT_TRUE(ditems.ok());
  EXPECT_EQ(*ditems, items);
}

TEST(BlobCodecTest, ContentProfileRoundTrip) {
  ContentProfileBlob profile;
  profile.last_update = Hours(5);
  profile.weights = {{1, 0.5}, {9, 2.0}};
  auto decoded = DecodeContentProfile(EncodeContentProfile(profile));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->last_update, Hours(5));
  EXPECT_EQ(decoded->weights, profile.weights);
}

TEST(BlobCodecTest, DoublePairRoundTrip) {
  auto decoded = DecodeDoublePair(EncodeDoublePair(1.5, -2.5));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->first, 1.5);
  EXPECT_DOUBLE_EQ(decoded->second, -2.5);
}

// --- action codec ---------------------------------------------------------------

TEST(ActionCodecTest, TupleRoundTrip) {
  Demographics d;
  d.gender = Demographics::kFemale;
  d.age_band = 3;
  d.region = 11;
  UserAction a = Act(42, 7, ActionType::kShare, Hours(9), d);
  auto decoded = ActionFromTuple(ActionToTuple(a));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->user, 42);
  EXPECT_EQ(decoded->item, 7);
  EXPECT_EQ(decoded->action, ActionType::kShare);
  EXPECT_EQ(decoded->timestamp, Hours(9));
  EXPECT_EQ(decoded->demographics, d);
}

TEST(ActionCodecTest, PayloadRoundTrip) {
  UserAction a = Act(1e9, 2e9, ActionType::kPurchase, Days(100));
  a.ingest_micros = 123456789;
  auto decoded = DecodeActionPayload(EncodeActionPayload(a));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->user, a.user);
  EXPECT_EQ(decoded->item, a.item);
  EXPECT_EQ(decoded->action, a.action);
  EXPECT_EQ(decoded->ingest_micros, 123456789u);
}

TEST(ActionCodecTest, DecodesLegacyPayloadWithoutIngest) {
  // Records written before the ingest stamp are 29 bytes (37 before the
  // trace id); both must still decode (disk-cached TDAccess history stays
  // replayable), with the missing trailing fields zero.
  UserAction a = Act(77, 88, ActionType::kClick, Hours(3));
  a.ingest_micros = 42;
  a.trace_id = 7;
  std::string payload = EncodeActionPayload(a);
  ASSERT_EQ(payload.size(), 45u);
  auto decoded = DecodeActionPayload(std::string_view(payload).substr(0, 29));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->user, 77);
  EXPECT_EQ(decoded->item, 88);
  EXPECT_EQ(decoded->action, ActionType::kClick);
  EXPECT_EQ(decoded->ingest_micros, 0u);
  EXPECT_EQ(decoded->trace_id, 0u);
  auto mid = DecodeActionPayload(std::string_view(payload).substr(0, 37));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->ingest_micros, 42u);
  EXPECT_EQ(mid->trace_id, 0u);
}

TEST(ActionCodecTest, TupleCarriesIngestStamp) {
  UserAction a = Act(5, 6, ActionType::kBrowse, Hours(1));
  a.ingest_micros = 987654321;
  auto decoded = ActionFromTuple(ActionToTuple(a));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ingest_micros, 987654321u);
}

TEST(ActionCodecTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeActionPayload("short").ok());
  EXPECT_FALSE(ActionFromTuple(tstorm::Tuple::Of({int64_t{1}})).ok());
  // Bad action code.
  tstorm::Tuple bad = tstorm::Tuple::Of(
      {int64_t{1}, int64_t{2}, int64_t{99}, int64_t{0}, int64_t{0},
       int64_t{0}, int64_t{0}, int64_t{0}});
  EXPECT_FALSE(ActionFromTuple(bad).ok());
  // Payload sizes between legacy (29) and current (37) are corrupt.
  EXPECT_FALSE(DecodeActionPayload(std::string(33, '\0')).ok());
}

// --- cache & combiner -------------------------------------------------------------

class CacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tdstore::Cluster::Options options;
    options.num_data_servers = 2;
    options.num_instances = 4;
    auto cluster = tdstore::Cluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    client_ = std::make_unique<tdstore::Client>(cluster_.get());
  }

  std::unique_ptr<tdstore::Cluster> cluster_;
  std::unique_ptr<tdstore::Client> client_;
};

TEST_F(CacheFixture, ReadThroughCachesHits) {
  StoreCache cache(client_.get(), 16);
  ASSERT_TRUE(client_->Put("k", "v").ok());
  auto first = cache.Get("k");
  ASSERT_TRUE(first.ok());
  auto second = cache.Get("k");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(CacheFixture, FlushedWritesVisibleToOtherReaders) {
  StoreCache cache(client_.get(), 16);
  cache.Put("k", "v1");
  // Another worker reading TDStore directly sees the write once the cache
  // ships it.
  ASSERT_TRUE(cache.Flush().ok());
  auto direct = client_->Get("k");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct, "v1");
}

TEST_F(CacheFixture, AddDoubleUsesCachedValue) {
  StoreCache cache(client_.get(), 16);
  ASSERT_TRUE(cache.AddDouble("c", 1.0).ok());
  ASSERT_TRUE(cache.AddDouble("c", 2.0).ok());
  ASSERT_TRUE(cache.Flush().ok());
  auto v = client_->GetDouble("c");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 3.0);
  // Second add hit the cache (no second store read).
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(CacheFixture, LruEvicts) {
  StoreCache cache(client_.get(), 2);
  cache.Put("a", "1");
  cache.Put("b", "2");
  cache.Put("c", "3");
  EXPECT_EQ(cache.size(), 3u);  // staged entries stay until flushed
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.size(), 2u);  // evicts "a", the least recently staged
  auto v = cache.Get("a");  // miss -> store
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(CacheFixture, CapacityZeroActsAsDisabled) {
  // Regression: capacity 0 used to reach lru_.back() on an empty list
  // inside the eviction loop (undefined behavior). It now keeps nothing
  // once it has shipped: every read of a shipped key passes through to
  // the store, and only staged puts are held.
  StoreCache cache(client_.get(), /*capacity=*/0);
  cache.Put("k", "v1");
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.size(), 0u);
  auto v = cache.Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v1");
  (void)cache.Get("k");
  EXPECT_EQ(cache.stats().hits, 0);  // nothing clean is ever cached
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.AddDouble("c", 1.5).ok());
  auto sum = cache.AddDouble("c", 1.0);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 2.5);  // read-modify-write still correct
  ASSERT_TRUE(cache.Flush().ok());
  auto direct = client_->GetDouble("c");
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(*direct, 2.5);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CacheFixture, CapacityOneHoldsExactlyOneEntry) {
  StoreCache cache(client_.get(), /*capacity=*/1);
  cache.Put("a", "1");
  cache.Put("b", "2");
  EXPECT_EQ(cache.size(), 2u);  // staged entries stay until flushed
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.size(), 1u);  // evicts "a"
  auto b = cache.Get("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().hits, 1);
  auto a = cache.Get("a");  // miss -> store, re-admitted, evicts "b"
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "1");
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  auto b2 = cache.Get("b");
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(CombinerTest, MergesSameKeyAndDrainsWholeBuffer) {
  Combiner combiner;
  combiner.Add("k1", 1.0);
  combiner.Add("k1", 2.0);
  combiner.Add("k2", 5.0);
  EXPECT_EQ(combiner.pending(), 2u);
  std::vector<std::pair<std::string, double>> drained;
  combiner.Drain(&drained);
  EXPECT_EQ(combiner.pending(), 0u);
  std::map<std::string, double> by_key(drained.begin(), drained.end());
  EXPECT_DOUBLE_EQ(by_key["k1"], 3.0);
  EXPECT_DOUBLE_EQ(by_key["k2"], 5.0);
  EXPECT_EQ(combiner.stats().added, 3);
  EXPECT_EQ(combiner.stats().flushed, 2);
  // Failed keys can be re-buffered, restoring at-least-once.
  combiner.Add("k1", by_key["k1"]);
  EXPECT_EQ(combiner.pending(), 1u);
}

/// Drives a bolt by hand; the bolts under test here emit nothing.
class NullCollector : public tstorm::OutputCollector {
 public:
  void Emit(tstorm::Tuple) override {}
  void EmitTo(int, tstorm::Tuple) override {}
};

TEST(CombinerTest, FailedFlushKeepsDeltaForTheNextTick) {
  // A combiner flush whose store write fails re-buffers the delta: it is
  // neither lost nor applied twice once the store is back.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "rebuffer";
  AppContext app(cluster->get(), options);
  ItemCountBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "item_count";
  bolt.Prepare(ctx);
  NullCollector out;
  bolt.Execute(tstorm::Tuple::Of({int64_t{7}, 1.5, int64_t{0}, int64_t{0},
                                  int64_t{0}}),
               {}, out);

  for (int s = 0; s < 2; ++s) (*cluster)->data_server(s)->SetDown(true);
  bolt.Tick(out);
  for (int s = 0; s < 2; ++s) (*cluster)->data_server(s)->SetDown(false);
  tdstore::Client client(cluster->get());
  EXPECT_TRUE(client.Get(app.keys.ItemCount(0, 7)).status().IsNotFound());

  bolt.Tick(out);
  bolt.Cleanup();
  auto stored = client.GetDouble(app.keys.ItemCount(0, 7), -1.0);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, 1.5);
  // The failed delta went back into the combiner once.
  EXPECT_EQ(bolt.combiner_stats().added, 2);
}

TEST(CombinerTest, TickCostsOneStoreCallPerHost) {
  // Counters bypass the cache: a tick whose buffer mixes keys the last tick
  // already flushed with first-seen keys ships one grouped increment per
  // host, not an overwrite batch beside an increment batch.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 8;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "onecall";
  AppContext app(cluster->get(), options);
  // Per host, one item flushed by both ticks and one first seen in tick 2.
  const tdstore::RouteTable route =
      (*cluster)->config().GetRouteTable().value();
  std::vector<ItemId> old_items, new_items;
  for (int server = 0; server < 2; ++server) {
    int found = 0;
    for (ItemId item = 1; found < 2; ++item) {
      if (route.PlacementOf(app.keys.ItemCount(0, item)).host_server !=
          server) {
        continue;
      }
      (found++ == 0 ? old_items : new_items).push_back(item);
    }
  }
  ItemCountBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "item_count";
  bolt.Prepare(ctx);
  NullCollector out;
  auto touch = [&](ItemId item) {
    bolt.Execute(tstorm::Tuple::Of({item, 1.0, int64_t{0}, int64_t{0},
                                    int64_t{0}}),
                 {}, out);
  };
  for (ItemId item : old_items) touch(item);
  bolt.Tick(out);

  for (ItemId item : old_items) touch(item);
  for (ItemId item : new_items) touch(item);
  for (int s = 0; s < 2; ++s) (*cluster)->data_server(s)->ResetCounters();
  bolt.Tick(out);
  bolt.Cleanup();
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ((*cluster)->data_server(s)->invocations(), 1) << "server " << s;
  }
  tdstore::Client client(cluster->get());
  for (ItemId item : old_items) {
    EXPECT_EQ(client.GetDouble(app.keys.ItemCount(0, item), -1.0).value(),
              2.0);
  }
  for (ItemId item : new_items) {
    EXPECT_EQ(client.GetDouble(app.keys.ItemCount(0, item), -1.0).value(),
              1.0);
  }
}

/// Records every emitted tuple with its stream index.
class RecordingCollector : public tstorm::OutputCollector {
 public:
  void Emit(tstorm::Tuple t) override { EmitTo(0, std::move(t)); }
  void EmitTo(int stream, tstorm::Tuple t) override {
    emitted.emplace_back(stream, std::move(t));
  }
  std::vector<std::pair<int, tstorm::Tuple>> emitted;
};

TEST(CfPairBoltTest, StaleItemCountsScoringAboveOneEmitNothing) {
  // pairCount can run ahead of the itemCounts, which reach the store only
  // at their combiner's flush. Over cumulative counts (the default, no
  // window) Eq. 5 then exceeds 1, which consistent counts never do; that
  // score must neither enter a similar list nor drive a prune decision.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "stale";
  options.enable_pruning = true;
  AppContext app(cluster->get(), options);
  tdstore::Client seed(cluster->get());
  constexpr ItemId kLo = 3, kHi = 9;
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, kLo), 1.0).ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, kHi), 1.0).ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.PairCount(0, kLo, kHi), 1.0).ok());

  CfPairBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "cf_pair";
  static_cast<StoreBolt&>(bolt).Prepare(ctx);  // CfPairBolt's is private
  RecordingCollector out;
  const tstorm::Tuple touch = tstorm::Tuple::Of(
      {kLo, kHi, 1.0, int64_t{0}, int64_t{0}, int64_t{0}});
  bolt.Execute(touch, {}, out);  // pc 2 over ic 1, 1: Eq. 5 gives 2
  bolt.Cleanup();
  EXPECT_TRUE(out.emitted.empty());
  EXPECT_EQ(bolt.prune_decisions(), 0);
  EXPECT_TRUE(seed.Get(app.keys.PairObservations(kLo, kHi))
                  .status()
                  .IsNotFound());
  EXPECT_EQ(seed.GetDouble(app.keys.PairCount(0, kLo, kHi), -1.0).value(),
            2.0);  // the pair count itself still lands

  // Once the itemCounts catch up, the next touch scores and emits.
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, kLo), 4.0).ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, kHi), 4.0).ok());
  bolt.Execute(touch, {}, out);  // pc 3 over ic 4, 4
  ASSERT_EQ(out.emitted.size(), 2u);
  for (const auto& [stream, tuple] : out.emitted) {
    EXPECT_EQ(stream, 0);  // sim_update
    EXPECT_EQ(tuple.GetDouble(2), 0.75);
  }
}

TEST(CfPairBoltTest, PairTouchReadsCountsAndThresholdsOncePerHost) {
  // A pair touch reads both items' windowed itemCounts and both admission
  // thresholds in one grouped read: at most one store call per data server,
  // however many sessions the window holds (a point read per session per
  // item would cost 2W calls).
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 3;
  store_options.num_instances = 12;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "grouped";
  options.enable_pruning = true;
  options.session_length = Hours(1);
  options.window_sessions = 4;
  AppContext app(cluster->get(), options);
  constexpr ItemId kLo = 3, kHi = 9;
  const EventTime ts = Hours(10) + Minutes(5);
  const tdstore::RouteTable route =
      (*cluster)->config().GetRouteTable().value();
  tdstore::Client seed(cluster->get());
  std::set<int> read_hosts;
  double ic_lo = 0.0, ic_hi = 0.0;
  for (int64_t s = app.WindowStart(ts); s <= app.SessionOf(ts); ++s) {
    ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(s, kLo), 2.0).ok());
    ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(s, kHi), 3.0).ok());
    ic_lo += 2.0;
    ic_hi += 3.0;
    read_hosts.insert(route.PlacementOf(app.keys.ItemCount(s, kLo)).host_server);
    read_hosts.insert(route.PlacementOf(app.keys.ItemCount(s, kHi)).host_server);
  }
  for (ItemId item : {kLo, kHi}) {
    ASSERT_TRUE(seed.PutDouble(app.keys.SimilarThreshold(item), 0.1).ok());
    read_hosts.insert(
        route.PlacementOf(app.keys.SimilarThreshold(item)).host_server);
  }
  ASSERT_GE(read_hosts.size(), 2u);  // the read really fans out

  CfPairBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "cf_pair";
  static_cast<StoreBolt&>(bolt).Prepare(ctx);  // CfPairBolt's is private
  RecordingCollector out;
  const tstorm::Tuple touch = tstorm::Tuple::Of(
      {kLo, kHi, 1.0, int64_t{ts}, int64_t{0}, int64_t{0}});
  // The first touch warms the cache with the bolt's own keys (prune flag,
  // pairCount sessions, n_ij); the second costs only the grouped read.
  bolt.Execute(touch, {}, out);
  for (int s = 0; s < 3; ++s) (*cluster)->data_server(s)->ResetCounters();
  out.emitted.clear();
  bolt.Execute(touch, {}, out);

  int64_t total = 0;
  for (int s = 0; s < 3; ++s) {
    const int64_t calls = (*cluster)->data_server(s)->invocations();
    total += calls;
    EXPECT_LE(calls, 1) << "server " << s;
  }
  EXPECT_EQ(total, static_cast<int64_t>(read_hosts.size()));
  ASSERT_EQ(out.emitted.size(), 2u);
  for (const auto& [stream, tuple] : out.emitted) {
    EXPECT_EQ(stream, 0);  // sim_update
    EXPECT_EQ(tuple.GetDouble(2), core::ItemSimilarity(2.0, ic_lo, ic_hi));
  }
  EXPECT_EQ(bolt.prune_decisions(), 0);
  bolt.Cleanup();
}

TEST(CfPairBoltTest, PairObservationsStageInTheCache) {
  // n_ij is the pair bolt's own key, as its pairCounts are: fields grouping
  // makes the bolt its one writer, so it stages in the write-behind cache
  // and reaches the store with the Cleanup flush, not per touch.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "observed";
  options.enable_pruning = true;
  AppContext app(cluster->get(), options);
  tdstore::Client seed(cluster->get());
  constexpr ItemId kLo = 3, kHi = 9;
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, kLo), 4.0).ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, kHi), 4.0).ok());

  CfPairBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "cf_pair";
  static_cast<StoreBolt&>(bolt).Prepare(ctx);  // CfPairBolt's is private
  RecordingCollector out;
  const tstorm::Tuple touch = tstorm::Tuple::Of(
      {kLo, kHi, 1.0, int64_t{0}, int64_t{0}, int64_t{0}});
  bolt.Execute(touch, {}, out);  // pc 1 over ic 4, 4
  bolt.Execute(touch, {}, out);  // pc 2 over ic 4, 4
  ASSERT_EQ(out.emitted.size(), 4u);  // both touches scored
  const std::string key = app.keys.PairObservations(kLo, kHi);
  EXPECT_TRUE(seed.Get(key).status().IsNotFound());
  bolt.Cleanup();
  EXPECT_EQ(seed.GetDouble(key, -1.0).value(), 2.0);
}

TEST(HotListBoltTest, HotTouchReadsThePopularityWindowOncePerHost) {
  // A hot touch reads the item's windowed group popularity in one grouped
  // read: at most one store call per data server, however many sessions the
  // window holds. A point read per session costs one call per session, and
  // four sessions over three servers put two on some server.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 3;
  store_options.num_instances = 12;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "hot";
  options.session_length = Hours(1);
  options.window_sessions = 4;
  AppContext app(cluster->get(), options);
  constexpr core::GroupId kGroup = 2;
  constexpr ItemId kItem = 7;
  const EventTime ts = Hours(10) + Minutes(5);
  const tdstore::RouteTable route =
      (*cluster)->config().GetRouteTable().value();
  tdstore::Client seed(cluster->get());
  std::set<int> read_hosts;
  double popularity = 0.0;
  double count = 0.5;
  for (int64_t s = app.WindowStart(ts); s <= app.SessionOf(ts); ++s) {
    const std::string key = app.keys.GroupHot(kGroup, s, kItem);
    read_hosts.insert(route.PlacementOf(key).host_server);
    if (s == app.WindowStart(ts) + 1) continue;  // absent: adds +0.0
    ASSERT_TRUE(seed.PutDouble(key, count).ok());
    popularity += count;
    count += 1.0;
  }
  ASSERT_GE(read_hosts.size(), 2u);  // the read really fans out

  HotListBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "hot_list";
  bolt.Prepare(ctx);
  RecordingCollector out;
  const tstorm::Tuple touch = tstorm::Tuple::Of(
      {int64_t{kGroup}, kItem, int64_t{ts}, int64_t{0}, int64_t{0}});
  // The first touch warms the cache with the group's hot list; the second
  // costs only the grouped popularity read.
  bolt.Execute(touch, {}, out);
  for (int s = 0; s < 3; ++s) (*cluster)->data_server(s)->ResetCounters();
  bolt.Execute(touch, {}, out);

  int64_t total = 0;
  for (int s = 0; s < 3; ++s) {
    const int64_t calls = (*cluster)->data_server(s)->invocations();
    total += calls;
    EXPECT_LE(calls, 1) << "server " << s;
  }
  EXPECT_EQ(total, static_cast<int64_t>(read_hosts.size()));
  bolt.Cleanup();
  auto blob = seed.Get(app.keys.HotList(kGroup));
  ASSERT_TRUE(blob.ok());
  auto list = DecodeScoredList(*blob);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].item, kItem);
  EXPECT_EQ((*list)[0].score, popularity);
}

// --- list bolts against TopK ------------------------------------------------

/// One scripted list tuple: an upsert of (other, score), or a prune of
/// `other`, and whether the list bolt must stage nothing for it.
struct ListStep {
  ItemId other = 0;
  double score = 0.0;
  bool prune = false;
  bool no_op = false;
};

/// The blob the list bolts must hold for `list`: its entries in rank order,
/// encoded as a plain list, so the check does not rest on the bolts' own
/// TopK encoder.
std::string EncodeRanked(const TopK<ItemId>& list) {
  core::Recommendations ranked;
  for (const auto& e : list.entries()) ranked.push_back({e.id, e.score});
  return EncodeScoredList(ranked);
}

/// The scripted sequence both list bolts replay at capacity 3: ties at the
/// threshold, a re-touch with the same score, newcomers that a full list
/// rejects, and (for the similar list) prunes, the last of which reopens a
/// full list's threshold to 0.
std::vector<ListStep> ListScript(bool with_prunes) {
  std::vector<ListStep> steps = {
      {10, 0.5},                  // first entry
      {11, 0.5},                  // ties rank by id
      {12, 0.5},                  // the list is full at threshold 0.5
      {13, 0.5, false, true},     // a tie at the threshold is rejected
      {11, 0.5, false, true},     // a re-touch with the same score
      {14, 0.25, false, true},    // below a full list's worst entry
      {12, 0.75},                 // a re-touch with a new score moves up
      {15, 0.625},                // beats the worst entry (11) and evicts it
      {10, 0.5, false, true},     // 10 is the worst entry now, unchanged
  };
  if (with_prunes) {
    steps.push_back({99, 0.0, true, true});  // prune of an absent entry
    steps.push_back({15, 0.0, true});        // reopens the threshold to 0
    steps.push_back({16, 0.125});            // refills, threshold 0.125
  }
  return steps;
}

TEST(SimilarListBoltTest, ListAndThresholdFollowTopK) {
  SetMetricsEnabled(true);
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "simlist";
  options.top_k = 3;
  AppContext app(cluster->get(), options);
  constexpr ItemId kItem = 7;
  SimilarListBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "similar_list";
  bolt.Prepare(ctx);
  Counter* staged =
      MetricRegistry::Default().GetCounter("topo.store_cache.staged_ops");
  tdstore::Client store(cluster->get());
  TopK<ItemId> expected(3);
  NullCollector out;
  int step = 0;
  for (const ListStep& s : ListScript(/*with_prunes=*/true)) {
    SCOPED_TRACE("step " + std::to_string(step++));
    const uint64_t before = staged->Value();
    if (s.prune) {
      bolt.Execute(tstorm::Tuple::Of({kItem, s.other}), {}, out);
      expected.Erase(s.other);
    } else {
      bolt.Execute(tstorm::Tuple::Of({kItem, s.other, s.score, int64_t{0},
                                      int64_t{0}}),
                   {}, out);
      expected.Update(s.other, s.score);
    }
    // A change stages the list and its threshold; a no-op stages nothing.
    EXPECT_EQ(staged->Value() - before, s.no_op ? 0u : 2u);
    bolt.Cleanup();
    auto blob = store.Get(app.keys.SimilarItems(kItem));
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, EncodeRanked(expected));
    EXPECT_EQ(store.GetDouble(app.keys.SimilarThreshold(kItem), -1.0).value(),
              expected.Threshold());
  }
  // The script ends on a full list: 12 (0.75), 10 (0.5), 16 (0.125).
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_EQ(expected.Threshold(), 0.125);
}

TEST(HotListBoltTest, HotListFollowsTopK) {
  SetMetricsEnabled(true);
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "hotlist";
  options.hot_list_size = 3;
  AppContext app(cluster->get(), options);
  constexpr core::GroupId kGroup = 4;
  HotListBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "hot_list";
  bolt.Prepare(ctx);
  Counter* staged =
      MetricRegistry::Default().GetCounter("topo.store_cache.staged_ops");
  tdstore::Client store(cluster->get());
  TopK<ItemId> expected(3);
  NullCollector out;
  int step = 0;
  for (const ListStep& s : ListScript(/*with_prunes=*/false)) {
    SCOPED_TRACE("step " + std::to_string(step++));
    // The touch's score is the item's popularity count, read from the store.
    ASSERT_TRUE(
        store.PutDouble(app.keys.GroupHot(kGroup, 0, s.other), s.score).ok());
    const uint64_t before = staged->Value();
    bolt.Execute(tstorm::Tuple::Of({int64_t{kGroup}, s.other, int64_t{0},
                                    int64_t{0}, int64_t{0}}),
                 {}, out);
    expected.Update(s.other, s.score);
    EXPECT_EQ(staged->Value() - before, s.no_op ? 0u : 1u);
    bolt.Cleanup();
    auto blob = store.Get(app.keys.HotList(kGroup));
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, EncodeRanked(expected));
  }
}

TEST(CfPairBoltTest, WindowedScoreAboveOneMatchesTheKernel) {
  // A sliding window bounds nothing: the co-rating lands in the session of
  // the later action, while the earlier item's rating delta stays in its
  // own session, which can leave the window first. Over consistent,
  // flushed counts Eq. 5 then exceeds 1; the serial kernel admits that
  // score, so the bolt must emit it too.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "windowed";
  options.session_length = Hours(1);
  options.window_sessions = 2;
  options.linked_time = Hours(6);
  AppContext app(cluster->get(), options);
  constexpr ItemId kQ = 3, kP = 9;
  const std::vector<UserAction> actions = {
      Act(1, kQ, ActionType::kPurchase, Minutes(30)),  // session 0
      Act(2, kQ, ActionType::kBrowse, Minutes(130)),   // session 2
      Act(1, kP, ActionType::kPurchase, Minutes(150)),  // session 2
  };

  // The pipeline's three CF bolts wired by hand, item counts flushed
  // before each pair touch so the pair reads consistent counts.
  tstorm::TaskContext ctx;
  UserHistoryBolt history(&app);
  ctx.component_name = "user_history";
  history.Prepare(ctx);
  ItemCountBolt item_count(&app);
  ctx.component_name = "item_count";
  item_count.Prepare(ctx);
  CfPairBolt cf_pair(&app);
  ctx.component_name = "cf_pair";
  static_cast<StoreBolt&>(cf_pair).Prepare(ctx);  // CfPairBolt's is private
  NullCollector sink;
  RecordingCollector sims;
  for (const UserAction& action : actions) {
    RecordingCollector staged;
    history.Execute(ActionToTuple(action), {}, staged);
    for (const auto& [stream, tuple] : staged.emitted) {
      if (stream == 0) item_count.Execute(tuple, {}, sink);
    }
    item_count.Tick(sink);
    sims.emitted.clear();
    for (const auto& [stream, tuple] : staged.emitted) {
      if (stream == 1) cf_pair.Execute(tuple, {}, sims);
    }
  }

  core::PracticalItemCf::Options kernel_options;
  kernel_options.linked_time = options.linked_time;
  kernel_options.session_length = options.session_length;
  kernel_options.window_sessions = options.window_sessions;
  core::PracticalItemCf kernel(kernel_options);
  for (const UserAction& action : actions) kernel.ProcessAction(action);
  const double expected = kernel.Similarity(kQ, kP);
  ASSERT_GT(expected, 1.0);
  ASSERT_NE(kernel.SimilarItems(kQ), nullptr);
  EXPECT_TRUE(kernel.SimilarItems(kQ)->Contains(kP));

  ASSERT_EQ(sims.emitted.size(), 2u);
  for (const auto& [stream, tuple] : sims.emitted) {
    EXPECT_EQ(stream, 0);  // sim_update
    EXPECT_EQ(tuple.GetDouble(2), expected);
  }
  history.Cleanup();
  item_count.Cleanup();
  cf_pair.Cleanup();
}

// --- event-to-store stamp guard ---------------------------------------------

// StoreBolt with the protected record hook exposed; Execute is never called.
class E2sProbeBolt : public StoreBolt {
 public:
  explicit E2sProbeBolt(const AppContext* app) : StoreBolt(app) {}
  void Execute(const tstorm::Tuple&, const tstorm::TupleSource&,
               tstorm::OutputCollector&) override {}
  using StoreBolt::RecordEventToStore;
};

TEST(EventToStoreGuardTest, UnstampedTuplesAreNeverRecorded) {
  SetMetricsEnabled(true);
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 4;
  auto cluster = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(cluster.ok());
  AppOptions options;
  options.app = "e2sguard";
  AppContext app(cluster->get(), options);
  E2sProbeBolt bolt(&app);
  tstorm::TaskContext ctx;
  ctx.component_name = "probe";
  bolt.Prepare(ctx);

  auto* hist = MetricRegistry::Default().GetHistogram(
      "topo.e2sguard.probe.event_to_store_us");
  const uint64_t before = hist->Snap().count;
  // Combiner-flush tuples and legacy payloads carry ingest == 0; recording
  // them would put a full MonoMicros() epoch into the latency histogram.
  bolt.RecordEventToStore(0);
  EXPECT_EQ(hist->Snap().count, before);
  bolt.RecordEventToStore(MonoMicros());
  EXPECT_EQ(hist->Snap().count, before + 1);
  // A stamp slightly in the future (cross-thread clock skew) clamps to 0
  // instead of wrapping to a huge unsigned delta.
  bolt.RecordEventToStore(MonoMicros() + 1'000'000);
  EXPECT_EQ(hist->Snap().count, before + 2);
  EXPECT_LT(hist->Snap().max, 1'000'000u);
}

// --- end-to-end pipeline vs. in-memory oracle -------------------------------------

engine::TencentRec::Options EngineOptions(const std::string& app) {
  engine::TencentRec::Options options;
  options.app.app = app;
  options.app.parallelism = 2;
  options.app.linked_time = Days(30);
  options.app.window_sessions = 0;
  options.app.combiner_interval = 16;
  options.app.algorithms.ctr = true;
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  return options;
}

std::vector<UserAction> RandomActions(uint64_t seed, int n) {
  Rng rng(seed);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kPurchase};
  std::vector<UserAction> actions;
  for (int i = 0; i < n; ++i) {
    Demographics d;
    if (rng.Bernoulli(0.8)) {
      d.gender = rng.Bernoulli(0.5) ? Demographics::kMale
                                    : Demographics::kFemale;
      d.age_band = static_cast<uint8_t>(rng.UniformInt(1, 5));
    }
    actions.push_back(Act(static_cast<UserId>(1 + rng.Uniform(15)),
                          static_cast<ItemId>(1 + rng.Uniform(25)),
                          kTypes[rng.Uniform(4)], Seconds(i), d));
  }
  return actions;
}

struct OracleCase {
  uint64_t seed = 0;
  int window_sessions = 0;  ///< 0 = cumulative counts
};

class PipelineOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(PipelineOracleTest, CountsMatchReferenceModel) {
  const OracleCase param = GetParam();
  const auto actions = RandomActions(param.seed, 600);

  auto options = EngineOptions("oracle");
  options.app.session_length = Seconds(60);
  options.app.window_sessions = param.window_sessions;
  auto engine = engine::TencentRec::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());

  core::PracticalItemCf::Options ref_options;
  ref_options.linked_time = Days(30);
  ref_options.session_length = Seconds(60);
  ref_options.window_sessions = param.window_sessions;
  core::PracticalItemCf reference(ref_options);
  for (const auto& action : actions) reference.ProcessAction(action);

  // Windowed item and pair counts in TDStore must equal the reference model
  // exactly — commutative increments of dyadic weights, single writer per
  // key, and final combiner flush guarantee it despite parallelism. With a
  // window, the session a delta lands in depends on each user's action
  // order, so this also checks that the topology keeps that order. The
  // reference window ends at the newest action's session.
  auto& query = (*engine)->query();
  const EventTime now = actions.back().timestamp;
  for (ItemId item = 1; item <= 25; ++item) {
    auto count = query.WindowItemCount(item, now);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, reference.counts().ItemCount(item)) << "item " << item;
  }
  for (ItemId a = 1; a <= 25; ++a) {
    for (ItemId b = a + 1; b <= 25; ++b) {
      auto count = query.WindowPairCount(a, b, now);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, reference.counts().PairCount(a, b))
          << "pair (" << a << ", " << b << ")";
    }
  }
  // Similarities recomputed from final counts match the reference bit for
  // bit: both compute Eq. 5 through core::ItemSimilarity.
  for (ItemId a = 1; a <= 25; ++a) {
    for (ItemId b = a + 1; b <= 25; ++b) {
      auto sim = query.SimilarityFromCounts(a, b, now);
      ASSERT_TRUE(sim.ok());
      EXPECT_EQ(*sim, reference.Similarity(a, b))
          << "pair (" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineOracleTest,
                         ::testing::Values(OracleCase{11, 0}, OracleCase{22, 0},
                                           OracleCase{33, 0}));
// 600 s of actions over 60 s sessions, 3 in the window.
INSTANTIATE_TEST_SUITE_P(Windowed, PipelineOracleTest,
                         ::testing::Values(OracleCase{11, 3}, OracleCase{22, 3},
                                           OracleCase{33, 3}));

TEST(PipelineTest, RestartDuringStreamLosesNothing) {
  // The paper's fault-tolerance claim: bolts are stateless, so crash-
  // restarting them mid-stream must leave the final TDStore state
  // identical (§3.3/§5.1).
  const auto actions = RandomActions(55, 800);

  auto baseline = engine::TencentRec::Create(EngineOptions("base"));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE((*baseline)->ProcessBatch(actions).ok());

  auto crashed = engine::TencentRec::Create(EngineOptions("crash"));
  ASSERT_TRUE(crashed.ok());
  ASSERT_TRUE((*crashed)
                  ->ProcessBatch(actions, {"item_count", "cf_pair",
                                           "user_history"})
                  .ok());
  // Restarts actually happened.
  uint64_t restarts = 0;
  for (const auto& m : (*crashed)->last_metrics()) restarts += m.restarts;
  EXPECT_GT(restarts, 0u);

  const EventTime now = Seconds(800);
  for (ItemId item = 1; item <= 25; ++item) {
    auto a = (*baseline)->query().WindowItemCount(item, now);
    auto b = (*crashed)->query().WindowItemCount(item, now);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(*a, *b, 1e-9) << "item " << item;
  }
  for (ItemId x = 1; x <= 25; ++x) {
    for (ItemId y = x + 1; y <= 25; ++y) {
      auto a = (*baseline)->query().WindowPairCount(x, y, now);
      auto b = (*crashed)->query().WindowPairCount(x, y, now);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_NEAR(*a, *b, 1e-9) << "pair (" << x << ", " << y << ")";
    }
  }
}

TEST(PipelineTest, MultiBatchEqualsSingleBatch) {
  // Stateless bolts + durable state: splitting the stream into batches
  // must not change the result.
  const auto actions = RandomActions(66, 600);

  auto whole = engine::TencentRec::Create(EngineOptions("whole"));
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE((*whole)->ProcessBatch(actions).ok());

  auto split = engine::TencentRec::Create(EngineOptions("split"));
  ASSERT_TRUE(split.ok());
  std::vector<UserAction> first(actions.begin(), actions.begin() + 300);
  std::vector<UserAction> second(actions.begin() + 300, actions.end());
  ASSERT_TRUE((*split)->ProcessBatch(first).ok());
  ASSERT_TRUE((*split)->ProcessBatch(second).ok());

  const EventTime now = Seconds(600);
  for (ItemId item = 1; item <= 25; ++item) {
    auto a = (*whole)->query().WindowItemCount(item, now);
    auto b = (*split)->query().WindowItemCount(item, now);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(*a, *b, 1e-9);
  }
}

TEST(PipelineTest, PretreatmentDropsInvalidActions) {
  std::vector<UserAction> actions = {
      Act(1, 1, ActionType::kClick, Seconds(1)),
      Act(-5, 1, ActionType::kClick, Seconds(2)),  // bad user
      Act(2, 0, ActionType::kClick, Seconds(3)),   // bad item
      Act(3, 3, ActionType::kClick, Seconds(4)),
  };
  auto engine = engine::TencentRec::Create(EngineOptions("filter"));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());
  for (const auto& m : (*engine)->last_metrics()) {
    if (m.component == "user_history") {
      EXPECT_EQ(m.tuples_executed, 2u);  // only the valid two got through
    }
  }
}

TEST(MultiAppTest, AppsShareOneTdStoreClusterWithoutCollisions) {
  // §6.1: "some applications share one common cluster". Two apps run their
  // topologies against the SAME TDStore cluster; the per-app key namespace
  // keeps their state disjoint.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 8;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());

  AppOptions news_options;
  news_options.app = "news";
  news_options.linked_time = Days(30);
  AppContext news(store->get(), news_options);

  AppOptions shop_options;
  shop_options.app = "shop";
  shop_options.linked_time = Days(30);
  AppContext shop(store->get(), shop_options);

  // Same user/item ids in both apps, different behaviour.
  std::vector<UserAction> news_actions, shop_actions;
  EventTime t = 0;
  for (UserId u = 1; u <= 4; ++u) {
    news_actions.push_back(Act(u, 1, ActionType::kRead, t += Seconds(1)));
    news_actions.push_back(Act(u, 2, ActionType::kRead, t += Seconds(1)));
    shop_actions.push_back(Act(u, 1, ActionType::kPurchase, t += Seconds(1)));
    shop_actions.push_back(Act(u, 3, ActionType::kPurchase, t += Seconds(1)));
  }

  for (auto& [app, actions] :
       std::vector<std::pair<AppContext*, std::vector<UserAction>*>>{
           {&news, &news_actions}, {&shop, &shop_actions}}) {
    auto spec = BuildAppTopology(app, [actions] {
      return std::make_unique<VectorActionSpout>(actions);
    });
    ASSERT_TRUE(spec.ok());
    auto cluster = tstorm::LocalCluster::Create(std::move(spec).value());
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->Run().ok());
  }

  const EventTime now = t + Seconds(10);
  StoreQuery news_query(&news);
  StoreQuery shop_query(&shop);
  // News saw (1,2) together; shop saw (1,3). No cross-contamination.
  EXPECT_GT(news_query.SimilarityFromCounts(1, 2, now).value(), 0.9);
  EXPECT_DOUBLE_EQ(news_query.SimilarityFromCounts(1, 3, now).value(), 0.0);
  EXPECT_GT(shop_query.SimilarityFromCounts(1, 3, now).value(), 0.9);
  EXPECT_DOUBLE_EQ(shop_query.SimilarityFromCounts(1, 2, now).value(), 0.0);
  // Item counts differ per app (read weight 2.0 vs purchase weight 3.0).
  EXPECT_NEAR(news_query.WindowItemCount(1, now).value(), 4 * 2.0, 1e-9);
  EXPECT_NEAR(shop_query.WindowItemCount(1, now).value(), 4 * 3.0, 1e-9);
}

}  // namespace
}  // namespace tencentrec::topo
