// The batched query tier: QueryCache semantics (dedupe, TTL positive +
// negative caching, single-flight coalescing, eviction, invalidation),
// StoreCache negative caching and write-behind staging (coalescing,
// auto-flush, failed flushes), StoreQuery parity with a point-read oracle
// on seeded streams, the deregistered-item N+1 regression and item expiry
// on RecommendCb, and per-candidate degradation under per-key store errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/itemcf/item_cf.h"
#include "engine/tencentrec.h"
#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "tdstore/codec.h"
#include "topo/blob_codec.h"
#include "topo/query.h"
#include "topo/query_cache.h"
#include "topo/store_cache.h"

namespace tencentrec {
namespace {

using core::ActionType;
using core::Demographics;
using core::ItemId;
using core::UserAction;
using core::UserId;
using topo::AppContext;
using topo::AppOptions;
using topo::QueryCache;
using topo::StoreCache;
using topo::StoreQuery;

int64_t TotalInvocations(tdstore::Cluster* cluster) {
  int64_t total = 0;
  for (int s = 0; s < cluster->num_data_servers(); ++s) {
    total += cluster->data_server(s)->invocations();
  }
  return total;
}

void ResetInvocations(tdstore::Cluster* cluster) {
  for (int s = 0; s < cluster->num_data_servers(); ++s) {
    cluster->data_server(s)->ResetCounters();
  }
}

// --- QueryCache unit tests (injected clock + counting fetch) ---

struct CountingFetch {
  int calls = 0;
  std::vector<std::string> last_keys;

  QueryCache::FetchFn Fn() {
    return [this](const std::vector<std::string>& keys,
                  std::vector<Result<std::string>>* out) {
      ++calls;
      last_keys = keys;
      out->clear();
      for (const auto& k : keys) {
        if (k.rfind("missing", 0) == 0) {
          out->push_back(Result<std::string>(Status::NotFound(k)));
        } else if (k.rfind("flaky", 0) == 0) {
          out->push_back(Result<std::string>(Status::Unavailable(k)));
        } else {
          out->push_back(std::string("v:" + k));
        }
      }
      return Status::OK();
    };
  }
};

QueryCache::Options FakeClockOptions(uint64_t* now, int64_t ttl = 1000) {
  QueryCache::Options o;
  o.ttl_micros = ttl;
  o.now_fn = [now] { return *now; };
  return o;
}

TEST(QueryCacheTest, BatchDedupesAndServesPositiveAndNegativeHits) {
  uint64_t now = 1000;
  QueryCache cache(FakeClockOptions(&now));
  CountingFetch fetch;

  std::vector<Result<std::string>> out;
  ASSERT_TRUE(
      cache.GetBatch({"a", "b", "a", "missing"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 1);  // one grouped fetch for the whole plan
  EXPECT_EQ(fetch.last_keys.size(), 3u);  // "a" deduped within the batch
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(*out[0], "v:a");
  EXPECT_EQ(*out[1], "v:b");
  EXPECT_EQ(*out[2], "v:a");
  EXPECT_TRUE(out[3].status().IsNotFound());

  // Within the TTL both the value and the NotFound are served from cache.
  ASSERT_TRUE(cache.GetBatch({"a", "missing"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 1);
  EXPECT_EQ(*out[0], "v:a");
  EXPECT_TRUE(out[1].status().IsNotFound());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.negative_hits, 1);
  EXPECT_EQ(stats.misses, 3);

  // Past the TTL the entries expire and the store is consulted again.
  now += 2000;
  ASSERT_TRUE(cache.GetBatch({"a", "missing"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 2);
  EXPECT_EQ(fetch.last_keys.size(), 2u);
}

TEST(QueryCacheTest, TransientErrorsAreNeverCached) {
  uint64_t now = 1000;
  QueryCache cache(FakeClockOptions(&now));
  CountingFetch fetch;

  std::vector<Result<std::string>> out;
  ASSERT_TRUE(cache.GetBatch({"flaky"}, fetch.Fn(), &out).ok());
  EXPECT_TRUE(out[0].status().IsUnavailable());
  ASSERT_TRUE(cache.GetBatch({"flaky"}, fetch.Fn(), &out).ok());
  EXPECT_TRUE(out[0].status().IsUnavailable());
  EXPECT_EQ(fetch.calls, 2);  // the Unavailable was not remembered
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryCacheTest, InvalidateAndClearDropEntries) {
  uint64_t now = 1000;
  QueryCache cache(FakeClockOptions(&now));
  CountingFetch fetch;

  std::vector<Result<std::string>> out;
  ASSERT_TRUE(cache.GetBatch({"a", "missing"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 1);

  cache.Invalidate("missing");  // the write-through hook for dead keys
  ASSERT_TRUE(cache.GetBatch({"a", "missing"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 2);
  EXPECT_EQ(fetch.last_keys, std::vector<std::string>{"missing"});

  cache.Clear();
  ASSERT_TRUE(cache.GetBatch({"a", "missing"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 3);
  EXPECT_EQ(fetch.last_keys.size(), 2u);
  EXPECT_GE(cache.stats().invalidations, 1);
}

TEST(QueryCacheTest, LruEvictionBoundsTheCache) {
  uint64_t now = 1000;
  auto options = FakeClockOptions(&now);
  options.capacity = 2;
  QueryCache cache(options);
  CountingFetch fetch;

  std::vector<Result<std::string>> out;
  ASSERT_TRUE(cache.GetBatch({"a", "b"}, fetch.Fn(), &out).ok());
  ASSERT_TRUE(cache.GetBatch({"c"}, fetch.Fn(), &out).ok());  // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.stats().evictions, 1);

  ASSERT_TRUE(cache.GetBatch({"a"}, fetch.Fn(), &out).ok());  // refetched
  EXPECT_EQ(fetch.calls, 3);
}

TEST(QueryCacheTest, ZeroTtlKeepsDedupeWithoutCaching) {
  uint64_t now = 1000;
  auto options = FakeClockOptions(&now, /*ttl=*/0);
  QueryCache cache(options);
  CountingFetch fetch;

  std::vector<Result<std::string>> out;
  ASSERT_TRUE(cache.GetBatch({"a", "a"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.last_keys.size(), 1u);  // dedupe still applies
  ASSERT_TRUE(cache.GetBatch({"a"}, fetch.Fn(), &out).ok());
  EXPECT_EQ(fetch.calls, 2);  // but nothing was cached
  EXPECT_EQ(cache.size(), 0u);
}

// --- single-flight coalescing: N concurrent querents, one store read ---

TEST(QueryCacheTest, ConcurrentIdenticalReadsCoalesceToOneStoreRoundTrip) {
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 8;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());

  AppOptions options;
  options.app = "flight";
  options.window_sessions = 0;  // cumulative: WindowItemCount reads 1 key
  AppContext app(store->get(), options);

  tdstore::Client seed(store->get());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, 42), 7.0).ok());

  auto cache = std::make_shared<QueryCache>(QueryCache::Options{});
  constexpr int kThreads = 8;
  std::vector<std::unique_ptr<StoreQuery>> queries;
  for (int t = 0; t < kThreads; ++t) {
    queries.push_back(std::make_unique<StoreQuery>(&app, cache));
  }

  ResetInvocations(store->get());
  std::atomic<int> ready{0};
  std::vector<double> results(kThreads, -1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto r = queries[t]->WindowItemCount(42, Seconds(100));
      ASSERT_TRUE(r.ok());
      results[t] = *r;
    });
  }
  for (auto& th : threads) th.join();

  for (double r : results) EXPECT_DOUBLE_EQ(r, 7.0);
  // Whether a thread coalesced onto the owner's flight or arrived after the
  // entry landed, exactly one server invocation carries all eight reads.
  EXPECT_EQ(TotalInvocations(store->get()), 1);
  const auto stats = cache->stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

// --- StoreCache negative caching (write path stays visible) ---

TEST(StoreCacheTest, NegativeEntryServesRepeatedMisses) {
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);

  EXPECT_TRUE(cache.Get("nope").status().IsNotFound());
  ResetInvocations(store->get());
  EXPECT_TRUE(cache.Get("nope").status().IsNotFound());
  EXPECT_EQ(TotalInvocations(store->get()), 0);  // served from the cache
  EXPECT_EQ(cache.stats().negative_hits, 1);
}

TEST(StoreCacheTest, PutAfterCachedNotFoundIsVisibleOnNextRead) {
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);

  EXPECT_TRUE(cache.Get("k").status().IsNotFound());  // negative entry
  cache.Put("k", "fresh");                             // staged
  auto v = cache.Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "fresh");
  // And the store really has it once the cache ships it (not cache-only).
  ASSERT_TRUE(cache.Flush().ok());
  auto stored = client.Get("k");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, "fresh");
}

TEST(StoreCacheTest, AddDoubleAfterCachedNotFoundSkipsTheReadAndWrites) {
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);

  EXPECT_TRUE(cache.Get("ctr").status().IsNotFound());
  ResetInvocations(store->get());
  auto sum = cache.AddDouble("ctr", 2.5);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 2.5);
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(TotalInvocations(store->get()), 1);  // the Put only, no read
  EXPECT_GE(cache.stats().negative_hits, 1);
  auto stored = client.GetDouble("ctr", -1.0);
  ASSERT_TRUE(stored.ok());
  EXPECT_DOUBLE_EQ(*stored, 2.5);
  // The next read is a positive hit now.
  auto v = cache.Get("ctr");
  ASSERT_TRUE(v.ok());
}

TEST(StoreCacheTest, FailedFlushKeepsTheDeltaForTheKeysNextPut) {
  // A put whose flush fails leaves the cache ahead of the store and stays
  // staged; the key's next write builds on the staged value and replaces
  // it, so the store ends up with both deltas.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);

  ASSERT_TRUE(cache.AddDouble("pc", 1.5).ok());
  for (int s = 0; s < 2; ++s) (*store)->data_server(s)->SetDown(true);
  EXPECT_FALSE(cache.Flush().ok());
  EXPECT_FALSE(cache.last_error().ok());
  for (int s = 0; s < 2; ++s) (*store)->data_server(s)->SetDown(false);

  auto sum = cache.AddDouble("pc", 2.0);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 3.5);
  ASSERT_TRUE(cache.Flush().ok());
  auto stored = client.GetDouble("pc", -1.0);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, 3.5);
}

TEST(StoreCacheTest, FailedPutStaysStagedThroughEvictionPressure) {
  // A staged entry is never evicted, so a put whose flush failed is still
  // the key's value when the next write builds on it, and it lands once the
  // store is back: at capacity 1 with another key competing for the slot,
  // and at capacity 0, which keeps nothing once it has shipped.
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  auto set_down = [&](bool down) {
    for (int s = 0; s < 2; ++s) (*store)->data_server(s)->SetDown(down);
  };

  StoreCache one(&client, /*capacity=*/1);
  ASSERT_TRUE(one.AddDouble("pc", 1.5).ok());
  set_down(true);
  EXPECT_FALSE(one.Flush().ok());
  set_down(false);
  ASSERT_TRUE(one.AddDouble("evictor", 1.0).ok());  // "pc" stays staged
  ResetInvocations(store->get());
  auto sum = one.AddDouble("pc", 2.0);  // built on the staged value
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 3.5);
  EXPECT_EQ(TotalInvocations(store->get()), 0);
  ASSERT_TRUE(one.Flush().ok());
  EXPECT_EQ(client.GetDouble("pc", -1.0).value(), 3.5);
  EXPECT_EQ(one.size(), 1u);  // clean again, and bounded by the capacity

  StoreCache none(&client, /*capacity=*/0);
  none.Put("pr:flag", "1");
  set_down(true);
  EXPECT_FALSE(none.Flush().ok());
  EXPECT_EQ(none.pending(), 1u);
  set_down(false);
  ASSERT_TRUE(none.Flush().ok());
  EXPECT_EQ(none.size(), 0u);
  auto flag = client.Get("pr:flag");
  ASSERT_TRUE(flag.ok());
  EXPECT_EQ(*flag, "1");
}

tdstore::Cluster::Options ThreeServers() {
  tdstore::Cluster::Options options;
  options.num_data_servers = 3;
  options.num_instances = 8;
  return options;
}

std::string Key(int i) { return "k" + std::to_string(i); }

TEST(StoreCacheTest, CoalescesPutsLastValueWins) {
  auto store = tdstore::Cluster::Create(ThreeServers());
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);
  cache.Put("k", "v1");
  cache.Put("k", "v2");
  EXPECT_EQ(cache.pending(), 1u);
  EXPECT_EQ(cache.Get("k").value(), "v2");
  ResetInvocations(store->get());
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(cache.pending(), 0u);
  EXPECT_EQ(TotalInvocations(store->get()), 1);  // one put shipped
  ASSERT_TRUE(cache.Flush().ok());  // nothing staged: no store call
  EXPECT_EQ(TotalInvocations(store->get()), 1);
  EXPECT_EQ(cache.flushes(), 1);
  EXPECT_EQ(client.Get("k").value(), "v2");
}

TEST(StoreCacheTest, AutoFlushesAtTheStagedKeyThreshold) {
  auto store = tdstore::Cluster::Create(ThreeServers());
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);
  const int n = static_cast<int>(StoreCache::kFlushAt);
  for (int i = 0; i + 1 < n; ++i) cache.Put(Key(i), "v");
  cache.Put(Key(0), "again");  // coalesced: not a new staged key
  EXPECT_EQ(cache.flushes(), 0);
  EXPECT_EQ(cache.pending(), StoreCache::kFlushAt - 1);
  cache.Put(Key(n - 1), "v");
  EXPECT_EQ(cache.flushes(), 1);
  EXPECT_EQ(cache.pending(), 0u);
  EXPECT_EQ(client.Get(Key(0)).value(), "again");
  EXPECT_EQ(client.Get(Key(n - 1)).value(), "v");
  EXPECT_EQ(cache.size(), 16u);  // shipped entries are clean, LRU-bounded
}

TEST(StoreCacheTest, SurfacesErrorsThroughFlushAndLastError) {
  auto store = tdstore::Cluster::Create(ThreeServers());
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  for (int s = 0; s < 3; ++s) (*store)->data_server(s)->SetDown(true);

  StoreCache cache(&client, /*capacity=*/16);
  cache.Put("k", "v");
  EXPECT_TRUE(cache.Flush().IsUnavailable());
  EXPECT_TRUE(cache.last_error().IsUnavailable());
  cache.ClearError();
  EXPECT_TRUE(cache.last_error().ok());

  // An auto-flush failure has no caller to return to; last_error() keeps
  // it for the next check.
  StoreCache eager(&client, /*capacity=*/16);
  for (size_t i = 0; i < StoreCache::kFlushAt; ++i) {
    eager.Put(Key(static_cast<int>(i)), "v");
  }
  EXPECT_EQ(eager.flushes(), 1);
  EXPECT_TRUE(eager.last_error().IsUnavailable());
}

TEST(StoreCacheTest, FailedFlushRestagesItsPuts) {
  auto store = tdstore::Cluster::Create(ThreeServers());
  ASSERT_TRUE(store.ok());
  tdstore::Client client(store->get());
  StoreCache cache(&client, /*capacity=*/16);
  const int n = static_cast<int>(StoreCache::kFlushAt);

  for (int s = 0; s < 3; ++s) (*store)->data_server(s)->SetDown(true);
  for (int i = 0; i < n; ++i) cache.Put(Key(i), "old");  // auto-flush fails
  EXPECT_EQ(cache.flushes(), 1);
  EXPECT_EQ(cache.pending(), StoreCache::kFlushAt);
  EXPECT_EQ(cache.Get(Key(0)).value(), "old");  // still this key's value
  // The retry waits for kFlushAt new puts, not one store call per put.
  for (int i = n; i + 1 < 2 * n; ++i) cache.Put(Key(i), "new");
  cache.Put(Key(1), "newer");  // replaces the re-staged put
  EXPECT_EQ(cache.flushes(), 1);
  EXPECT_EQ(cache.pending(), 2 * StoreCache::kFlushAt - 1);
  for (int s = 0; s < 3; ++s) (*store)->data_server(s)->SetDown(false);

  cache.Put(Key(2 * n - 1), "new");  // the kFlushAt-th new put
  EXPECT_EQ(cache.flushes(), 2);
  EXPECT_EQ(cache.pending(), 0u);
  EXPECT_TRUE(cache.last_error().IsUnavailable());  // kept from flush 1
  EXPECT_EQ(client.Get(Key(0)).value(), "old");
  EXPECT_EQ(client.Get(Key(1)).value(), "newer");
  EXPECT_EQ(client.Get(Key(2 * n - 1)).value(), "new");
}

TEST(StoreCacheTest, CapacityZeroStagesReadModifyWrites) {
  // Capacity 0 keeps nothing clean, but a read-modify-write key is staged
  // until it ships: N adds on one key cost one store read, and the flush
  // one write call.
  auto store = tdstore::Cluster::Create(ThreeServers());
  ASSERT_TRUE(store.ok());
  tdstore::Cluster* cluster = store->get();
  tdstore::Client client(cluster);
  ASSERT_TRUE(client.PutDouble("pc", 1.0).ok());
  auto sum_of = [cluster](int64_t (tdstore::DataServer::*counter)() const) {
    int64_t total = 0;
    for (int s = 0; s < cluster->num_data_servers(); ++s) {
      total += (cluster->data_server(s)->*counter)();
    }
    return total;
  };
  StoreCache cache(&client, /*capacity=*/0);
  ResetInvocations(cluster);
  constexpr int kAdds = 5;
  for (int i = 0; i < kAdds; ++i) ASSERT_TRUE(cache.AddDouble("pc", 0.5).ok());
  EXPECT_EQ(sum_of(&tdstore::DataServer::reads), 1);
  EXPECT_EQ(sum_of(&tdstore::DataServer::writes), 0);
  EXPECT_EQ(TotalInvocations(cluster), 1);
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(sum_of(&tdstore::DataServer::writes), 1);
  EXPECT_EQ(TotalInvocations(cluster), 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(client.GetDouble("pc", -1.0).value(), 1.0 + 0.5 * kAdds);
}

// --- satellite 1: the deregistered-item N+1 on RecommendCb ---

TEST(StoreQueryTest, DeadItemInManyTagIndexesCostsBoundedReads) {
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  store_options.num_instances = 8;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Client seed(store->get());

  AppOptions options;
  options.app = "cb";
  AppContext app(store->get(), options);

  // User 7's profile spans K tags; every tag's inverted index holds only
  // item 99, whose it:99 tag vector was never written (deregistered).
  constexpr int kTags = 5;
  constexpr UserId kUser = 7;
  constexpr ItemId kDead = 99;
  const EventTime now = Seconds(500);
  topo::ContentProfileBlob profile;
  for (int t = 1; t <= kTags; ++t) profile.weights.emplace_back(t, 1.0);
  profile.last_update = now;
  ASSERT_TRUE(seed.Put(app.keys.ContentProfile(kUser),
                       topo::EncodeContentProfile(profile))
                  .ok());
  for (int t = 1; t <= kTags; ++t) {
    ASSERT_TRUE(
        seed.Put(app.keys.TagIndex(t), topo::EncodeItemList({kDead})).ok());
  }

  StoreQuery query(&app);
  ResetInvocations(store->get());
  auto recs = query.RecommendCb(kUser, 10, now);
  ASSERT_TRUE(recs.ok());
  EXPECT_TRUE(recs->empty());
  // Four grouped stages (profile, history, tag indexes, item tags); only
  // the tag-index stage can span both hosts. Independent of kTags, and the
  // dead item is probed once however many indexes list it.
  EXPECT_LE(TotalInvocations(store->get()), 5);
}

// --- satellite 2: per-candidate degradation under per-key store errors ---

TEST(StoreQueryTest, RecommendCfDegradesPerCandidateOnKeyErrors) {
  tdstore::Cluster::Options store_options;
  store_options.num_data_servers = 2;
  // Not a power of two: with 8 instances over 2 servers the host is the
  // FNV hash's lowest bit, which is linear in the key bytes — sim:<q> and
  // ic:<q> would land on opposite servers for EVERY q, making the layout
  // below unsatisfiable. 7 instances mix all hash bits into the host.
  store_options.num_instances = 7;
  auto store = tdstore::Cluster::Create(store_options);
  ASSERT_TRUE(store.ok());
  tdstore::Cluster* cluster = store->get();
  tdstore::Client seed(cluster);

  AppOptions options;
  options.app = "deg";
  options.window_sessions = 0;
  AppContext app(cluster, options);

  // Find a layout where one server's outage hits only candidate p2's
  // counters: user history, sim:q, and everything p1 needs live elsewhere.
  constexpr UserId kUser = 1;
  const std::string hist_key = app.keys.UserHistory(kUser);
  const tdstore::RouteTable route = cluster->config().GetRouteTable().value();
  auto host_of = [&route](const std::string& key) {
    return route.PlacementOf(key).host_server;
  };
  ItemId q = 0, p1 = 0, p2 = 0;
  int target = -1;
  for (int t = 0; t < cluster->num_data_servers() && p2 == 0; ++t) {
    if (host_of(hist_key) == t) continue;
    for (ItemId cq = 2; cq <= 80 && p2 == 0; ++cq) {
      if (host_of(app.keys.SimilarItems(cq)) == t) continue;
      if (host_of(app.keys.ItemCount(0, cq)) == t) continue;
      for (ItemId c1 = cq + 1; c1 <= 90 && p2 == 0; ++c1) {
        if (host_of(app.keys.ItemCount(0, c1)) == t) continue;
        const ItemId lo1 = std::min(cq, c1), hi1 = std::max(cq, c1);
        if (host_of(app.keys.PairCount(0, lo1, hi1)) == t) continue;
        for (ItemId c2 = c1 + 1; c2 <= 100; ++c2) {
          if (host_of(app.keys.ItemCount(0, c2)) != t) continue;
          q = cq;
          p1 = c1;
          p2 = c2;
          target = t;
          break;
        }
      }
    }
  }
  ASSERT_NE(p2, 0) << "no suitable key layout found";

  const EventTime now = Seconds(100);
  core::UserHistory history;
  history.Restore(q, 3.0, now);
  ASSERT_TRUE(seed.Put(hist_key, topo::EncodeUserHistory(history)).ok());
  ASSERT_TRUE(seed.Put(app.keys.SimilarItems(q),
                       topo::EncodeScoredList({{p1, 0.9}, {p2, 0.8}}))
                  .ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, q), 5.0).ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, p1), 4.0).ok());
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, p2), 4.0).ok());
  ASSERT_TRUE(
      seed.PutDouble(app.keys.PairCount(0, std::min(q, p1), std::max(q, p1)),
                     2.0)
          .ok());
  ASSERT_TRUE(
      seed.PutDouble(app.keys.PairCount(0, std::min(q, p2), std::max(q, p2)),
                     2.0)
          .ok());

  // Healthy store: both candidates, scored by Eq. 2 with the log1p(Σ sim)
  // boost over the seeded counts. Each has one recent neighbour q (rating
  // 3), itemCount 4 against q's 5, and pairCount 2 with q; the tie on score
  // ranks p1 (lower id) first.
  const double sim = 2.0 / std::sqrt(4.0 * 5.0);
  const double num = sim * 3.0;
  const double den = sim;
  const double want = (num / den) * (1.0 + std::log1p(den));
  {
    StoreQuery healthy_query(&app);
    auto healthy = healthy_query.RecommendCf(kUser, 10, now);
    ASSERT_TRUE(healthy.ok());
    ASSERT_EQ(healthy->size(), 2u);
    EXPECT_EQ((*healthy)[0].item, p1);
    EXPECT_EQ((*healthy)[0].score, want);
    EXPECT_EQ((*healthy)[1].item, p2);
    EXPECT_EQ((*healthy)[1].score, want);
  }

  // Down server: the recommendation drops only p2, whose count it cannot
  // read, instead of failing as a whole.
  cluster->data_server(target)->SetDown(true);
  StoreQuery degraded_query(&app);  // fresh cache: no healthy leftovers
  auto degraded = degraded_query.RecommendCf(kUser, 10, now);
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(degraded->size(), 1u);
  EXPECT_EQ((*degraded)[0].item, p1);
  EXPECT_EQ((*degraded)[0].score, want);
  cluster->data_server(target)->SetDown(false);
}

TEST(StoreQueryTest, UnreadableCountDropsItsCandidateOnceOnTheCounter) {
  // A count the plan cannot read (here a corrupt itemCount blob) drops only
  // its candidate, which counts once on topo.query.degraded_candidates
  // though both of the user's recent items list it.
  auto store = tdstore::Cluster::Create({});
  ASSERT_TRUE(store.ok());
  tdstore::Client seed(store->get());
  AppOptions options;
  options.app = "unread";
  options.window_sessions = 0;
  AppContext app(store->get(), options);

  constexpr UserId kUser = 1;
  const EventTime now = Seconds(100);
  core::UserHistory history;
  history.Restore(1, 3.0, now);
  history.Restore(2, 2.0, now - 1);
  ASSERT_TRUE(seed.Put(app.keys.UserHistory(kUser),
                       topo::EncodeUserHistory(history))
                  .ok());
  for (ItemId q : {1, 2}) {
    ASSERT_TRUE(seed.Put(app.keys.SimilarItems(q),
                         topo::EncodeScoredList({{10, 0.9}, {20, 0.8}}))
                    .ok());
    ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, q), 5.0).ok());
    for (ItemId p : {10, 20}) {
      ASSERT_TRUE(seed.PutDouble(app.keys.PairCount(0, q, p), 2.0).ok());
    }
  }
  ASSERT_TRUE(seed.PutDouble(app.keys.ItemCount(0, 10), 4.0).ok());
  ASSERT_TRUE(seed.Put(app.keys.ItemCount(0, 20), "not a double").ok());

  Counter* degraded = MetricRegistry::Default().GetCounter(
      "topo.query.degraded_candidates");
  const uint64_t before = degraded->Value();
  StoreQuery query(&app);
  auto recs = query.RecommendCf(kUser, 10, now);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].item, 10);
  EXPECT_EQ(degraded->Value() - before, 1u);
}

// --- parity: the query tier against a point-read oracle ---

std::vector<UserAction> SeededStream(uint64_t seed, int n) {
  Rng rng(seed);
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kPurchase,
                               ActionType::kImpression};
  std::vector<UserAction> actions;
  actions.reserve(n);
  for (int i = 0; i < n; ++i) {
    UserAction a;
    a.user = static_cast<UserId>(1 + rng.Uniform(20));
    a.item = static_cast<ItemId>(1 + rng.Uniform(15));
    a.action = kTypes[rng.Uniform(5)];
    a.timestamp = Seconds(i * 3);
    if (rng.Bernoulli(0.7)) {
      a.demographics.gender = rng.Bernoulli(0.5) ? Demographics::kMale
                                                 : Demographics::kFemale;
      a.demographics.age_band = static_cast<uint8_t>(rng.UniformInt(1, 4));
    }
    actions.push_back(a);
  }
  return actions;
}

engine::TencentRec::Options ParityOptions(const std::string& app) {
  engine::TencentRec::Options options;
  options.app.app = app;
  options.app.parallelism = 2;
  options.app.linked_time = Days(30);
  options.app.algorithms.ctr = true;
  options.app.algorithms.content_based = true;
  options.app.session_length = Seconds(300);
  options.app.window_sessions = 4;
  options.app.combiner_interval = 16;
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  return options;
}

void SortAndTruncate(core::Recommendations* scored, size_t n) {
  std::sort(scored->begin(), scored->end(),
            [](const core::ScoredItem& a, const core::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  if (scored->size() > n) scored->resize(n);
}

/// The reference for StoreQuery's planned reads: every windowed counter is
/// summed from one tdstore::Client::GetDouble per session key of the
/// window, in session order, and every blob is one point Get. Scores are
/// recomputed from those reads by the formulas the query tier implements.
/// Only healthy stores (every read succeeds) and apps without a
/// result_filter.
class PointReadOracle {
 public:
  explicit PointReadOracle(const AppContext* app)
      : app_(app), client_(app->store) {}

  /// Eq. 2 over the user's recent-k items, boosted by log1p(Σ sim) (§4.3);
  /// candidates come from the recent items' sim:<q> lists.
  core::Recommendations RecommendCf(UserId user, size_t n, EventTime now) {
    const core::UserHistory history = History(user);
    const int recent_k = app_->options.recent_k;
    const std::vector<ItemId> recent = history.RecentItems(
        recent_k > 0 ? static_cast<size_t>(recent_k) : history.size());
    std::map<ItemId, std::vector<ItemId>> cand_recents;
    for (ItemId q : recent) {
      for (const auto& entry : List(app_->keys.SimilarItems(q))) {
        if (history.RatingOf(entry.item) > 0.0) continue;
        cand_recents[entry.item].push_back(q);
      }
    }
    core::Recommendations scored;
    for (const auto& [p, qs] : cand_recents) {
      const double cp = ItemCount(p, now);
      if (cp <= 0.0) continue;
      double num = 0.0;
      double den = 0.0;
      for (ItemId q : qs) {
        const double cq = ItemCount(q, now);
        if (cq <= 0.0) continue;
        const double pc = PairCount(p, q, now);
        if (pc <= 0.0) continue;
        const double sim = pc / std::sqrt(cp * cq);
        num += sim * history.RatingOf(q);
        den += sim;
      }
      if (den <= 0.0) continue;
      scored.push_back({p, (num / den) * (1.0 + std::log1p(den))});
    }
    SortAndTruncate(&scored, n);
    return scored;
  }

  /// Confidence(from -> to) = windowPairCount / windowItemCount(from) over
  /// the sim:<from> candidates, with StoreQuery's default thresholds.
  core::Recommendations RecommendAr(ItemId from, size_t n, EventTime now) {
    const core::Recommendations list = List(app_->keys.SimilarItems(from));
    if (list.empty()) return {};
    const double base = ItemCount(from, now);
    if (base <= 0.0) return {};
    core::Recommendations scored;
    for (const auto& entry : list) {
      const double joint = PairCount(from, entry.item, now);
      if (joint < 2.0) continue;
      const double conf = joint / base;
      if (conf < 0.05) continue;
      scored.push_back({entry.item, conf});
    }
    SortAndTruncate(&scored, n);
    return scored;
  }

  /// Cosine of the half-life-decayed tag profile against each unseen
  /// candidate's tag vector, candidates drawn from the tag indexes.
  core::Recommendations RecommendCb(UserId user, size_t n, EventTime now) {
    auto blob = client_.Get(app_->keys.ContentProfile(user));
    if (!blob.ok()) return {};
    auto profile = topo::DecodeContentProfile(*blob);
    EXPECT_TRUE(profile.ok());
    if (!profile.ok()) return {};
    double factor = 1.0;
    if (now > profile->last_update && app_->options.profile_half_life > 0) {
      const double lambda =
          std::log(2.0) / static_cast<double>(app_->options.profile_half_life);
      factor =
          std::exp(-lambda * static_cast<double>(now - profile->last_update));
    }
    double profile_norm2 = 0.0;
    for (const auto& [tag, w] : profile->weights) {
      profile_norm2 += (w * factor) * (w * factor);
    }
    if (profile_norm2 <= 0.0) return {};
    const double profile_norm = std::sqrt(profile_norm2);
    const core::UserHistory history = History(user);

    std::set<ItemId> seen;
    core::Recommendations scored;
    for (const auto& [tag, w] : profile->weights) {
      auto index = client_.Get(app_->keys.TagIndex(tag));
      if (!index.ok()) continue;
      auto items = topo::DecodeItemList(*index);
      EXPECT_TRUE(items.ok());
      if (!items.ok()) continue;
      for (ItemId item : *items) {
        if (history.RatingOf(item) > 0.0 || !seen.insert(item).second) {
          continue;
        }
        auto tags_blob = client_.Get(app_->keys.ItemTags(item));
        if (!tags_blob.ok()) continue;  // deregistered
        auto tags = topo::DecodeTagVector(*tags_blob);
        EXPECT_TRUE(tags.ok());
        if (!tags.ok()) continue;
        double norm2 = 0.0;
        double dot = 0.0;
        for (const auto& [t2, w2] : *tags) {
          norm2 += w2 * w2;
          for (const auto& [pt, pw] : profile->weights) {
            if (pt == t2) dot += (pw * factor) * w2;
          }
        }
        const double norm = std::sqrt(norm2);
        if (norm <= 0.0 || dot <= 0.0) continue;
        scored.push_back({item, dot / (profile_norm * norm)});
      }
    }
    SortAndTruncate(&scored, n);
    return scored;
  }

  /// CF complemented by the demographic group's hot list (global group when
  /// the group has none), skipping rated and already-chosen items.
  core::Recommendations Recommend(UserId user, const Demographics& d,
                                  size_t n, EventTime now) {
    core::Recommendations out = RecommendCf(user, n, now);
    if (out.size() >= n) return out;
    std::set<ItemId> exclude;
    for (const auto& s : out) exclude.insert(s.item);
    const core::UserHistory history = History(user);
    for (const auto& [item, st] : history.items()) {
      if (st.rating > 0.0) exclude.insert(item);
    }
    const core::GroupId group = core::DemographicGroup(d);
    core::Recommendations hot = List(app_->keys.HotList(group));
    if (hot.empty() && group != 0) hot = List(app_->keys.HotList(0));
    if (hot.size() > n + exclude.size()) hot.resize(n + exclude.size());
    for (const auto& h : hot) {
      if (out.size() >= n) break;
      if (exclude.count(h.item) > 0) continue;
      out.push_back(h);
    }
    return out;
  }

 private:
  double WindowSum(const std::function<std::string(int64_t)>& key_of,
                   EventTime now) {
    double sum = 0.0;
    for (int64_t s = app_->WindowStart(now); s <= app_->SessionOf(now); ++s) {
      auto v = client_.GetDouble(key_of(s), 0.0);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (v.ok()) sum += *v;
    }
    return sum;
  }
  double ItemCount(ItemId item, EventTime now) {
    return WindowSum([&](int64_t s) { return app_->keys.ItemCount(s, item); },
                     now);
  }
  double PairCount(ItemId a, ItemId b, EventTime now) {
    const ItemId lo = std::min(a, b);
    const ItemId hi = std::max(a, b);
    return WindowSum(
        [&](int64_t s) { return app_->keys.PairCount(s, lo, hi); }, now);
  }
  core::UserHistory History(UserId user) {
    auto blob = client_.Get(app_->keys.UserHistory(user));
    if (!blob.ok()) return {};
    auto history = topo::DecodeUserHistory(*blob);
    EXPECT_TRUE(history.ok());
    return history.ok() ? std::move(history).value() : core::UserHistory();
  }
  /// A scored-list blob (sim:<item>, hot:<group>); empty when absent.
  core::Recommendations List(const std::string& key) {
    auto blob = client_.Get(key);
    if (!blob.ok()) return {};
    auto list = topo::DecodeScoredList(*blob);
    EXPECT_TRUE(list.ok());
    return list.ok() ? std::move(list).value() : core::Recommendations();
  }

  const AppContext* app_;
  tdstore::Client client_;
};

void ExpectSameRecommendations(const core::Recommendations& a,
                               const core::Recommendations& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].score, b[i].score);  // bit-identical, not just close
  }
}

TEST(QueryParityTest, MatchesPointReadOracleBitForBit) {
  // 600 actions 3 s apart span sessions 0-5 of 300 s; `now` lies in the
  // newest, so the 4-session window (2-5) has data in every session and
  // starts after the stream's first sessions.
  const auto actions = SeededStream(0x5eed, 600);
  const EventTime now = actions.back().timestamp;

  // The engine's query and the oracle read the SAME store state, so any
  // difference is the planned read path's fault, not topology-scheduling
  // noise.
  auto engine = engine::TencentRec::Create(ParityOptions("qp"));
  ASSERT_TRUE(engine.ok());
  for (ItemId item = 1; item <= 15; ++item) {
    core::TagVector tags = {
        {static_cast<core::TagId>(1 + item % 4), 1.0},
        {static_cast<core::TagId>(1 + (item * 7) % 4), 0.5}};
    ASSERT_TRUE((*engine)->RegisterItem(item, tags).ok());
  }
  ASSERT_TRUE((*engine)->ProcessBatch(actions).ok());

  PointReadOracle oracle(&(*engine)->app());
  auto& query = (*engine)->query();
  size_t nonempty_cf = 0;
  for (UserId user = 1; user <= 20; ++user) {
    auto cf = query.RecommendCf(user, 10, now);
    ASSERT_TRUE(cf.ok());
    ExpectSameRecommendations(*cf, oracle.RecommendCf(user, 10, now));
    if (!cf->empty()) ++nonempty_cf;

    auto cb = query.RecommendCb(user, 10, now);
    ASSERT_TRUE(cb.ok());
    ExpectSameRecommendations(*cb, oracle.RecommendCb(user, 10, now));

    Demographics d;
    d.gender = (user % 2 == 0) ? Demographics::kMale : Demographics::kFemale;
    d.age_band = static_cast<uint8_t>(1 + user % 4);
    auto full = query.Recommend(user, d, 10, now);
    ASSERT_TRUE(full.ok());
    ExpectSameRecommendations(*full, oracle.Recommend(user, d, 10, now));
  }
  // The stream must exercise the scoring, or the parity proves nothing.
  EXPECT_GT(nonempty_cf, 10u);
  for (ItemId item = 1; item <= 15; ++item) {
    auto ar = query.RecommendAr(item, 10, now);
    ASSERT_TRUE(ar.ok());
    ExpectSameRecommendations(*ar, oracle.RecommendAr(item, 10, now));
  }
}

// --- one Eq. 2: the store path against the in-memory kernel ---

TEST(ServingParityTest, StoreRecommendCfEqualsKernelOnTheSameState) {
  // A serial kernel's state written under the app's keys — item and pair
  // counts, sim: lists, and each user's history replayed through
  // UserHistory::Apply into uh: — serves the kernel's recommendations from
  // the store, bit for bit. top_k 5 leaves co-rated items off the lists,
  // so a rule that summed over every recent item would differ. Each user
  // draws from a 12-item neighbourhood of 30 items, so most users have
  // unrated candidates.
  constexpr int kUsers = 40;
  constexpr int kItems = 30;
  for (uint64_t seed : {1u, 2u, 3u}) {
    core::PracticalItemCf::Options cf_options;
    cf_options.top_k = 5;
    cf_options.recent_k = 4;
    cf_options.window_sessions = 0;
    cf_options.enable_pruning = false;
    core::PracticalItemCf kernel(cf_options);

    const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                                 ActionType::kRead, ActionType::kPurchase,
                                 ActionType::kImpression};
    Rng rng(seed);
    std::map<UserId, core::UserHistory> histories;
    EventTime now = 0;
    for (int i = 0; i < 3000; ++i) {
      UserAction a;
      a.user = static_cast<UserId>(1 + rng.Uniform(kUsers));
      a.item = static_cast<ItemId>(
          1 + (a.user * 7 + rng.Uniform(12)) % kItems);
      a.action = kTypes[rng.Uniform(5)];
      a.timestamp = now = Seconds(i * 10);
      kernel.ProcessAction(a);
      histories[a.user].Apply(a, cf_options.weights, cf_options.linked_time,
                              [](auto&&...) {}, [](auto&&...) {});
    }

    auto store = tdstore::Cluster::Create({});
    ASSERT_TRUE(store.ok());
    tdstore::Client client(store->get());
    AppOptions options;
    options.app = "eq2";
    options.top_k = cf_options.top_k;
    options.recent_k = cf_options.recent_k;
    options.window_sessions = 0;  // cumulative: every count in session 0
    AppContext app(store->get(), options);
    for (ItemId i = 1; i <= kItems; ++i) {
      const double count = kernel.counts().ItemCount(i);
      if (count > 0.0) {
        ASSERT_TRUE(client.PutDouble(app.keys.ItemCount(0, i), count).ok());
      }
      if (const auto* list = kernel.SimilarItems(i)) {
        ASSERT_TRUE(client
                        .Put(app.keys.SimilarItems(i),
                             topo::EncodeScoredList(*list))
                        .ok());
      }
      for (ItemId j = i + 1; j <= kItems; ++j) {
        const double pair = kernel.counts().PairCount(i, j);
        if (pair <= 0.0) continue;
        ASSERT_TRUE(client.PutDouble(app.keys.PairCount(0, i, j), pair).ok());
      }
    }
    for (const auto& [user, history] : histories) {
      ASSERT_TRUE(client
                      .Put(app.keys.UserHistory(user),
                           topo::EncodeUserHistory(history))
                      .ok());
    }

    StoreQuery query(&app);
    int answered = 0;
    for (UserId user = 1; user <= kUsers; ++user) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " user " << user);
      auto served = query.RecommendCf(user, 10, now);
      ASSERT_TRUE(served.ok());
      ExpectSameRecommendations(*served, kernel.RecommendForUser(user, 10));
      if (!served->empty()) ++answered;
    }
    EXPECT_GE(answered, 30) << "seed " << seed;
  }
}

// --- satellite 3 at the engine level: RegisterItem invalidates the cache ---

TEST(EngineQueryCacheTest, RegisterItemInvalidatesCachedNotFound) {
  auto engine = engine::TencentRec::Create(ParityOptions("inval"));
  ASSERT_TRUE(engine.ok());
  auto cache = (*engine)->query_cache();
  ASSERT_NE(cache, nullptr);

  tdstore::Client client((*engine)->store());
  const std::string key = (*engine)->app().keys.ItemTags(123);
  auto fetch = [&client](const std::vector<std::string>& keys,
                         std::vector<Result<std::string>>* out) {
    return client.MultiGetBatch(keys, out);
  };

  // The item isn't registered yet: a query path caches the NotFound.
  EXPECT_TRUE(cache->Get(key, fetch).status().IsNotFound());

  // Registration writes it:123 out of band and must evict that negative
  // entry; a TTL-fresh read straight after sees the tags.
  ASSERT_TRUE((*engine)->RegisterItem(123, {{1, 1.0}}).ok());
  auto v = cache->Get(key, fetch);
  ASSERT_TRUE(v.ok());
  auto tags = topo::DecodeTagVector(*v);
  ASSERT_TRUE(tags.ok());
  ASSERT_EQ(tags->size(), 1u);
  EXPECT_EQ((*tags)[0].first, 1u);
}

}  // namespace
}  // namespace tencentrec
