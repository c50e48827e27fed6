#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {
namespace {

Cluster::Options SmallCluster() {
  Cluster::Options options;
  options.num_data_servers = 3;
  options.num_instances = 8;
  return options;
}

// --- data server batch entry points -----------------------------------------

TEST(DataServerBatchTest, RunsApplyInOrderAndCountOneInvocation) {
  DataServer ds(0, /*sync_replication=*/true);
  ASSERT_TRUE(ds.CreateInstance(1, EngineOptions()).ok());
  ASSERT_TRUE(ds.CreateInstance(2, EngineOptions()).ok());
  ASSERT_TRUE(ds.SetHostRole(1, true).ok());
  ASSERT_TRUE(ds.SetHostRole(2, true).ok());

  // Same-key items in one batch must see each other in input order.
  std::vector<BatchIncrDouble> items = {
      {1, "a", 1.5}, {1, "a", 2.0}, {1, "b", 1.0}, {2, "c", 4.0}};
  std::vector<Result<double>> out;
  ASSERT_TRUE(ds.MultiIncrDouble(items, &out).ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0].value(), 1.5);
  EXPECT_DOUBLE_EQ(out[1].value(), 3.5);
  EXPECT_DOUBLE_EQ(out[2].value(), 1.0);
  EXPECT_DOUBLE_EQ(out[3].value(), 4.0);
  // One entry call, one invocation — but per-op write accounting stays.
  EXPECT_EQ(ds.invocations(), 1);
  EXPECT_EQ(ds.writes(), 4);

  std::vector<BatchGet> gets = {{1, "a"}, {1, "missing"}, {2, "c"}};
  std::vector<Result<std::string>> gout;
  ASSERT_TRUE(ds.MultiGet(gets, &gout).ok());
  EXPECT_EQ(ds.invocations(), 2);
  EXPECT_EQ(gout[0].value(), EncodeDouble(3.5));
  EXPECT_TRUE(gout[1].status().IsNotFound());
  EXPECT_EQ(gout[2].value(), EncodeDouble(4.0));
}

TEST(DataServerBatchTest, PerItemErrorsDoNotAbortSiblings) {
  DataServer ds(0, true);
  ASSERT_TRUE(ds.CreateInstance(1, EngineOptions()).ok());
  ASSERT_TRUE(ds.CreateInstance(2, EngineOptions()).ok());
  ASSERT_TRUE(ds.SetHostRole(1, true).ok());
  // Instance 2 stays non-host; instance 9 doesn't exist here.
  std::vector<BatchPut> items = {
      {1, "good", "v"}, {2, "wrong-host", "v"}, {9, "no-instance", "v"},
      {1, "also-good", "v"}};
  std::vector<Status> out;
  ASSERT_TRUE(ds.MultiPut(items, &out).ok());
  EXPECT_TRUE(out[0].ok());
  EXPECT_TRUE(out[1].IsUnavailable());
  EXPECT_TRUE(out[2].IsNotFound());
  EXPECT_TRUE(out[3].ok());

  // Whole-server-down is the only overall failure.
  ds.SetDown(true);
  EXPECT_TRUE(ds.MultiPut(items, &out).IsUnavailable());
}

TEST(DataServerBatchTest, BatchReplicationReachesSlave) {
  DataServer host(0, /*sync_replication=*/false);
  DataServer slave(1, false);
  ASSERT_TRUE(host.CreateInstance(7, EngineOptions()).ok());
  ASSERT_TRUE(slave.CreateInstance(7, EngineOptions()).ok());
  ASSERT_TRUE(host.SetHostRole(7, true).ok());
  ASSERT_TRUE(host.SetSlave(7, &slave).ok());

  std::vector<BatchIncrDouble> items = {
      {7, "x", 1.25}, {7, "x", 2.5}, {7, "y", 3.0}};
  std::vector<Result<double>> out;
  ASSERT_TRUE(host.MultiIncrDouble(items, &out).ok());
  EXPECT_DOUBLE_EQ(out[1].value(), 3.75);
  // The whole run ships as one record; pending still counts logical ops.
  EXPECT_EQ(host.PendingReplication(), 3u);
  ASSERT_TRUE(host.FlushReplication().ok());
  EXPECT_EQ(host.PendingReplication(), 0u);

  ASSERT_TRUE(slave.SetHostRole(7, true).ok());
  EXPECT_EQ(slave.Get(7, "x").value(), EncodeDouble(3.75));
  EXPECT_EQ(slave.Get(7, "y").value(), EncodeDouble(3.0));
}

// --- client grouped dispatch ------------------------------------------------

TEST(ClientBatchTest, MultiIncrDoubleStitchesInputOrder) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  std::vector<std::pair<std::string, double>> adds;
  for (int i = 0; i < 50; ++i) {
    adds.emplace_back("k" + std::to_string(i % 20), 0.25 * (i % 3 + 1));
  }
  std::vector<Result<double>> out;
  ASSERT_TRUE(client.MultiIncrDouble(adds, &out).ok());
  ASSERT_EQ(out.size(), adds.size());
  // Reference: the same running totals computed locally, in input order.
  std::map<std::string, double> totals;
  for (size_t i = 0; i < adds.size(); ++i) {
    totals[adds[i].first] += adds[i].second;
    ASSERT_TRUE(out[i].ok()) << i;
    EXPECT_DOUBLE_EQ(out[i].value(), totals[adds[i].first]) << i;
  }
}

TEST(ClientBatchTest, MultiGetBatchKeepsPerKeyStatuses) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  ASSERT_TRUE(client.Put("a", "1").ok());
  ASSERT_TRUE(client.Put("c", "3").ok());
  std::vector<Result<std::string>> out;
  ASSERT_TRUE(client.MultiGetBatch({"a", "b", "c", "d"}, &out).ok());
  EXPECT_EQ(out[0].value(), "1");
  EXPECT_TRUE(out[1].status().IsNotFound());
  EXPECT_EQ(out[2].value(), "3");
  EXPECT_TRUE(out[3].status().IsNotFound());

  std::vector<Result<double>> dbl;
  ASSERT_TRUE(client.Put("num", EncodeDouble(2.5)).ok());
  ASSERT_TRUE(client.MultiGetDouble({"num", "absent"}, 7.0, &dbl).ok());
  EXPECT_DOUBLE_EQ(dbl[0].value(), 2.5);
  EXPECT_DOUBLE_EQ(dbl[1].value(), 7.0);
}

TEST(ClientBatchTest, OneLogicalCallRecordsOneBatchSample) {
  SetMetricsEnabled(true);
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  auto& reg = MetricRegistry::Default();
  auto* batch_read = reg.GetHistogram("tdstore.client.batch_read_us");
  auto* point_read = reg.GetHistogram("tdstore.client.read_us");
  auto* batch_keys = reg.GetCounter("tdstore.client.batch_keys");
  auto* host_batches = reg.GetCounter("tdstore.client.host_batches");
  const uint64_t batch_before = batch_read->Snap().count;
  const uint64_t point_before = point_read->Snap().count;
  const uint64_t keys_before = batch_keys->Value();
  const uint64_t hosts_before = host_batches->Value();

  std::vector<Result<std::string>> out;
  ASSERT_TRUE(
      client.MultiGetBatch({"a", "b", "c", "d", "e", "f", "g"}, &out).ok());

  // One batched sample for the whole call — not one per key — and the
  // point-op instruments untouched.
  EXPECT_EQ(batch_read->Snap().count, batch_before + 1);
  EXPECT_EQ(point_read->Snap().count, point_before);
  EXPECT_EQ(batch_keys->Value(), keys_before + 7);
  // At most one server call per host.
  EXPECT_LE(host_batches->Value() - hosts_before, 3u);
}

TEST(ClientBatchTest, InvocationsScaleWithHostsNotKeys) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  ASSERT_TRUE(client.Put("warm", "route").ok());
  for (int s = 0; s < 3; ++s) (*cluster)->data_server(s)->ResetCounters();

  std::vector<std::pair<std::string, double>> adds;
  for (int i = 0; i < 30; ++i) adds.emplace_back("ik" + std::to_string(i), 1.0);
  std::vector<Result<double>> out;
  ASSERT_TRUE(client.MultiIncrDouble(adds, &out).ok());

  int64_t invocations = 0;
  int64_t writes = 0;
  for (int s = 0; s < 3; ++s) {
    invocations += (*cluster)->data_server(s)->invocations();
    writes += (*cluster)->data_server(s)->writes();
  }
  EXPECT_LE(invocations, 3);  // one entry call per host
  EXPECT_EQ(writes, 30);      // per-op accounting unchanged
}

// --- parity: batched ops are bit-identical to point ops ---------------------

TEST(BatchParityTest, BatchedIncrementsBitIdenticalToPointOps) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());

  // A scripted op sequence with repeated keys and rounding-hostile deltas:
  // the same logical stream runs through the point path ("p:") and the
  // grouped batch path ("b:").
  std::vector<std::pair<int, double>> script;
  for (int i = 0; i < 400; ++i) {
    script.emplace_back(i * 31 % 40, 0.1 * static_cast<double>(i % 7 + 1));
  }

  for (const auto& [k, d] : script) {
    ASSERT_TRUE(client.IncrDouble("p:" + std::to_string(k), d).ok());
  }

  for (size_t start = 0; start < script.size(); start += 64) {
    std::vector<std::pair<std::string, double>> chunk;
    for (size_t i = start; i < std::min(start + 64, script.size()); ++i) {
      chunk.emplace_back("b:" + std::to_string(script[i].first),
                         script[i].second);
    }
    std::vector<Result<double>> out;
    ASSERT_TRUE(client.MultiIncrDouble(chunk, &out).ok());
  }

  for (int k = 0; k < 40; ++k) {
    auto point = client.Get("p:" + std::to_string(k));
    auto batched = client.Get("b:" + std::to_string(k));
    ASSERT_TRUE(point.ok()) << k;
    ASSERT_TRUE(batched.ok()) << k;
    // Raw byte equality — same accumulation order means same rounding.
    EXPECT_EQ(*point, *batched) << k;
  }
}

// --- failover between batch build and dispatch ------------------------------

TEST(ClientBatchTest, FailoverRetriesOnlyFailedSubBatchExactlyOnce) {
  auto cluster = Cluster::Create(SmallCluster());  // sync replication
  ASSERT_TRUE(cluster.ok());
  Client stale(cluster->get());
  ASSERT_TRUE(stale.Put("prime", "route").ok());  // cache pre-failover route
  const int64_t refreshes_before = stale.route_refreshes();

  // The route table changes AFTER the client built its view of the world:
  // its next batch is grouped against dead placements for every instance
  // server 0 hosted.
  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());

  std::vector<std::pair<std::string, double>> adds;
  for (int i = 0; i < 60; ++i) adds.emplace_back("fo" + std::to_string(i), 1.0);
  std::vector<Result<double>> out;
  ASSERT_TRUE(stale.MultiIncrDouble(adds, &out).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(out[i].ok()) << i << ": " << out[i].status().ToString();
    // 1.0 exactly: a doubled retry would return 2.0, a lost one would
    // surface as an error or stale read below.
    EXPECT_DOUBLE_EQ(out[i].value(), 1.0) << i;
  }
  EXPECT_GT(stale.route_refreshes(), refreshes_before);

  Client fresh(cluster->get());
  for (int i = 0; i < 60; ++i) {
    auto v = fresh.GetDouble("fo" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_DOUBLE_EQ(*v, 1.0) << "lost or doubled increment on key " << i;
  }
}

TEST(ClientBatchTest, AsyncReplicationFlushThenFailoverKeepsBatchedWrites) {
  Cluster::Options options = SmallCluster();
  options.sync_replication = false;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());

  std::vector<std::pair<std::string, double>> adds;
  for (int i = 0; i < 40; ++i) adds.emplace_back("ar" + std::to_string(i), 2.5);
  std::vector<Result<double>> out;
  ASSERT_TRUE(client.MultiIncrDouble(adds, &out).ok());
  // Batched writes queue replication records; drain them, then fail over.
  ASSERT_TRUE((*cluster)->FlushReplication().ok());
  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());

  ASSERT_TRUE(client.MultiIncrDouble(adds, &out).ok());
  Client fresh(cluster->get());
  for (int i = 0; i < 40; ++i) {
    auto v = fresh.GetDouble("ar" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_DOUBLE_EQ(*v, 5.0) << i;
  }
}

// --- ScanPrefix on a permuted route table (regression) ----------------------

TEST(ClientBatchTest, ScanPrefixRetryLooksUpPlacementByInstanceId) {
  // Regression: the retry after a failed instance scan used to index
  // route_.placements[p.instance_id], silently assuming placements[i]
  // .instance_id == i. A permuted (but semantically identical) route table
  // plus a mid-scan failover exposes that.
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  auto table = (*cluster)->config().GetRouteTable();
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->placements.size(), 8u);
  std::rotate(table->placements.begin(), table->placements.begin() + 3,
              table->placements.end());
  ASSERT_TRUE((*cluster)->config().Install(std::move(*table)).ok());

  Client client(cluster->get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Put("scan:" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());

  std::map<std::string, int> seen;
  ASSERT_TRUE(client
                  .ScanPrefix("scan:",
                              [&](std::string_view k, std::string_view) {
                                ++seen[std::string(k)];
                                return true;
                              })
                  .ok());
  EXPECT_EQ(seen.size(), 50u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << key << " visited " << count << " times";
  }
}

// --- concurrency (ThreadSanitizer workload) ---------------------------------

TEST(ClientBatchTest, ConcurrentBatchClientsStayConsistent) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster] {
      Client client(cluster->get());
      std::vector<std::pair<std::string, double>> adds;
      for (int i = 0; i < 32; ++i) {
        adds.emplace_back("cc" + std::to_string(i), 1.0);
      }
      for (int r = 0; r < kRounds; ++r) {
        std::vector<Result<double>> out;
        EXPECT_TRUE(client.MultiIncrDouble(adds, &out).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  Client reader(cluster->get());
  for (int i = 0; i < 32; ++i) {
    auto v = reader.GetDouble("cc" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(kThreads * kRounds)) << i;
  }
}

}  // namespace
}  // namespace tencentrec::tdstore
