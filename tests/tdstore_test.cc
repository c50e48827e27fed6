#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <unistd.h>

#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "tdstore/fdb_engine.h"
#include "tdstore/ldb_engine.h"
#include "tdstore/rdb_engine.h"

namespace tencentrec::tdstore {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tdstore_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static int counter_;
  std::filesystem::path path_;
};
int TempDir::counter_ = 0;

// --- engines (parameterized over all three) ---------------------------------

class EngineTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.type = GetParam();
    options.ldb_memtable_limit = 8;  // force runs in LDB
    options.ldb_max_runs = 2;
    if (GetParam() == EngineType::kFdb) {
      options.fdb_path = dir_.path() + "/engine.fdb";
    }
    if (GetParam() == EngineType::kRdb) {
      options.rdb_path = dir_.path() + "/engine.rdb";
    }
    auto engine = CreateEngine(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  TempDir dir_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(EngineTest, PutGetDelete) {
  ASSERT_TRUE(engine_->Put("a", "1").ok());
  ASSERT_TRUE(engine_->Put("b", "2").ok());
  auto v = engine_->Get("a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  EXPECT_TRUE(engine_->Get("missing").status().IsNotFound());
  ASSERT_TRUE(engine_->Delete("a").ok());
  EXPECT_TRUE(engine_->Get("a").status().IsNotFound());
  EXPECT_EQ(engine_->Count(), 1u);
}

TEST_P(EngineTest, OverwriteKeepsLatest) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine_->Put("key", "v" + std::to_string(i)).ok());
  }
  auto v = engine_->Get("key");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v49");
  EXPECT_EQ(engine_->Count(), 1u);
}

TEST_P(EngineTest, ManyKeysSurviveChurn) {
  // Exercises memtable seals + compaction in LDB and garbage in FDB.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(engine_
                      ->Put("k" + std::to_string(i),
                            "r" + std::to_string(round) + "-" +
                                std::to_string(i))
                      .ok());
    }
  }
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(engine_->Delete("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(engine_->Count(), 50u);
  for (int i = 1; i < 100; i += 2) {
    auto v = engine_->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "r2-" + std::to_string(i));
  }
}

TEST_P(EngineTest, ScanPrefix) {
  ASSERT_TRUE(engine_->Put("ic:1", "a").ok());
  ASSERT_TRUE(engine_->Put("ic:2", "b").ok());
  ASSERT_TRUE(engine_->Put("pc:1", "c").ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(engine_
                  ->ScanPrefix("ic:",
                               [&](std::string_view k, std::string_view v) {
                                 seen[std::string(k)] = std::string(v);
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["ic:1"], "a");
  EXPECT_EQ(seen["ic:2"], "b");
}

TEST_P(EngineTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine_->Put("p:" + std::to_string(i), "v").ok());
  }
  int visits = 0;
  ASSERT_TRUE(engine_
                  ->ScanPrefix("p:",
                               [&](std::string_view, std::string_view) {
                                 return ++visits < 3;
                               })
                  .ok());
  EXPECT_EQ(visits, 3);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values(EngineType::kMdb, EngineType::kLdb,
                                           EngineType::kFdb, EngineType::kRdb),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineType::kMdb:
                               return "Mdb";
                             case EngineType::kLdb:
                               return "Ldb";
                             case EngineType::kFdb:
                               return "Fdb";
                             default:
                               return "Rdb";
                           }
                         });

// --- LDB specifics ----------------------------------------------------------

TEST(LdbEngineTest, SealsAndCompactsRuns) {
  EngineOptions options;
  options.ldb_memtable_limit = 4;
  options.ldb_max_runs = 2;
  LdbEngine engine(options);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Put("k" + std::to_string(i), "v").ok());
  }
  EXPECT_LE(engine.NumRuns(), 3u);  // compaction keeps runs bounded
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(engine.Get("k" + std::to_string(i)).ok()) << i;
  }
}

TEST(LdbEngineTest, TombstoneShadowsOlderRuns) {
  EngineOptions options;
  options.ldb_memtable_limit = 4;
  options.ldb_max_runs = 10;  // avoid compaction to test shadowing
  LdbEngine engine(options);
  ASSERT_TRUE(engine.Put("x", "old").ok());
  ASSERT_TRUE(engine.Flush().ok());  // seal run with x=old
  ASSERT_TRUE(engine.Delete("x").ok());
  ASSERT_TRUE(engine.Flush().ok());  // seal run with tombstone
  EXPECT_TRUE(engine.Get("x").status().IsNotFound());
  ASSERT_TRUE(engine.Put("x", "new").ok());
  auto v = engine.Get("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new");
}

// --- FDB specifics ----------------------------------------------------------

TEST(FdbEngineTest, SurvivesReopen) {
  TempDir dir;
  EngineOptions options;
  options.type = EngineType::kFdb;
  options.fdb_path = dir.path() + "/db.fdb";
  {
    auto engine = FdbEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("persist", "me").ok());
    ASSERT_TRUE((*engine)->Put("drop", "me").ok());
    ASSERT_TRUE((*engine)->Delete("drop").ok());
  }
  auto engine = FdbEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  auto v = (*engine)->Get("persist");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "me");
  EXPECT_TRUE((*engine)->Get("drop").status().IsNotFound());
}

TEST(FdbEngineTest, CompactionReclaimsGarbage) {
  TempDir dir;
  EngineOptions options;
  options.type = EngineType::kFdb;
  options.fdb_path = dir.path() + "/db.fdb";
  options.fdb_compact_garbage_ratio = 0.4;
  auto engine = FdbEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*engine)->Put("hot", "value-" + std::to_string(i)).ok());
  }
  // Overwrites created garbage; compaction must have fired and kept the
  // live value.
  EXPECT_LT((*engine)->DeadBytes(),
            static_cast<size_t>(200 * 20));  // far below total written
  auto v = (*engine)->Get("hot");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value-199");
}

// --- RDB specifics ----------------------------------------------------------

TEST(RdbEngineTest, SnapshotSurvivesReopen) {
  TempDir dir;
  EngineOptions options;
  options.type = EngineType::kRdb;
  options.rdb_path = dir.path() + "/db.rdb";
  {
    auto engine = RdbEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("snapshotted", "yes").ok());
    ASSERT_TRUE((*engine)->Flush().ok());  // snapshot point
    ASSERT_TRUE((*engine)->Put("after-snapshot", "lost").ok());
    EXPECT_EQ((*engine)->snapshots_written(), 1);
  }
  auto engine = RdbEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  // Redis RDB semantics: the snapshot survives, later mutations are lost.
  auto v = (*engine)->Get("snapshotted");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "yes");
  EXPECT_TRUE((*engine)->Get("after-snapshot").status().IsNotFound());
}

TEST(RdbEngineTest, IntervalSnapshots) {
  TempDir dir;
  EngineOptions options;
  options.type = EngineType::kRdb;
  options.rdb_path = dir.path() + "/db.rdb";
  options.rdb_snapshot_interval_ops = 10;
  auto engine = RdbEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE((*engine)->Put("k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ((*engine)->snapshots_written(), 3);  // every 10 mutations
  // Reopen recovers at least the last snapshot's 30 keys.
  engine->reset();
  auto reopened = RdbEngine::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GE((*reopened)->Count(), 30u);
}

TEST(RdbEngineTest, CorruptSnapshotRejected) {
  TempDir dir;
  EngineOptions options;
  options.type = EngineType::kRdb;
  options.rdb_path = dir.path() + "/db.rdb";
  {
    auto engine = RdbEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Put("a", "b").ok());
    ASSERT_TRUE((*engine)->Flush().ok());
  }
  {
    std::FILE* f = std::fopen(options.rdb_path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  EXPECT_TRUE(RdbEngine::Open(options).status().IsCorruption());
}

TEST(RdbEngineTest, RequiresPath) {
  EngineOptions options;
  options.type = EngineType::kRdb;
  EXPECT_FALSE(CreateEngine(options).ok());
}

TEST(FdbEngineTest, RequiresPath) {
  EngineOptions options;
  options.type = EngineType::kFdb;
  EXPECT_FALSE(CreateEngine(options).ok());
}

// --- cluster / client -------------------------------------------------------

Cluster::Options SmallCluster() {
  Cluster::Options options;
  options.num_data_servers = 3;
  options.num_instances = 8;
  return options;
}

TEST(ClusterTest, RoutedPutGet) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.Put("key" + std::to_string(i),
                           "value" + std::to_string(i))
                    .ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto v = client.Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  // Keys actually spread across servers.
  for (int s = 0; s < 3; ++s) {
    EXPECT_GT((*cluster)->data_server(s)->TotalKeys(), 0u);
  }
}

TEST(ClusterTest, TypedCounters) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  auto v1 = client.IncrDouble("counter", 1.5);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(*v1, 1.5);
  auto v2 = client.IncrDouble("counter", 2.5);
  ASSERT_TRUE(v2.ok());
  EXPECT_DOUBLE_EQ(*v2, 4.0);
  auto read = client.GetDouble("counter");
  ASSERT_TRUE(read.ok());
  EXPECT_DOUBLE_EQ(*read, 4.0);
  EXPECT_DOUBLE_EQ(client.GetDouble("absent", 7.0).value(), 7.0);
}

TEST(ClusterTest, MultiGet) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  ASSERT_TRUE(client.Put("a", "1").ok());
  ASSERT_TRUE(client.Put("c", "3").ok());
  std::vector<Result<std::string>> values;
  ASSERT_TRUE(client.MultiGetBatch({"a", "b", "c"}, &values).ok());
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].value(), "1");
  EXPECT_TRUE(values[1].status().IsNotFound());
  EXPECT_EQ(values[2].value(), "3");
}

TEST(ClusterTest, ScanPrefixAcrossInstances) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Put("scan:" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(client.Put("other:1", "v").ok());
  int found = 0;
  ASSERT_TRUE(client
                  .ScanPrefix("scan:",
                              [&](std::string_view, std::string_view) {
                                ++found;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(found, 50);
}

TEST(ClusterTest, FailoverServesFromSlave) {
  auto cluster = Cluster::Create(SmallCluster());  // sync replication
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client.Put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());
  // Every key still readable: instances hosted on server 0 fail over to
  // their slaves; the stale client refreshes its route on Unavailable.
  for (int i = 0; i < 60; ++i) {
    auto v = client.Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "key " << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, std::to_string(i));
  }
  EXPECT_GT(client.route_refreshes(), 1);
  // Writes continue against the new hosts.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client.Put("k" + std::to_string(i), "post-failover").ok());
  }
}

TEST(ClusterTest, RecoveryReseedsSlaves) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE((*cluster)->FailDataServer(1).ok());
  for (int i = 40; i < 80; ++i) {
    ASSERT_TRUE(client.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE((*cluster)->RecoverDataServer(1).ok());
  // After recovery every instance has a slave again; failing another
  // server must still leave all data reachable.
  ASSERT_TRUE((*cluster)->FailDataServer(2).ok());
  for (int i = 0; i < 80; ++i) {
    auto v = client.Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "key " << i << ": " << v.status().ToString();
  }
}

TEST(ClusterTest, AsyncReplicationDrainsOnFlush) {
  Cluster::Options options = SmallCluster();
  options.sync_replication = false;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.Put("k" + std::to_string(i), "v").ok());
  }
  size_t pending = 0;
  for (int s = 0; s < 3; ++s) {
    pending += (*cluster)->data_server(s)->PendingReplication();
  }
  EXPECT_GT(pending, 0u);  // "slave updates when idle"
  ASSERT_TRUE((*cluster)->FlushReplication().ok());
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ((*cluster)->data_server(s)->PendingReplication(), 0u);
  }
  // Now a failover loses nothing.
  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(client.Get("k" + std::to_string(i)).ok()) << i;
  }
}

TEST(ClusterTest, ConfigServerFailover) {
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  const uint64_t version = (*cluster)->config().Version();
  ASSERT_TRUE((*cluster)->FailActiveConfigServer().ok());
  // Backup has the same table.
  EXPECT_EQ((*cluster)->config().Version(), version);
  auto table = (*cluster)->config().GetRouteTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->placements.size(), 8u);
  EXPECT_FALSE((*cluster)->FailActiveConfigServer().ok());
  // Failover of data servers still works through the backup config.
  Client client(cluster->get());
  ASSERT_TRUE(client.Put("x", "y").ok());
  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());
  EXPECT_TRUE(client.Get("x").ok());
}

TEST(ClusterTest, SingleServerNoReplication) {
  Cluster::Options options;
  options.num_data_servers = 1;
  options.num_instances = 4;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Client client(cluster->get());
  ASSERT_TRUE(client.Put("a", "b").ok());
  EXPECT_TRUE(client.Get("a").ok());
  // Failing the only server is fatal for its instances.
  EXPECT_FALSE((*cluster)->FailDataServer(0).ok());
}

TEST(ClusterTest, StaleClientCannotWriteToDemotedReplica) {
  // Regression (found by the shadow-map property test): after a failover
  // and recovery, a client holding a pre-failover route table must not be
  // able to write to the recovered server, which is now only a slave —
  // "only the host data server provides service for a certain data
  // instance" (§3.3).
  auto cluster = Cluster::Create(SmallCluster());
  ASSERT_TRUE(cluster.ok());
  Client fresh(cluster->get());
  Client stale(cluster->get());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(fresh.Put("k" + std::to_string(i), "v0").ok());
  }
  // Prime the stale client's route table (pre-failover placement).
  ASSERT_TRUE(stale.Get("k0").ok());

  ASSERT_TRUE((*cluster)->FailDataServer(0).ok());
  ASSERT_TRUE((*cluster)->RecoverDataServer(0).ok());

  // The stale client writes every key; each write must land on the CURRENT
  // host (its first attempt may hit server 0, now a slave, which must
  // refuse so the client refreshes its route).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(stale.Put("k" + std::to_string(i), "v1").ok()) << i;
  }
  for (int i = 0; i < 30; ++i) {
    auto v = fresh.Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "v1") << "lost write on key " << i;
  }
}

TEST(ClusterTest, InvalidOptionsRejected) {
  Cluster::Options options;
  options.num_data_servers = 0;
  EXPECT_FALSE(Cluster::Create(options).ok());
  options.num_data_servers = 1;
  options.num_instances = 0;
  EXPECT_FALSE(Cluster::Create(options).ok());
}

}  // namespace
}  // namespace tencentrec::tdstore
