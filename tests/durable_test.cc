// Durable-state plane (DESIGN.md §14): SegmentLog torn-tail physics, the
// TDStore WAL, engine snapshots, cluster checkpoint/recovery, and the
// headline kill-mid-stream test — SIGKILL the process mid-batch, recover
// snapshot+WAL, replay the unfinished batches, and the store must be
// bit-identical to an uninterrupted run.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/recordio.h"
#include "engine/tencentrec.h"
#include "tdaccess/segment_log.h"
#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "tdstore/data_server.h"
#include "tdstore/engine.h"
#include "tdstore/mdb_engine.h"
#include "tdstore/wal.h"

namespace tencentrec {
namespace {

using core::ActionType;
using core::ItemId;
using core::UserAction;
using core::UserId;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("durable_test_" + std::to_string(::getpid()) + "_" +
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

long FileSize(const std::string& path) {
  return static_cast<long>(std::filesystem::file_size(path));
}

void TruncateFile(const std::string& path, long bytes) {
  ASSERT_EQ(::truncate(path.c_str(), bytes), 0);
}

void CopyFile(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing);
}

std::string RawBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void FlipByte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(offset);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xff);
  f.seekp(offset);
  f.write(&b, 1);
}

// ---------------------------------------------------------------------------
// SegmentLog: the torn-tail truncation must be physical.

tdaccess::Message Msg(const std::string& key, const std::string& payload,
                      EventTime ts = 0) {
  tdaccess::Message m;
  m.key = key;
  m.payload = payload;
  m.timestamp = ts;
  return m;
}

TEST(SegmentLogDurable, TornTailByteBoundarySweep) {
  TempDir dir;
  const std::string path = dir.path() + "/sweep.log";
  // Record where each record ends so the sweep knows the expected valid
  // prefix for every possible cut position.
  std::vector<long> ends;  // ends[i] = file size after record i
  {
    tdaccess::SegmentLog log;
    ASSERT_TRUE(log.Open(path, SyncPolicy::kFlushEveryAppend).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          log.Append(Msg("key" + std::to_string(i), "pay" + std::to_string(i),
                         i))
              .ok());
      ends.push_back(FileSize(path));
    }
  }
  const long full = ends.back();
  const long header = static_cast<long>(kLogHeaderSize);
  for (long cut = 0; cut <= full; ++cut) {
    const std::string torn = dir.path() + "/torn.log";
    CopyFile(path, torn);
    TruncateFile(torn, cut);

    size_t expect_records = 0;
    long expect_size = header;  // Open() writes a fresh header onto stubs
    for (size_t i = 0; i < ends.size(); ++i) {
      if (ends[i] <= cut) {
        expect_records = i + 1;
        expect_size = ends[i];
      }
    }

    tdaccess::SegmentLog log;
    ASSERT_TRUE(log.Open(torn).ok()) << "cut=" << cut;
    auto all = log.Read(0, 100);
    ASSERT_TRUE(all.ok()) << "cut=" << cut;
    EXPECT_EQ(all->size(), expect_records) << "cut=" << cut;
    for (size_t i = 0; i < all->size(); ++i) {
      EXPECT_EQ((*all)[i].key, "key" + std::to_string(i)) << "cut=" << cut;
    }
    ASSERT_TRUE(log.Close().ok());
    // The regression this PR fixes: the torn tail must be truncated OFF THE
    // DISK at Open — an fseek alone leaves stale bytes that can survive
    // open/close cycles and later mis-frame as a valid-looking record.
    EXPECT_EQ(FileSize(torn), expect_size) << "cut=" << cut;
  }
}

TEST(SegmentLogDurable, ShortAppendRollsBackToRecordBoundary) {
  TempDir dir;
  const std::string path = dir.path() + "/tail.log";
  tdaccess::SegmentLog log;
  ASSERT_TRUE(log.Open(path, SyncPolicy::kFlushEveryAppend).ok());
  ASSERT_TRUE(log.Append(Msg("a", "1")).ok());
  const long good = FileSize(path);
  ASSERT_TRUE(log.Append(Msg("b", "2")).ok());
  EXPECT_GT(FileSize(path), good);
  ASSERT_TRUE(log.Close().ok());
  // Reopen keeps both; the file ends exactly at the last record boundary.
  tdaccess::SegmentLog again;
  ASSERT_TRUE(again.Open(path).ok());
  auto all = again.Read(0, 10);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(SegmentLogDurable, HeaderIsExplicitLittleEndian) {
  TempDir dir;
  const std::string path = dir.path() + "/hdr.log";
  {
    tdaccess::SegmentLog log;
    ASSERT_TRUE(log.Open(path, SyncPolicy::kFlushEveryAppend).ok());
    ASSERT_TRUE(log.Append(Msg("k", "v", 7)).ok());
  }
  const std::string bytes = RawBytes(path);
  ASSERT_GE(bytes.size(), kLogHeaderSize);
  // "TDAL" magic, version 1 — byte-for-byte, independent of host endianness.
  EXPECT_EQ(bytes.substr(0, 4), "TDAL");
  EXPECT_EQ(GetFixed32LE(bytes.data() + 4), 1u);
  // First frame: [crc][len] then [u32 key_len][u32 payload_len][i64 ts].
  const char* frame = bytes.data() + kLogHeaderSize;
  EXPECT_EQ(GetFixed32LE(frame + 4), 16u + 1u + 1u);  // payload length
  EXPECT_EQ(GetFixed32LE(frame + 8), 1u);             // key_len
  EXPECT_EQ(GetFixed32LE(frame + 12), 1u);            // payload_len
  EXPECT_EQ(GetFixed64LE(frame + 16), 7u);            // timestamp
}

TEST(SegmentLogDurable, RefusesUnknownMagic) {
  TempDir dir;
  const std::string path = dir.path() + "/alien.log";
  { std::ofstream(path, std::ios::binary) << "NOTALOGFILE!"; }
  tdaccess::SegmentLog log;
  Status s = log.Open(path);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Wal: record codec, torn-tail sweep, barrier truncation, reset.

TEST(WalTest, RecordCodecRoundTrip) {
  tdstore::WalRecord rec;
  rec.instance_id = 42;
  rec.ops.push_back({false, "key", "value"});
  rec.ops.push_back({true, "gone", ""});
  auto decoded = tdstore::DecodeWalRecord(tdstore::EncodeWalRecord(rec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, tdstore::WalRecord::Kind::kOps);
  EXPECT_EQ(decoded->instance_id, 42);
  ASSERT_EQ(decoded->ops.size(), 2u);
  EXPECT_EQ(decoded->ops[0].key, "key");
  EXPECT_EQ(decoded->ops[0].value, "value");
  EXPECT_FALSE(decoded->ops[0].is_delete);
  EXPECT_TRUE(decoded->ops[1].is_delete);

  tdstore::WalRecord barrier;
  barrier.kind = tdstore::WalRecord::Kind::kBarrier;
  barrier.barrier_id = 9;
  auto b = tdstore::DecodeWalRecord(tdstore::EncodeWalRecord(barrier));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->kind, tdstore::WalRecord::Kind::kBarrier);
  EXPECT_EQ(b->barrier_id, 9u);

  EXPECT_TRUE(tdstore::DecodeWalRecord("").status().IsCorruption());
  std::string torn = tdstore::EncodeWalRecord(rec);
  torn.resize(torn.size() - 3);
  EXPECT_TRUE(tdstore::DecodeWalRecord(torn).status().IsCorruption());
}

tdstore::WalRecord OpsRecord(int instance, const std::string& key,
                             const std::string& value) {
  tdstore::WalRecord rec;
  rec.instance_id = instance;
  rec.ops.push_back({false, key, value});
  return rec;
}

tdstore::WalRecord BarrierRecord(uint64_t id) {
  tdstore::WalRecord rec;
  rec.kind = tdstore::WalRecord::Kind::kBarrier;
  rec.barrier_id = id;
  return rec;
}

TEST(WalTest, TornTailByteBoundarySweep) {
  TempDir dir;
  const std::string path = dir.path() + "/sweep.wal";
  std::vector<long> ends;
  {
    tdstore::Wal wal;
    tdstore::Wal::Options opts;
    opts.sync = SyncPolicy::kFsyncEveryAppend;
    ASSERT_TRUE(wal.Open(path, opts).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          wal.Append(OpsRecord(i, "k" + std::to_string(i), "v")).ok());
      ends.push_back(FileSize(path));
    }
    ASSERT_TRUE(wal.Append(BarrierRecord(1)).ok());
    ends.push_back(FileSize(path));
  }
  const long full = ends.back();
  const long header = static_cast<long>(kLogHeaderSize);
  for (long cut = 0; cut <= full; ++cut) {
    const std::string torn = dir.path() + "/torn.wal";
    CopyFile(path, torn);
    TruncateFile(torn, cut);

    size_t expect_records = 0;
    long expect_size = header;
    for (size_t i = 0; i < ends.size(); ++i) {
      if (ends[i] <= cut) {
        expect_records = i + 1;
        expect_size = ends[i];
      }
    }

    tdstore::Wal wal;
    ASSERT_TRUE(wal.Open(torn, {}).ok()) << "cut=" << cut;
    EXPECT_EQ(wal.recovered().size(), expect_records) << "cut=" << cut;
    // The barrier only survives when its whole record does.
    EXPECT_EQ(wal.recovered_last_barrier(),
              expect_records == ends.size() ? 1u : 0u)
        << "cut=" << cut;
    ASSERT_TRUE(wal.Close().ok());
    EXPECT_EQ(FileSize(torn), expect_size) << "cut=" << cut;
  }
}

TEST(WalTest, TruncateToBarrierDropsUncommittedSuffix) {
  TempDir dir;
  const std::string path = dir.path() + "/barrier.wal";
  {
    tdstore::Wal wal;
    ASSERT_TRUE(wal.Open(path, {}).ok());
    ASSERT_TRUE(wal.Append(OpsRecord(0, "a", "1")).ok());
    ASSERT_TRUE(wal.Append(BarrierRecord(1)).ok());
    ASSERT_TRUE(wal.Append(OpsRecord(0, "b", "2")).ok());
    ASSERT_TRUE(wal.Append(BarrierRecord(2)).ok());
    ASSERT_TRUE(wal.Append(OpsRecord(0, "c", "3")).ok());  // uncommitted
  }
  {
    tdstore::Wal wal;
    ASSERT_TRUE(wal.Open(path, {}).ok());
    EXPECT_EQ(wal.recovered().size(), 5u);
    EXPECT_EQ(wal.recovered_last_barrier(), 2u);
    EXPECT_TRUE(wal.TruncateToBarrier(3).IsNotFound());
    ASSERT_TRUE(wal.TruncateToBarrier(2).ok());
    EXPECT_EQ(wal.recovered().size(), 4u);  // "c" gone
  }
  // The truncation was physical: a fresh open agrees.
  tdstore::Wal again;
  ASSERT_TRUE(again.Open(path, {}).ok());
  EXPECT_EQ(again.recovered().size(), 4u);
  EXPECT_EQ(again.recovered_last_barrier(), 2u);
  // Barrier 0 = nothing committed: back to the bare header.
  ASSERT_TRUE(again.TruncateToBarrier(0).ok());
  ASSERT_TRUE(again.Close().ok());
  EXPECT_EQ(FileSize(path), static_cast<long>(kLogHeaderSize));
}

TEST(WalTest, ResetDropsEverything) {
  TempDir dir;
  const std::string path = dir.path() + "/reset.wal";
  tdstore::Wal wal;
  ASSERT_TRUE(wal.Open(path, {}).ok());
  ASSERT_TRUE(wal.Append(OpsRecord(0, "a", "1")).ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.record_count(), 0u);
  // And the log keeps working after the rename swap.
  ASSERT_TRUE(wal.Append(OpsRecord(0, "b", "2")).ok());
  ASSERT_TRUE(wal.Close().ok());
  tdstore::Wal again;
  ASSERT_TRUE(again.Open(path, {}).ok());
  ASSERT_EQ(again.recovered().size(), 1u);
  EXPECT_EQ(again.recovered()[0].ops[0].key, "b");
}

TEST(WalTest, HeaderIsExplicitLittleEndian) {
  TempDir dir;
  const std::string path = dir.path() + "/hdr.wal";
  {
    tdstore::Wal wal;
    ASSERT_TRUE(wal.Open(path, {}).ok());
  }
  const std::string bytes = RawBytes(path);
  ASSERT_EQ(bytes.size(), kLogHeaderSize);
  EXPECT_EQ(bytes.substr(0, 4), "TDWL");
  EXPECT_EQ(GetFixed32LE(bytes.data() + 4), 1u);
}

// ---------------------------------------------------------------------------
// Engine snapshots.

TEST(SnapshotTest, MdbRoundTrip) {
  TempDir dir;
  const std::string snap = dir.path() + "/mdb.snap";
  tdstore::MdbEngine src;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        src.Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(src.SnapshotTo(snap).ok());

  tdstore::MdbEngine dst;
  ASSERT_TRUE(dst.Put("stale", "gone").ok());  // restore must replace, not merge
  ASSERT_TRUE(dst.RestoreFrom(snap).ok());
  EXPECT_EQ(dst.Count(), 200u);
  EXPECT_TRUE(dst.Get("stale").status().IsNotFound());
  for (int i = 0; i < 200; ++i) {
    auto v = dst.Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST(SnapshotTest, GenericEngineRoundTrip) {
  TempDir dir;
  const std::string snap = dir.path() + "/ldb.snap";
  tdstore::EngineOptions opts;
  opts.type = tdstore::EngineType::kLdb;
  auto src = tdstore::CreateEngine(opts);
  ASSERT_TRUE(src.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*src)->Put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE((*src)->Delete("k7").ok());  // tombstones must not leak through
  ASSERT_TRUE((*src)->SnapshotTo(snap).ok());

  auto dst = tdstore::CreateEngine(opts);
  ASSERT_TRUE(dst.ok());
  ASSERT_TRUE((*dst)->RestoreFrom(snap).ok());
  EXPECT_EQ((*dst)->Count(), 99u);
  EXPECT_TRUE((*dst)->Get("k7").status().IsNotFound());
  auto v = (*dst)->Get("k42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "42");
}

TEST(SnapshotTest, DetectsTornAndCorruptSnapshots) {
  TempDir dir;
  const std::string snap = dir.path() + "/t.snap";
  tdstore::MdbEngine src;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(src.Put("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(src.SnapshotTo(snap).ok());
  const long full = FileSize(snap);

  // Torn anywhere — including just the footer missing — is Corruption.
  for (long cut : {full - 1, full - 9, full / 2, long{9}}) {
    const std::string torn = dir.path() + "/torn.snap";
    CopyFile(snap, torn);
    TruncateFile(torn, cut);
    tdstore::MdbEngine dst;
    ASSERT_TRUE(dst.Put("keep", "me").ok());
    Status s = dst.RestoreFrom(torn);
    EXPECT_TRUE(s.IsCorruption()) << "cut=" << cut << " -> " << s.ToString();
    // A failed restore leaves the engine untouched.
    EXPECT_TRUE(dst.Get("keep").ok()) << "cut=" << cut;
  }

  // A flipped payload byte fails the frame crc.
  const std::string flipped = dir.path() + "/flip.snap";
  CopyFile(snap, flipped);
  FlipByte(flipped, full / 2);
  tdstore::MdbEngine dst;
  EXPECT_TRUE(dst.RestoreFrom(flipped).IsCorruption());

  EXPECT_TRUE(
      dst.RestoreFrom(dir.path() + "/missing.snap").IsNotFound());
}

// ---------------------------------------------------------------------------
// Cluster checkpoint + recovery.

tdstore::Cluster::Options DurableClusterOptions(const std::string& dir) {
  tdstore::Cluster::Options opts;
  opts.num_data_servers = 2;
  opts.num_instances = 4;
  opts.durability.enabled = true;
  opts.durability.dir = dir;
  return opts;
}

TEST(ClusterDurable, RecoversSnapshotPlusWalReplay) {
  TempDir dir;
  MetricRegistry::Default().Reset();
  {
    auto cluster = tdstore::Cluster::Create(DurableClusterOptions(dir.path()));
    ASSERT_TRUE(cluster.ok());
    // Instance i is hosted by server i % 2.
    ASSERT_TRUE((*cluster)->data_server(0)->Put(0, "pre", "snap").ok());
    ASSERT_TRUE((*cluster)->data_server(1)->Put(1, "pre1", "snap1").ok());
    ASSERT_TRUE((*cluster)->CommitBarrier(1).ok());
    ASSERT_TRUE((*cluster)->Checkpoint(1).ok());
    // Post-checkpoint traffic lives only in the WAL.
    ASSERT_TRUE((*cluster)->data_server(0)->Put(2, "post", "wal").ok());
    ASSERT_TRUE(
        (*cluster)->data_server(1)->IncrDouble(1, "count", 5.0).status().ok());
    ASSERT_TRUE((*cluster)->data_server(1)->Delete(1, "pre1").ok());
    ASSERT_TRUE((*cluster)->CommitBarrier(2).ok());
    // Uncommitted tail: no barrier after it — recovery must drop it.
    ASSERT_TRUE((*cluster)->data_server(0)->Put(0, "torn", "lost").ok());
  }
  auto recovered = tdstore::Cluster::Create(DurableClusterOptions(dir.path()));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->recovered_barrier_id(), 2u);
  auto v = (*recovered)->data_server(0)->Get(0, "pre");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "snap");
  EXPECT_TRUE((*recovered)->data_server(0)->Get(2, "post").ok());
  auto count = (*recovered)->data_server(1)->IncrDouble(1, "count", 0.0);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5.0);
  EXPECT_TRUE(
      (*recovered)->data_server(1)->Get(1, "pre1").status().IsNotFound());
  EXPECT_TRUE(
      (*recovered)->data_server(0)->Get(0, "torn").status().IsNotFound());
  // Recovery is visible in /vars: the counters moved.
  EXPECT_GT(
      MetricRegistry::Default().GetCounter("store.recovery.count")->Value(),
      0u);
  EXPECT_GT(MetricRegistry::Default()
                .GetCounter("store.recovery.replayed_records")
                ->Value(),
            0u);
  EXPECT_EQ(MetricRegistry::Default()
                .GetGauge("store.recovery.last_barrier")
                ->Value(),
            2);
  // Slaves were re-seeded from the recovered hosts: fail server 0 and its
  // instances keep serving from the promoted slaves.
  ASSERT_TRUE((*recovered)->FailDataServer(0).ok());
  auto promoted = (*recovered)->data_server(1)->Get(0, "pre");
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*promoted, "snap");
}

TEST(ClusterDurable, RecoveryStopsAtMinimumSharedBarrier) {
  TempDir dir;
  {
    auto cluster = tdstore::Cluster::Create(DurableClusterOptions(dir.path()));
    ASSERT_TRUE(cluster.ok());
    ASSERT_TRUE((*cluster)->data_server(0)->Put(0, "both", "v0").ok());
    ASSERT_TRUE((*cluster)->data_server(1)->Put(1, "both1", "v1").ok());
    ASSERT_TRUE((*cluster)->CommitBarrier(1).ok());
    ASSERT_TRUE((*cluster)->data_server(0)->Put(0, "late", "v").ok());
    ASSERT_TRUE((*cluster)->data_server(1)->Put(1, "late1", "v").ok());
    // Barrier 2 reached only server 0's platter before the "crash": it is
    // NOT a consistent cut, because server 1's batch-2 ops have no barrier.
    ASSERT_TRUE((*cluster)->data_server(0)->AppendBarrier(2).ok());
  }
  auto recovered = tdstore::Cluster::Create(DurableClusterOptions(dir.path()));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->recovered_barrier_id(), 1u);
  EXPECT_TRUE((*recovered)->data_server(0)->Get(0, "both").ok());
  EXPECT_TRUE((*recovered)->data_server(1)->Get(1, "both1").ok());
  // Batch 2 rolled back everywhere — including on the server that had
  // fsynced its barrier.
  EXPECT_TRUE(
      (*recovered)->data_server(0)->Get(0, "late").status().IsNotFound());
  EXPECT_TRUE(
      (*recovered)->data_server(1)->Get(1, "late1").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Write-path parity: whatever entry point a write came through, the slave's
// engine and a rebooted cluster hold exactly the live hosts' bytes.

/// Every key/value of every instance, prefixed by instance id, read from the
/// instance's host — or, with `from_slave`, from its slave, promoted to host
/// for the scan and demoted again after it.
std::map<std::string, std::string> DumpInstances(tdstore::Cluster* store,
                                                 bool from_slave) {
  std::map<std::string, std::string> out;
  auto table = store->config().GetRouteTable();
  EXPECT_TRUE(table.ok());
  if (!table.ok()) return out;
  for (const auto& p : table->placements) {
    tdstore::DataServer* server =
        store->data_server(from_slave ? p.slave_server : p.host_server);
    EXPECT_NE(server, nullptr) << "instance " << p.instance_id;
    if (server == nullptr) continue;
    if (from_slave) {
      EXPECT_TRUE(server->SetHostRole(p.instance_id, true).ok());
    }
    EXPECT_TRUE(server
                    ->ScanPrefix(p.instance_id, "",
                                 [&](std::string_view key,
                                     std::string_view value) {
                                   out["i" + std::to_string(p.instance_id) +
                                       ":" + std::string(key)] =
                                       std::string(value);
                                   return true;
                                 })
                    .ok());
    if (from_slave) {
      EXPECT_TRUE(server->SetHostRole(p.instance_id, false).ok());
    }
  }
  return out;
}

/// Drives every client write entry point: point Put, Delete and IncrDouble,
/// then MultiPut and MultiIncrDouble with same-key runs and one
/// per-item failure. Run twice over one cluster, the second pass overwrites,
/// increments and deletes what the first one wrote.
void DriveEveryWriteEntryPoint(tdstore::Client* client) {
  for (int i = 0; i < 40; ++i) {
    const std::string k = std::to_string(i);
    ASSERT_TRUE(client->Put("put:" + k, "v" + k).ok());
    ASSERT_TRUE(client->Put("put:" + k, "w" + k).ok());
    ASSERT_TRUE(
        client->IncrDouble("dbl:" + std::to_string(i % 7), 0.1 * (i + 1))
            .ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(client->Delete("put:" + k).ok());
    }
  }
  ASSERT_TRUE(client->Delete("never-written").ok());

  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 60; ++i) {
    kvs.emplace_back("mput:" + std::to_string(i % 25), "m" + std::to_string(i));
  }
  const std::vector<std::pair<std::string_view, std::string_view>> kv_views(
      kvs.begin(), kvs.end());
  std::vector<Status> put_out;
  ASSERT_TRUE(client->MultiPut(kv_views, &put_out).ok());
  for (size_t i = 0; i < put_out.size(); ++i) {
    ASSERT_TRUE(put_out[i].ok()) << i;
  }

  // "bad" holds no 8-byte double, so its increment fails on its own while
  // the rest of its run lands.
  ASSERT_TRUE(client->Put("bad", "not-a-double").ok());
  std::vector<std::pair<std::string, double>> adds;
  for (int i = 0; i < 60; ++i) {
    adds.emplace_back("madd:" + std::to_string(i % 20), 0.25 * (i % 3 + 1));
    if (i == 30) adds.emplace_back("bad", 1.0);
  }
  adds.emplace_back("dbl:0", 1.5);  // a key the point path increments too
  std::vector<Result<double>> add_out;
  ASSERT_TRUE(client->MultiIncrDouble(adds, &add_out).ok());
  for (size_t i = 0; i < adds.size(); ++i) {
    if (adds[i].first == "bad") {
      EXPECT_TRUE(add_out[i].status().IsCorruption()) << i;
    } else {
      ASSERT_TRUE(add_out[i].ok()) << i;
    }
  }
  ASSERT_TRUE(client->Delete("mput:3").ok());
}

class WriteParityTest : public ::testing::TestWithParam<bool> {};

TEST_P(WriteParityTest, SlavesAndRebootedHostsHoldTheLiveHostBytes) {
  const bool sync_replication = GetParam();
  TempDir dir;
  tdstore::Cluster::Options options = DurableClusterOptions(dir.path());
  options.sync_replication = sync_replication;
  std::map<std::string, std::string> live;
  {
    auto cluster = tdstore::Cluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    tdstore::Client client(cluster->get());
    // The first pass reaches the snapshots, the second only the WAL.
    DriveEveryWriteEntryPoint(&client);
    ASSERT_TRUE((*cluster)->CommitBarrier(1).ok());
    ASSERT_TRUE((*cluster)->Checkpoint(1).ok());
    DriveEveryWriteEntryPoint(&client);
    ASSERT_TRUE((*cluster)->CommitBarrier(2).ok());

    live = DumpInstances(cluster->get(), /*from_slave=*/false);
    ASSERT_FALSE(live.empty());
    if (!sync_replication) {
      size_t pending = 0;
      for (int s = 0; s < (*cluster)->num_data_servers(); ++s) {
        pending += (*cluster)->data_server(s)->PendingReplication();
      }
      EXPECT_GT(pending, 0u);  // the slaves lag until the queues drain
      ASSERT_TRUE((*cluster)->FlushReplication().ok());
    }
    EXPECT_EQ(DumpInstances(cluster->get(), /*from_slave=*/true), live);
  }
  // Reboot: snapshot restore plus WAL replay on the hosts, and slaves
  // re-seeded from them.
  auto rebooted = tdstore::Cluster::Create(options);
  ASSERT_TRUE(rebooted.ok());
  EXPECT_EQ((*rebooted)->recovered_barrier_id(), 2u);
  EXPECT_EQ(DumpInstances(rebooted->get(), /*from_slave=*/false), live);
  EXPECT_EQ(DumpInstances(rebooted->get(), /*from_slave=*/true), live);
}

INSTANTIATE_TEST_SUITE_P(Replication, WriteParityTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sync" : "Async";
                         });

TEST(ClusterDurable, OneWalRecordPerPointOpAndPerSameInstanceRun) {
  TempDir dir;
  tdstore::DataServer host(0, /*sync_replication=*/false);
  tdstore::DataServer slave(1, /*sync_replication=*/false);
  for (int inst : {1, 2, 3}) {
    ASSERT_TRUE(host.CreateInstance(inst, {}).ok());
    ASSERT_TRUE(slave.CreateInstance(inst, {}).ok());
    ASSERT_TRUE(host.SetSlave(inst, &slave).ok());
  }
  ASSERT_TRUE(host.SetHostRole(1, true).ok());
  ASSERT_TRUE(host.SetHostRole(2, true).ok());  // instance 3 stays a replica
  ASSERT_TRUE(host.EnableDurability(dir.path(), {}).ok());
  tdstore::Wal* wal = host.wal();

  // Each point op: one record, logged and queued for the slave.
  ASSERT_TRUE(host.Put(1, "a", "1").ok());
  ASSERT_TRUE(host.Delete(1, "a").ok());
  ASSERT_TRUE(host.IncrDouble(2, "d", 1.5).ok());
  EXPECT_EQ(wal->record_count(), 3u);
  EXPECT_EQ(host.PendingReplication(), 3u);

  // Runs {1, 1}, {2}, {3: refused} and {1}: three records of four ops.
  const std::vector<tdstore::BatchPut> puts = {
      {1, "p", "x"}, {1, "q", "y"}, {2, "r", "z"}, {3, "s", "w"}, {1, "t", "v"}};
  std::vector<Status> put_out;
  ASSERT_TRUE(host.MultiPut(puts, &put_out).ok());
  EXPECT_TRUE(put_out[3].IsUnavailable());
  EXPECT_EQ(wal->record_count(), 6u);
  EXPECT_EQ(host.PendingReplication(), 7u);

  // A run whose every item fails logs and replicates nothing.
  ASSERT_TRUE(host.Put(2, "bad", "not-a-double").ok());
  const std::vector<tdstore::BatchIncrDouble> adds = {{2, "bad", 1.0}};
  std::vector<Result<double>> add_out;
  ASSERT_TRUE(host.MultiIncrDouble(adds, &add_out).ok());
  EXPECT_TRUE(add_out[0].status().IsCorruption());
  EXPECT_EQ(wal->record_count(), 7u);
  EXPECT_EQ(host.PendingReplication(), 8u);
}

// ---------------------------------------------------------------------------
// Kill-mid-stream: the headline end-to-end crash test.

std::vector<UserAction> KillBatch(int b, int n) {
  Rng rng(static_cast<uint64_t>(7000 + b));
  const ActionType kTypes[] = {ActionType::kBrowse, ActionType::kClick,
                               ActionType::kRead, ActionType::kPurchase,
                               ActionType::kImpression};
  std::vector<UserAction> actions;
  for (int i = 0; i < n; ++i) {
    UserAction a;
    a.user = static_cast<UserId>(1 + rng.Uniform(20));
    a.item = static_cast<ItemId>(1 + rng.Uniform(15));
    a.action = kTypes[rng.Uniform(5)];
    a.timestamp = Seconds((b * n + i) * 3);
    actions.push_back(a);
  }
  return actions;
}

engine::TencentRec::Options KillEngineOptions(const std::string& durable_dir) {
  engine::TencentRec::Options options;
  options.app.app = "killtest";
  options.app.parallelism = 2;
  options.app.linked_time = Days(30);
  options.app.algorithms.ctr = true;
  options.store.num_data_servers = 2;
  options.store.num_instances = 8;
  if (!durable_dir.empty()) {
    options.store.durability.enabled = true;
    options.store.durability.dir = durable_dir;
    options.checkpoint_interval_batches = 4;  // exercise snapshot+truncate
  }
  return options;
}

/// Full host-side store content, keyed by instance.
std::map<std::string, std::string> DumpStore(tdstore::Cluster* store) {
  std::map<std::string, std::string> out;
  for (int s = 0; s < store->num_data_servers(); ++s) {
    tdstore::DataServer* server = store->data_server(s);
    for (int inst = 0; inst < store->num_instances(); ++inst) {
      // Only the host role serves the scan, so each instance lands once.
      (void)server->ScanPrefix(
          inst, "", [&](std::string_view key, std::string_view value) {
            out["i" + std::to_string(inst) + ":" + std::string(key)] =
                std::string(value);
            return true;
          });
    }
  }
  return out;
}

int ReadProgress(const std::string& path) {
  std::ifstream in(path);
  int v = 0;
  if (!(in >> v)) return 0;
  return v;
}

TEST(KillMidStream, RecoversBitIdenticalState) {
  TempDir dir;
  const std::string store_dir = dir.path() + "/store";
  const std::string progress = dir.path() + "/progress";
  std::filesystem::create_directories(store_dir);
  constexpr int kBatches = 12;
  constexpr int kPerBatch = 50;

  // Fork FIRST, before this process has ever spun up engine threads.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: stream all batches against the durable store, reporting each
    // committed batch. The parent SIGKILLs us somewhere in the middle.
    auto engine = engine::TencentRec::Create(KillEngineOptions(store_dir));
    if (!engine.ok()) _exit(2);
    for (int b = 0; b < kBatches; ++b) {
      if (!(*engine)->ProcessBatch(KillBatch(b, kPerBatch)).ok()) _exit(3);
      const std::string tmp = progress + ".tmp";
      {
        std::ofstream out(tmp, std::ios::trunc);
        out << (b + 1);
      }
      std::rename(tmp.c_str(), progress.c_str());
    }
    _exit(0);
  }

  // Parent: wait for a few committed batches, then kill without warning.
  int committed = 0;
  bool child_exited = false;
  for (int spin = 0; spin < 30000; ++spin) {
    committed = ReadProgress(progress);
    if (committed >= 3) break;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      child_exited = true;  // finished everything before we got to it
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!child_exited) {
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
  }
  ASSERT_GE(committed, child_exited ? 0 : 3);

  // Recover: boot from snapshot+WAL, learn how far the stream committed,
  // and replay the remainder of the batches.
  auto recovered = engine::TencentRec::Create(KillEngineOptions(store_dir));
  ASSERT_TRUE(recovered.ok());
  const uint64_t k = (*recovered)->store()->recovered_barrier_id();
  // A batch the child reported was barrier-committed before the report, so
  // recovery can never land short of it — only at it or later.
  EXPECT_GE(k, static_cast<uint64_t>(committed));
  ASSERT_LE(k, static_cast<uint64_t>(kBatches));
  for (int b = static_cast<int>(k); b < kBatches; ++b) {
    ASSERT_TRUE((*recovered)->ProcessBatch(KillBatch(b, kPerBatch)).ok());
  }
  EXPECT_EQ((*recovered)->last_barrier(), static_cast<uint64_t>(kBatches));
  const auto recovered_dump = DumpStore((*recovered)->store());

  // Reference: the same stream, never interrupted, no durability.
  auto reference = engine::TencentRec::Create(KillEngineOptions(""));
  ASSERT_TRUE(reference.ok());
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE((*reference)->ProcessBatch(KillBatch(b, kPerBatch)).ok());
  }
  const auto reference_dump = DumpStore((*reference)->store());

  ASSERT_FALSE(reference_dump.empty());
  // The key SET is deterministic: both runs touched the same state.
  {
    std::vector<std::string> ref_keys, rec_keys;
    for (const auto& [key, value] : reference_dump) ref_keys.push_back(key);
    for (const auto& [key, value] : recovered_dump) rec_keys.push_back(key);
    EXPECT_EQ(rec_keys, ref_keys);
  }
  // Values must match byte for byte. Counters and windowed statistics
  // (ic:, pc:, po:, ctr:, gh:, ...) are deterministic functions of the
  // batch sequence, and so are uh: blobs: a user's actions reach
  // user_history in order, and the blob lists the history's rows in
  // insertion order. One class is exempt, provably so even between two
  // UNINTERRUPTED runs of the same stream: sim:/st: hold scores computed at
  // emission time from whatever the windowed counts were at that instant
  // (§5.1 decoupled statistics — "transiently stale", self-correcting under
  // traffic), so their bytes are interleaving-dependent by design; presence
  // is checked above.
  int diffs = 0;
  std::string diff;
  for (const auto& [key, value] : reference_dump) {
    auto it = recovered_dump.find(key);
    if (it == recovered_dump.end()) continue;  // reported by the set check
    const std::string stripped = key.substr(key.find(':') + 1);
    if (stripped.rfind("sim:", 0) == 0 || stripped.rfind("st:", 0) == 0) {
      continue;
    }
    const bool equal = value == it->second;
    if (!equal && diffs < 20) {
      diff += "  differs: " + key + "\n";
      ++diffs;
    }
  }
  EXPECT_EQ(diffs, 0)
      << "recovered store diverged from the uninterrupted run (committed="
      << committed << " k=" << k << "):\n"
      << diff;
}

}  // namespace
}  // namespace tencentrec
