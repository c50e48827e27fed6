// FlatStringMap, the byte-string table under the MDB/RDB engines, FDB's
// index, the batch writer and the combiner: a differential test against
// std::unordered_map, backward-shift erase across the slot array's end,
// stored-hash collisions, growth interleaved with erases, and the MDB
// engine on top of it (restore semantics, readers against a writer).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/random.h"
#include "tdstore/mdb_engine.h"

namespace tencentrec {
namespace {

/// Test-only hash: the decimal number before the first ':' is the stored
/// hash, so a test chooses each key's home slot (home = hash & mask).
struct HomeHash {
  uint64_t operator()(std::string_view key) const {
    uint64_t home = 0;
    for (char c : key.substr(0, key.find(':'))) {
      home = home * 10 + static_cast<uint64_t>(c - '0');
    }
    return home;
  }
};

/// Every key gets the same stored hash.
struct ConstantHash {
  uint64_t operator()(std::string_view) const { return 7; }
};

template <typename Map>
std::vector<std::pair<std::string, std::string>> Contents(const Map& map) {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < map.size(); ++i) {
    out.emplace_back(map.entry(i).key, map.entry(i).value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::string>> Contents(
    const std::unordered_map<std::string, std::string>& map) {
  std::vector<std::pair<std::string, std::string>> out(map.begin(), map.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FlatStringMapTest, DifferentialAgainstUnorderedMap) {
  // Random upserts, finds, erases and prefix scans over a key space small
  // enough that most finds and erases hit; short (inline) and long (heap)
  // keys, and the empty key, all take part.
  FlatStringMap<std::string> flat;
  std::unordered_map<std::string, std::string> reference;
  Rng rng(20260);
  auto random_key = [&] {
    const uint64_t k = rng.Uniform(6000);
    if (k == 0) return std::string();
    std::string key = "k" + std::to_string(k % 7) + ":" + std::to_string(k);
    if (k % 3 == 0) key += ":a-long-suffix-that-leaves-the-sso-buffer";
    return key;
  };
  constexpr int kOps = 220000;
  for (int op = 0; op < kOps; ++op) {
    const std::string key = random_key();
    const uint64_t kind = rng.Uniform(100);
    if (kind < 45) {
      const std::string value = "v" + std::to_string(op);
      flat[key] = value;
      reference[key] = value;
    } else if (kind < 75) {
      const std::string* got = flat.Find(key);
      auto it = reference.find(key);
      ASSERT_EQ(got != nullptr, it != reference.end()) << key;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second) << key;
      }
    } else if (kind < 99) {
      ASSERT_EQ(flat.Erase(key), reference.erase(key) == 1) << key;
    } else {
      const std::string prefix = "k" + std::to_string(rng.Uniform(7)) + ":1";
      std::vector<std::string> got, want;
      for (size_t i = 0; i < flat.size(); ++i) {
        if (flat.entry(i).key.starts_with(prefix)) {
          got.push_back(flat.entry(i).key);
        }
      }
      for (const auto& [k, v] : reference) {
        if (k.starts_with(prefix)) want.push_back(k);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << prefix;
    }
    ASSERT_EQ(flat.size(), reference.size());
    if (op % 20000 == 0) {
      ASSERT_EQ(Contents(flat), Contents(reference));
    }
  }
  EXPECT_EQ(Contents(flat), Contents(reference));
  // The slot array stays a power of two at no more than 3/4 load.
  EXPECT_EQ(flat.capacity() & (flat.capacity() - 1), 0u);
  EXPECT_LE(flat.size() * 4, flat.capacity() * 3);
}

TEST(FlatStringMapTest, EraseShiftsRunsThatWrapPastTheEnd) {
  // Homes 13..15 and 0 on a 16-slot array: the run occupies slots 13..15
  // and wraps to 0..3. Erasing any one member must leave every other key
  // reachable from its home, whichever member goes.
  const std::vector<std::string> keys = {"13:a", "14:b", "14:c", "15:d",
                                         "15:e", "0:f",  "1:g"};
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    FlatStringMap<int, HomeHash> map;
    for (size_t i = 0; i < keys.size(); ++i) map[keys[i]] = static_cast<int>(i);
    ASSERT_EQ(map.capacity(), 16u);
    ASSERT_TRUE(map.Erase(keys[victim]));
    EXPECT_EQ(map.Find(keys[victim]), nullptr);
    EXPECT_FALSE(map.Erase(keys[victim]));
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == victim) continue;
      const int* value = map.Find(keys[i]);
      ASSERT_NE(value, nullptr) << "lost " << keys[i] << " erasing "
                                << keys[victim];
      EXPECT_EQ(*value, static_cast<int>(i));
    }
  }
  // Erasing every member in an order that walks back across the wrap leaves
  // an empty, reusable table.
  FlatStringMap<int, HomeHash> map;
  for (size_t i = 0; i < keys.size(); ++i) map[keys[i]] = static_cast<int>(i);
  std::vector<std::string> live = keys;
  for (const char* key : {"0:f", "15:d", "13:a", "1:g", "14:c", "15:e",
                          "14:b"}) {
    ASSERT_TRUE(map.Erase(key)) << key;
    std::erase(live, key);
    ASSERT_EQ(map.size(), live.size());
    for (const std::string& other : live) {
      EXPECT_NE(map.Find(other), nullptr) << "lost " << other;
    }
  }
  EXPECT_TRUE(map.empty());
  map["15:z"] = 9;
  ASSERT_NE(map.Find("15:z"), nullptr);
  EXPECT_EQ(*map.Find("15:z"), 9);
}

TEST(FlatStringMapTest, CollidingStoredHashesCompareKeys) {
  // One stored hash for every key: each probe must fall through to the key
  // comparison, and erase must keep the single long run intact.
  FlatStringMap<int, ConstantHash> map;
  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) map["key" + std::to_string(i)] = i;
  ASSERT_EQ(map.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(map.Find("key"), nullptr);
  EXPECT_EQ(map.Find("key300"), nullptr);
  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(map.Erase("key" + std::to_string(i)));
  }
  for (int i = 0; i < kKeys; ++i) {
    const int* value = map.Find("key" + std::to_string(i));
    if (i % 2 == 0) {
      EXPECT_EQ(value, nullptr) << i;
    } else {
      ASSERT_NE(value, nullptr) << i;
      EXPECT_EQ(*value, i);
    }
  }
  // Re-inserting an erased key lands once, not beside a stale copy.
  map["key4"] = 44;
  map["key4"] = 45;
  EXPECT_EQ(map.size(), static_cast<size_t>(kKeys / 2 + 1));
  EXPECT_EQ(*map.Find("key4"), 45);
}

TEST(FlatStringMapTest, GrowthInterleavedWithErases) {
  // Each round inserts a block (forcing several doublings over the test)
  // and erases an older stripe, so rehashes re-place slots whose pool
  // positions were permuted by erase's move-the-last-entry step.
  FlatStringMap<int> map;
  std::unordered_map<std::string, int> reference;
  int next = 0;
  for (int round = 0; round < 40; ++round) {
    const size_t before = map.capacity();
    for (int i = 0; i < 500; ++i, ++next) {
      const std::string key = "g:" + std::to_string(next);
      map[key] = next;
      reference[key] = next;
    }
    for (int i = round * 400; i < round * 400 + 300; i += 3) {
      const std::string key = "g:" + std::to_string(i);
      EXPECT_EQ(map.Erase(key), reference.erase(key) == 1);
    }
    EXPECT_GE(map.capacity(), before);
    ASSERT_EQ(map.size(), reference.size());
  }
  EXPECT_GE(map.capacity(), 16384u);  // grew by doubling from 16
  for (const auto& [key, value] : reference) {
    const int* got = map.Find(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(*got, value);
  }
  // The dense pool holds exactly the live entries.
  std::vector<std::string> pooled;
  for (size_t i = 0; i < map.size(); ++i) pooled.push_back(map.entry(i).key);
  std::sort(pooled.begin(), pooled.end());
  EXPECT_EQ(std::adjacent_find(pooled.begin(), pooled.end()), pooled.end());
  for (const std::string& key : pooled) EXPECT_EQ(reference.count(key), 1u);
}

TEST(FlatStringMapTest, DrainClearAndMoveKeepTheTableUsable) {
  FlatStringMap<double> map;
  map[std::string("b")] += 1.0;
  map["a"] += 2.0;
  map["b"] += 3.0;
  auto [value, inserted] = map.TryEmplace(std::string("c"));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 0.0);
  std::vector<std::pair<std::string, double>> drained;
  map.Drain([&](std::string&& key, double&& v) {
    drained.emplace_back(std::move(key), v);
  });
  // Pool order is first-insertion order until an erase.
  const std::vector<std::pair<std::string, double>> want = {
      {"b", 4.0}, {"a", 2.0}, {"c", 0.0}};
  EXPECT_EQ(drained, want);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find("a"), nullptr);
  const size_t capacity = map.capacity();
  map["a"] = 5.0;
  EXPECT_EQ(map.capacity(), capacity);  // Clear kept the slots

  FlatStringMap<double> moved = std::move(map);
  ASSERT_NE(moved.Find("a"), nullptr);
  EXPECT_EQ(*moved.Find("a"), 5.0);
  map = std::move(moved);
  ASSERT_NE(map.Find("a"), nullptr);
  map.Clear();
  EXPECT_EQ(map.Find("a"), nullptr);
}

// --- the MDB engine over the table -------------------------------------------

TEST(MdbEngineTableTest, RestoreFromReplacesInsteadOfMerging) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("flat_table_test_" + std::to_string(::getpid()) + ".snap"))
          .string();
  tdstore::MdbEngine source;
  ASSERT_TRUE(source.Put("a", "1").ok());
  ASSERT_TRUE(source.Put("b", "2").ok());
  ASSERT_TRUE(source.SnapshotTo(path).ok());

  tdstore::MdbEngine target;
  ASSERT_TRUE(target.Put("b", "stale").ok());
  ASSERT_TRUE(target.Put("c", "leftover").ok());
  ASSERT_TRUE(target.RestoreFrom(path).ok());
  std::filesystem::remove(path);
  EXPECT_EQ(target.Count(), 2u);
  EXPECT_EQ(target.Get("a").value(), "1");
  EXPECT_EQ(target.Get("b").value(), "2");
  EXPECT_TRUE(target.Get("c").status().IsNotFound());
  // The restored table takes writes and deletes like any other.
  ASSERT_TRUE(target.Put("c", "3").ok());
  ASSERT_TRUE(target.Delete("a").ok());
  EXPECT_EQ(target.Count(), 2u);
  EXPECT_TRUE(target.Get("a").status().IsNotFound());
}

TEST(MdbEngineTableTest, ReadersRunAgainstOneWriter) {
  // One writer grows the table through MultiPut (many doublings) and
  // deletes behind itself while readers Get and ScanPrefix; every value a
  // reader sees must belong to its key. The TSan build runs this under the
  // `concurrent` label. Readers run a fixed number of reads rather than
  // until the writer finishes: the reader-preferring rwlock would let
  // spinning readers starve the writer.
  tdstore::MdbEngine engine;
  std::atomic<int64_t> found{0};
  auto value_of = [](int key) { return "v" + std::to_string(key); };
  std::thread writer([&] {
    int next = 0;
    for (int batch = 0; batch < 300; ++batch) {
      std::vector<std::pair<std::string, std::string>> kvs;
      for (int i = 0; i < 64; ++i, ++next) {
        kvs.emplace_back("w:" + std::to_string(next), value_of(next));
      }
      EXPECT_TRUE(engine.MultiPut(std::move(kvs)).ok());
      for (int i = next - 64; i < next; i += 4) {
        EXPECT_TRUE(engine.Delete("w:" + std::to_string(i)).ok());
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 1);
      for (int i = 0; i < 4000; ++i) {
        const int key = static_cast<int>(rng.Uniform(300 * 64));
        auto got = engine.Get("w:" + std::to_string(key));
        if (got.ok()) {
          EXPECT_EQ(*got, value_of(key));
          found.fetch_add(1);
        }
        if (rng.Uniform(16) == 0) {
          const std::string prefix = "w:" + std::to_string(rng.Uniform(10));
          EXPECT_TRUE(engine
                          .ScanPrefix(prefix,
                                      [&](std::string_view k,
                                          std::string_view v) {
                                        EXPECT_TRUE(k.starts_with(prefix));
                                        EXPECT_EQ(v, value_of(std::stoi(
                                                         std::string(
                                                             k.substr(2)))));
                                        return true;
                                      })
                          .ok());
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(engine.Count(), 300u * 48u);
  // Reads ran against a growing table (not only before the first batch).
  EXPECT_GT(found.load(), 0);
}

}  // namespace
}  // namespace tencentrec
