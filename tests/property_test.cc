// Property-based tests: randomized inputs checked against naive reference
// implementations or invariants, parameterized over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <unistd.h>

#include "common/random.h"
#include "common/topk.h"
#include "core/itemcf/window_counts.h"
#include "core/rating.h"
#include "tdaccess/segment_log.h"
#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "topo/blob_codec.h"
#include "tstorm/xml.h"

namespace tencentrec {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// --- WindowedCounts vs naive reference ----------------------------------------

using WindowedCountsProperty = SeededTest;

TEST_P(WindowedCountsProperty, MatchesNaiveReference) {
  Rng rng(GetParam());
  const EventTime session_len = Hours(1);
  const int window = 1 + static_cast<int>(rng.Uniform(5));
  core::WindowedCounts counts(session_len, window);

  // Log of (session, item, delta) and (session, pair, delta); the reference
  // recomputes window sums from the log.
  std::vector<std::tuple<int64_t, core::ItemId, double>> item_log;
  std::vector<std::tuple<int64_t, core::ItemId, core::ItemId, double>>
      pair_log;

  EventTime now = 0;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<EventTime>(rng.Uniform(Minutes(30)));
    const auto item = static_cast<core::ItemId>(1 + rng.Uniform(6));
    const auto other = static_cast<core::ItemId>(1 + rng.Uniform(6));
    const double delta = 0.5 + rng.NextDouble();
    const int64_t session = now / session_len;
    if (rng.Bernoulli(0.5)) {
      counts.AddItem(item, delta, now);
      item_log.emplace_back(session, item, delta);
    } else if (item != other) {
      counts.AddPair(item, other, delta, now);
      pair_log.emplace_back(session, std::min(item, other),
                            std::max(item, other), delta);
    }

    if (step % 20 != 0) continue;
    // Reference: sum log entries whose session is inside the window ending
    // at the latest session the structure has seen (the generator's event
    // times are monotone, so no late out-of-window adds occur).
    const int64_t latest = counts.CurrentSession();
    auto in_window = [&](int64_t s) { return s > latest - window; };
    for (core::ItemId i = 1; i <= 6; ++i) {
      double expected = 0.0;
      for (const auto& [s, it, d] : item_log) {
        if (it == i && in_window(s)) expected += d;
      }
      EXPECT_NEAR(counts.ItemCount(i), expected, 1e-9) << "item " << i;
    }
    for (core::ItemId a = 1; a <= 6; ++a) {
      for (core::ItemId b = a + 1; b <= 6; ++b) {
        double expected = 0.0;
        for (const auto& [s, lo, hi, d] : pair_log) {
          if (lo == a && hi == b && in_window(s)) expected += d;
        }
        EXPECT_NEAR(counts.PairCount(a, b), expected, 1e-9)
            << "pair (" << a << ", " << b << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedCountsProperty,
                         ::testing::Values(10u, 20u, 30u, 40u));

// --- TopK vs full-sort reference ------------------------------------------------

using TopKProperty = SeededTest;

TEST_P(TopKProperty, MatchesSortedReference) {
  Rng rng(GetParam());
  const size_t k = 1 + rng.Uniform(6);
  TopK<int> topk(k);
  std::map<int, double> latest;  // id -> latest score

  for (int step = 0; step < 300; ++step) {
    const int id = static_cast<int>(rng.Uniform(20));
    if (rng.Bernoulli(0.1)) {
      topk.Erase(id);
      latest.erase(id);
      continue;
    }
    const double score = rng.NextDouble();
    topk.Update(id, score);
    latest[id] = score;  // last score sent per id

    ASSERT_LE(topk.size(), k);
    const auto& entries = topk.entries();
    // Invariant 1: descending order.
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_GE(entries[i - 1].score, entries[i].score);
    }
    // Invariant 2: threshold is the k-th best when full, else 0.
    if (topk.size() == k) {
      EXPECT_DOUBLE_EQ(topk.Threshold(), entries.back().score);
    } else {
      EXPECT_DOUBLE_EQ(topk.Threshold(), 0.0);
    }
    // Invariant 3: no stale scores — every entry carries the last score
    // sent for its id (an Update of a present id always applies).
    for (const auto& e : entries) {
      auto it = latest.find(e.id);
      ASSERT_NE(it, latest.end());
      EXPECT_DOUBLE_EQ(e.score, it->second);
    }
    // Invariant 4: an update above the current threshold is always admitted.
    if (!entries.empty()) {
      const double winning = entries.front().score + 1.0;
      topk.Update(99, winning);
      EXPECT_TRUE(topk.Contains(99));
      topk.Erase(99);
      latest.erase(99);
    }
  }
}

// A stored list decodes (TopK::Load) to the table Update over its entries
// builds: in rank order, shuffled, with repeated ids (shuffled or in rank
// order), and with more entries than the table holds. Coarse scores make
// ties, so the id tie-break decides ranks too.
TEST_P(TopKProperty, LoadedBlobMatchesUpdateLoop) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const size_t k = 1 + rng.Uniform(8);
    const size_t n = rng.Uniform(20);
    const uint64_t id_range = 1 + rng.Uniform(24);
    core::Recommendations entries;
    for (size_t i = 0; i < n; ++i) {
      entries.push_back({static_cast<core::ItemId>(1 + rng.Uniform(id_range)),
                         0.125 * static_cast<double>(rng.Uniform(8))});
    }
    const uint64_t mode = rng.Uniform(4);
    if (mode <= 1) {  // distinct ids
      std::set<core::ItemId> seen;
      std::erase_if(entries, [&seen](const core::ScoredItem& e) {
        return !seen.insert(e.item).second;
      });
    }
    if (mode == 0 || mode == 3) {  // rank order
      std::sort(entries.begin(), entries.end(), core::ByRank());
    } else {
      for (size_t i = entries.size(); i > 1; --i) {
        std::swap(entries[i - 1], entries[rng.Uniform(i)]);
      }
    }

    TopK<core::ItemId> want(k);
    for (const core::ScoredItem& e : entries) want.Update(e.item, e.score);
    auto got = topo::DecodeScoredList(topo::EncodeScoredList(entries), k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->entries(), want.entries())
        << "trial " << trial << " mode " << mode;
    EXPECT_EQ(got->Threshold(), want.Threshold());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- TDStore under random ops + failovers vs shadow map -------------------------

using TdStoreProperty = SeededTest;

TEST_P(TdStoreProperty, ShadowMapUnderFailovers) {
  Rng rng(GetParam());
  tdstore::Cluster::Options options;
  options.num_data_servers = 3;
  options.num_instances = 8;
  auto cluster = tdstore::Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  tdstore::Client client(cluster->get());

  std::map<std::string, std::string> shadow;
  int down_server = -1;

  for (int step = 0; step < 600; ++step) {
    const std::string key = "k" + std::to_string(rng.Uniform(40));
    const double op = rng.NextDouble();
    if (op < 0.5) {
      const std::string value = "v" + std::to_string(step);
      ASSERT_TRUE(client.Put(key, value).ok()) << "step " << step;
      shadow[key] = value;
    } else if (op < 0.65) {
      ASSERT_TRUE(client.Delete(key).ok());
      shadow.erase(key);
    } else if (op < 0.95) {
      auto v = client.Get(key);
      auto it = shadow.find(key);
      if (it == shadow.end()) {
        EXPECT_TRUE(v.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(v.ok()) << key << ": " << v.status().ToString();
        EXPECT_EQ(*v, it->second);
      }
    } else {
      // Fail or recover a data server (at most one down at a time, so
      // every instance always retains a live replica).
      if (down_server < 0) {
        down_server = static_cast<int>(rng.Uniform(3));
        ASSERT_TRUE(cluster->get()->FailDataServer(down_server).ok());
      } else {
        ASSERT_TRUE(cluster->get()->RecoverDataServer(down_server).ok());
        down_server = -1;
      }
    }
  }
  // Final full verification.
  for (const auto& [key, value] : shadow) {
    auto v = client.Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdStoreProperty,
                         ::testing::Values(100u, 200u, 300u, 400u));

// --- SegmentLog: arbitrary tail truncation recovers a clean prefix -------------

using SegmentLogProperty = SeededTest;

TEST_P(SegmentLogProperty, TruncationRecoversPrefix) {
  Rng rng(GetParam());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("seglog_prop_" + std::to_string(::getpid()) + "_" +
                    std::to_string(GetParam()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "log").string();

  std::vector<tdaccess::Message> written;
  {
    tdaccess::SegmentLog log;
    ASSERT_TRUE(log.Open(path).ok());
    const int n = 5 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < n; ++i) {
      tdaccess::Message m;
      m.key = "key" + std::to_string(rng.Uniform(100));
      m.payload = std::string(rng.Uniform(50), 'x');
      m.timestamp = static_cast<EventTime>(rng.Uniform(1000000));
      ASSERT_TRUE(log.Append(m).ok());
      written.push_back(m);
    }
  }

  // Chop the file at a random byte boundary.
  const auto size = std::filesystem::file_size(path);
  const auto cut = rng.Uniform(size + 1);
  std::filesystem::resize_file(path, cut);

  tdaccess::SegmentLog recovered;
  ASSERT_TRUE(recovered.Open(path).ok());
  const auto end = recovered.EndOffset();
  ASSERT_LE(end, static_cast<tdaccess::Offset>(written.size()));
  auto records = recovered.Read(0, written.size());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(end));
  // Every surviving record is byte-exact — truncation never corrupts.
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].key, written[i].key) << i;
    EXPECT_EQ((*records)[i].payload, written[i].payload) << i;
    EXPECT_EQ((*records)[i].timestamp, written[i].timestamp) << i;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentLogProperty,
                         ::testing::Values(7u, 8u, 9u, 10u, 11u, 12u));

// --- UserHistory: co-rating deltas telescope to min(final ratings) -------------

using UserHistoryProperty = SeededTest;

TEST_P(UserHistoryProperty, CoRatingDeltasTelescope) {
  Rng rng(GetParam());
  core::UserHistory history;
  core::ActionWeights weights;
  const core::ActionType kTypes[] = {
      core::ActionType::kBrowse, core::ActionType::kClick,
      core::ActionType::kRead, core::ActionType::kPurchase};

  std::map<std::pair<core::ItemId, core::ItemId>, double> pair_sums;
  for (int step = 0; step < 200; ++step) {
    core::UserAction action;
    action.user = 1;
    action.item = static_cast<core::ItemId>(1 + rng.Uniform(5));
    action.action = kTypes[rng.Uniform(4)];
    action.timestamp = Seconds(step);  // all within linked time
    auto update = history.Apply(action, weights, Days(365));
    // Rating never decreases (max rule).
    EXPECT_GE(update.rating_delta, 0.0);
    for (const auto& p : update.pairs) {
      auto key = std::minmax(update.item, p.other);
      pair_sums[{key.first, key.second}] += p.co_rating_delta;
    }
  }
  // Telescoping: accumulated deltas equal min of the final ratings for
  // every pair that ever co-occurred.
  for (const auto& [pair, sum] : pair_sums) {
    const double expected =
        std::min(history.RatingOf(pair.first), history.RatingOf(pair.second));
    EXPECT_NEAR(sum, expected, 1e-9)
        << "(" << pair.first << ", " << pair.second << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UserHistoryProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- XML parser: random mutations never crash, valid docs round-trip -------------

using XmlProperty = SeededTest;

TEST_P(XmlProperty, RandomMutationsNeverCrash) {
  Rng rng(GetParam());
  const std::string valid = R"(
    <topology name="t">
      <spout name="s" class="S"/>
      <bolts>
        <bolt name="b" class="B" parallelism="2">
          <grouping type="field"><fields>user</fields></grouping>
        </bolt>
      </bolts>
    </topology>)";
  ASSERT_TRUE(tstorm::ParseXml(valid).ok());

  for (int round = 0; round < 200; ++round) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.Uniform(5));
          break;
        default:
          mutated.insert(pos, rng.Bernoulli(0.5) ? "<" : ">");
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    // Must return (ok or error), never crash or hang.
    auto result = tstorm::ParseXml(mutated);
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlProperty,
                         ::testing::Values(77u, 78u, 79u, 80u));

}  // namespace
}  // namespace tencentrec
