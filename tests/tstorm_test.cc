#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "tstorm/cluster.h"
#include "tstorm/topology.h"

namespace tencentrec::tstorm {
namespace {

/// Emits integers [0, n) on a stream with fields {key, value}.
class IntSpout : public ISpout {
 public:
  explicit IntSpout(int n, int num_keys = 8) : n_(n), num_keys_(num_keys) {}

  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"ints", {"key", "value"}}};
  }

  void Open(const TaskContext& ctx) override {
    next_ = ctx.instance;
    stride_ = ctx.parallelism;
  }

  bool NextBatch(OutputCollector& out) override {
    int emitted = 0;
    while (next_ < n_ && emitted < 16) {
      out.Emit(Tuple::Of({static_cast<int64_t>(next_ % num_keys_),
                          static_cast<int64_t>(next_)}));
      next_ += stride_;
      ++emitted;
    }
    return next_ < n_;
  }

 private:
  int n_;
  int num_keys_;
  int next_ = 0;
  int stride_ = 1;
};

/// Collects everything it sees into a shared sink (guarded; instances run on
/// different threads).
struct Sink {
  std::mutex mu;
  std::vector<std::pair<int, Tuple>> tuples;  // (instance, tuple)
  std::map<int64_t, int> key_to_instance;
  bool key_instance_conflict = false;
};

class CollectBolt : public IBolt {
 public:
  explicit CollectBolt(Sink* sink) : sink_(sink) {}

  void Prepare(const TaskContext& ctx) override { instance_ = ctx.instance; }

  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    (void)out;
    std::lock_guard lock(sink_->mu);
    sink_->tuples.emplace_back(instance_, input);
    const int64_t key = input.GetInt(0);
    auto [it, inserted] = sink_->key_to_instance.emplace(key, instance_);
    if (!inserted && it->second != instance_) {
      sink_->key_instance_conflict = true;
    }
  }

 private:
  Sink* sink_;
  int instance_ = 0;
};

TopologySpec MustBuild(TopologyBuilder&& builder) {
  auto spec = std::move(builder).Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

// --- builder validation -----------------------------------------------------

TEST(TopologyBuilderTest, RejectsEmpty) {
  TopologyBuilder b("empty");
  auto spec = std::move(b).Build();
  EXPECT_FALSE(spec.ok());
}

TEST(TopologyBuilderTest, RejectsDuplicateNames) {
  Sink sink;
  TopologyBuilder b("dup");
  b.SetSpout("x", [] { return std::make_unique<IntSpout>(1); });
  b.SetBolt("x", [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .ShuffleGrouping("x");
  auto spec = std::move(b).Build();
  EXPECT_FALSE(spec.ok());
}

TEST(TopologyBuilderTest, RejectsUnknownProducer) {
  Sink sink;
  TopologyBuilder b("bad");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .ShuffleGrouping("nope");
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(TopologyBuilderTest, RejectsFieldsGroupingWithoutFields) {
  Sink sink;
  TopologyBuilder b("bad");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .FieldsGrouping("spout", {});
  EXPECT_FALSE(std::move(b).Build().ok());
}

TEST(LocalClusterTest, RejectsBoltWithNoInputs) {
  Sink sink;
  TopologyBuilder b("orphan");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); });
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(LocalCluster::Create(std::move(spec).value()).ok());
}

TEST(LocalClusterTest, RejectsUnknownFieldName) {
  Sink sink;
  TopologyBuilder b("badfield");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .FieldsGrouping("spout", {"nonexistent"});
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(LocalCluster::Create(std::move(spec).value()).ok());
}

// --- delivery ---------------------------------------------------------------

TEST(LocalClusterTest, DeliversAllTuplesShuffle) {
  Sink sink;
  TopologyBuilder b("shuffle");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(100); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            3)
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(sink.tuples.size(), 100u);

  // All values present exactly once.
  std::set<int64_t> values;
  for (const auto& [inst, tuple] : sink.tuples) values.insert(tuple.GetInt(1));
  EXPECT_EQ(values.size(), 100u);

  // Shuffle spreads across instances.
  std::set<int> instances;
  for (const auto& [inst, tuple] : sink.tuples) instances.insert(inst);
  EXPECT_EQ(instances.size(), 3u);
}

/// Records, at each instance's first NextBatch, how many instances of the
/// spout had finished Open(). Instance 1 opens ~50 ms late — the way a
/// consumer-group spout can subscribe after a sibling already polls.
struct OpenRecord {
  std::atomic<int> opened{0};
  std::mutex mu;
  std::vector<int> opened_at_first_batch;
};

class LateOpenSpout : public ISpout {
 public:
  explicit LateOpenSpout(OpenRecord* record) : record_(record) {}

  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"ints", {"key", "value"}}};
  }

  void Open(const TaskContext& ctx) override {
    if (ctx.instance == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    record_->opened.fetch_add(1);
  }

  bool NextBatch(OutputCollector& out) override {
    (void)out;
    std::lock_guard lock(record_->mu);
    record_->opened_at_first_batch.push_back(record_->opened.load());
    return false;
  }

 private:
  OpenRecord* record_;
};

TEST(LocalClusterTest, EverySpoutOpensBeforeAnySpoutPulls) {
  OpenRecord record;
  Sink sink;
  TopologyBuilder b("late_open");
  b.SetSpout("spout",
             [&record] { return std::make_unique<LateOpenSpout>(&record); },
             2);
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  ASSERT_EQ(record.opened_at_first_batch.size(), 2u);
  for (int opened : record.opened_at_first_batch) EXPECT_EQ(opened, 2);
}

TEST(LocalClusterTest, FieldsGroupingSerializesPerKey) {
  // The invariant the paper's CF correctness rests on: one instance per key.
  Sink sink;
  TopologyBuilder b("fields");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(500, 16); }, 2);
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            4)
      .FieldsGrouping("spout", {"key"});
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(sink.tuples.size(), 500u);
  EXPECT_FALSE(sink.key_instance_conflict)
      << "same key observed on two instances";
}

TEST(LocalClusterTest, GlobalGroupingUsesOneInstance) {
  Sink sink;
  TopologyBuilder b("global");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(50); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            4)
      .GlobalGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  std::set<int> instances;
  for (const auto& [inst, tuple] : sink.tuples) instances.insert(inst);
  EXPECT_EQ(instances.size(), 1u);
  EXPECT_EQ(sink.tuples.size(), 50u);
}

TEST(LocalClusterTest, AllGroupingBroadcasts) {
  Sink sink;
  TopologyBuilder b("all");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(50); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            3)
      .AllGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(sink.tuples.size(), 150u);  // 50 x 3 instances
}

// --- multi-stage / multi-stream ---------------------------------------------

/// Splits ints into "even"/"odd" streams.
class SplitBolt : public IBolt {
 public:
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"even", {"value"}}, {"odd", {"value"}}};
  }
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    const int64_t v = input.GetInt(1);
    out.EmitTo(v % 2 == 0 ? 0 : 1, Tuple::Of({v}));
  }
};

TEST(LocalClusterTest, NamedStreamsRouteIndependently) {
  Sink evens, odds;
  TopologyBuilder b("split");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(100); });
  b.SetBolt("split", [] { return std::make_unique<SplitBolt>(); }, 2)
      .ShuffleGrouping("spout");
  b.SetBolt("evens",
            [&evens] { return std::make_unique<CollectBolt>(&evens); })
      .ShuffleGrouping("split", "even");
  b.SetBolt("odds", [&odds] { return std::make_unique<CollectBolt>(&odds); })
      .ShuffleGrouping("split", "odd");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(evens.tuples.size(), 50u);
  EXPECT_EQ(odds.tuples.size(), 50u);
  for (const auto& [inst, t] : evens.tuples) EXPECT_EQ(t.GetInt(0) % 2, 0);
  for (const auto& [inst, t] : odds.tuples) EXPECT_EQ(t.GetInt(0) % 2, 1);
}

// --- tick / flush -----------------------------------------------------------

/// Buffers sums and only emits on Tick — like a combiner.
class BufferingBolt : public IBolt {
 public:
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"sums", {"key", "sum"}}};
  }
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    (void)out;
    buffer_[input.GetInt(0)] += input.GetInt(1);
  }
  void Tick(OutputCollector& out) override {
    for (const auto& [key, sum] : buffer_) {
      out.Emit(Tuple::Of({key, sum}));
    }
    buffer_.clear();
  }

 private:
  std::map<int64_t, int64_t> buffer_;
};

TEST(LocalClusterTest, FinalTickFlushesBeforeEos) {
  // Even with tick_interval 0, the guaranteed pre-EOS tick must flush.
  Sink sink;
  TopologyBuilder b("tick");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(64, 4); });
  b.SetBolt("buffer", [] { return std::make_unique<BufferingBolt>(); })
      .FieldsGrouping("spout", {"key"});
  b.SetBolt("collect",
            [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .ShuffleGrouping("buffer", "sums");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());

  int64_t total = 0;
  for (const auto& [inst, t] : sink.tuples) total += t.GetInt(1);
  EXPECT_EQ(total, 64 * 63 / 2);  // sum of 0..63, nothing lost in buffers
}

TEST(LocalClusterTest, PeriodicTickFires) {
  Sink sink;
  TopologyBuilder b("tick2");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(100, 1); });
  b.SetBolt("buffer", [] { return std::make_unique<BufferingBolt>(); })
      .FieldsGrouping("spout", {"key"})
      .TickInterval(10);
  b.SetBolt("collect",
            [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .ShuffleGrouping("buffer", "sums");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  // ~10 periodic flushes (plus the final one); at least several emissions.
  EXPECT_GE(sink.tuples.size(), 5u);
  int64_t total = 0;
  for (const auto& [inst, t] : sink.tuples) total += t.GetInt(1);
  EXPECT_EQ(total, 100 * 99 / 2);
}

// --- metrics & restart ------------------------------------------------------

TEST(LocalClusterTest, MetricsCountExecutions) {
  Sink sink;
  TopologyBuilder b("metrics");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(200); });
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            2)
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  for (const auto& m : (*cluster)->Metrics()) {
    if (m.component == "spout") {
      EXPECT_EQ(m.tuples_emitted, 200u);
    }
    if (m.component == "bolt") {
      EXPECT_EQ(m.tuples_executed, 200u);
    }
  }
}

/// Counts in-memory; restart loses the count (stateful on purpose, to prove
/// the restart really recreates the instance).
class StatefulBolt : public IBolt {
 public:
  explicit StatefulBolt(std::atomic<int>* prepares) : prepares_(prepares) {}
  void Prepare(const TaskContext& ctx) override {
    (void)ctx;
    prepares_->fetch_add(1);
  }
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)input;
    (void)source;
    (void)out;
  }

 private:
  std::atomic<int>* prepares_;
};

TEST(LocalClusterTest, RestartRecreatesBoltInstances) {
  std::atomic<int> prepares{0};
  TopologyBuilder b("restart");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(5000); });
  b.SetBolt("bolt",
            [&prepares] { return std::make_unique<StatefulBolt>(&prepares); },
            2)
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->RequestRestart("bolt").ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(prepares.load(), 4);  // 2 initial + 2 restarts
  uint64_t restarts = 0;
  for (const auto& m : (*cluster)->Metrics()) {
    if (m.component == "bolt") restarts = m.restarts;
  }
  EXPECT_EQ(restarts, 2u);
}

TEST(LocalClusterTest, RestartOfSpoutRejected) {
  TopologyBuilder b("nospout");
  std::atomic<int> prepares{0};
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(5); });
  b.SetBolt("bolt",
            [&prepares] { return std::make_unique<StatefulBolt>(&prepares); })
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  EXPECT_FALSE((*cluster)->RequestRestart("spout").ok());
  EXPECT_FALSE((*cluster)->RequestRestart("ghost").ok());
  ASSERT_TRUE((*cluster)->Run().ok());
}

TEST(LocalClusterTest, TinyQueuesBackpressureWithoutLoss) {
  // Queue capacity 2 forces constant blocking between stages; every tuple
  // must still arrive exactly once.
  Sink sink;
  TopologyBuilder b("pressure");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(2000, 16); }, 2);
  b.SetBolt("mid", [] { return std::make_unique<SplitBolt>(); }, 2)
      .ShuffleGrouping("spout");
  b.SetBolt("sink", [&sink] { return std::make_unique<CollectBolt>(&sink); })
      .ShuffleGrouping("mid", "even")
      .ShuffleGrouping("mid", "odd");
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok());
  LocalCluster::Options options;
  options.queue_capacity = 2;
  auto cluster = LocalCluster::Create(std::move(spec).value(), options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(sink.tuples.size(), 2000u);
}

TEST(LocalClusterTest, MultipleSpoutsMergeIntoOneBolt) {
  Sink sink;
  TopologyBuilder b("twosources");
  b.SetSpout("a", [] { return std::make_unique<IntSpout>(40); });
  b.SetSpout("b", [] { return std::make_unique<IntSpout>(60); });
  b.SetBolt("sink", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            2)
      .ShuffleGrouping("a")
      .ShuffleGrouping("b");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(sink.tuples.size(), 100u);  // EOS waited for both sources
}

TEST(TopologySpecTest, ToDotRendersComponentsAndEdges) {
  Sink sink;
  TopologyBuilder b("dot-demo");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1); }, 2);
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            3)
      .FieldsGrouping("spout", {"key"});
  auto spec = MustBuild(std::move(b));
  const std::string dot = ToDot(spec);
  EXPECT_NE(dot.find("digraph \"dot-demo\""), std::string::npos);
  EXPECT_NE(dot.find("\"spout\" [label=\"spout\\nx2\", shape=diamond]"),
            std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"spout\" -> \"bolt\""), std::string::npos);
  EXPECT_NE(dot.find("fields(key)"), std::string::npos);
}

TEST(LocalClusterTest, RunTwiceFails) {
  TopologyBuilder b("once");
  std::atomic<int> prepares{0};
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(5); });
  b.SetBolt("bolt",
            [&prepares] { return std::make_unique<StatefulBolt>(&prepares); })
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_FALSE((*cluster)->Run().ok());
}

}  // namespace
}  // namespace tencentrec::tstorm
