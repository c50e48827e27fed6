#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "tstorm/cluster.h"
#include "tstorm/topology.h"

namespace tencentrec::tstorm {
namespace {

/// Emits integers [0, n) on a stream with fields {key, value}, `batch` per
/// NextBatch; instance i of p emits i, i + p, i + 2p, ...
class IntSpout : public ISpout {
 public:
  explicit IntSpout(int n, int num_keys = 8, int batch = 16)
      : n_(n), num_keys_(num_keys), batch_(batch) {}

  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"ints", {"key", "value"}}};
  }

  void Open(const TaskContext& ctx) override {
    next_ = ctx.instance;
    stride_ = ctx.parallelism;
  }

  bool NextBatch(OutputCollector& out) override {
    int emitted = 0;
    while (next_ < n_ && emitted < batch_) {
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
  int batch_;
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

// --- runs: batched hand-off ---------------------------------------------------

TEST(LocalClusterRunsTest, TwoProducersKeepPerKeyOrderAcrossRunBoundaries) {
  // 300 tuples per NextBatch over 3 consumers: about 100 per consumer per
  // batch, so every batch pushes full runs mid-batch and a partial run at
  // its end. Per key and per producer, arrival must follow emission.
  Sink sink;
  TopologyBuilder b("order");
  b.SetSpout("spout",
             [] { return std::make_unique<IntSpout>(12000, 16, 300); }, 2);
  b.SetBolt("bolt", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            3)
      .FieldsGrouping("spout", {"key"});
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  ASSERT_EQ(sink.tuples.size(), 12000u);
  EXPECT_FALSE(sink.key_instance_conflict);
  // Value v came from producer v % 2; its values rise in emission order.
  std::map<std::pair<int64_t, int64_t>, int64_t> last;  // (key, producer)
  for (const auto& [inst, t] : sink.tuples) {
    const int64_t v = t.GetInt(1);
    auto [it, first] = last.emplace(std::make_pair(t.GetInt(0), v % 2), v);
    if (!first) {
      EXPECT_LT(it->second, v) << "key " << t.GetInt(0) << " producer "
                               << v % 2 << " reordered";
      it->second = v;
    }
  }
}

/// Records how many tuples it executed by the time its final Tick runs.
class CountingSinkBolt : public IBolt {
 public:
  explicit CountingSinkBolt(std::atomic<int>* at_final_tick)
      : at_final_tick_(at_final_tick) {}
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)input;
    (void)source;
    (void)out;
    ++executed_;
  }
  void Tick(OutputCollector& out) override {
    (void)out;
    at_final_tick_->store(executed_);  // the last Tick wins
  }

 private:
  std::atomic<int>* at_final_tick_;
  int executed_ = 0;
};

TEST(LocalClusterRunsTest, FinalTickEmitsArriveBeforeEos) {
  // BufferingBolt holds 200 keys and emits them all from its final Tick:
  // full runs and a partial one, buffered when it sends EOS.
  std::atomic<int> at_final_tick{-1};
  TopologyBuilder b("final_tick");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1000, 200); });
  b.SetBolt("buffer", [] { return std::make_unique<BufferingBolt>(); })
      .FieldsGrouping("spout", {"key"});
  b.SetBolt("count",
            [&at_final_tick] {
              return std::make_unique<CountingSinkBolt>(&at_final_tick);
            })
      .ShuffleGrouping("buffer", "sums");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(at_final_tick.load(), 200);
}

/// Forwards each input with its own instance id appended.
class TagBolt : public IBolt {
 public:
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"tagged", {"key", "value", "tag"}}};
  }
  void Prepare(const TaskContext& ctx) override { instance_ = ctx.instance; }
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    out.Emit(Tuple::Of({input.GetInt(0), input.GetInt(1),
                        static_cast<int64_t>(instance_)}));
  }

 private:
  int instance_ = 0;
};

TEST(LocalClusterRunsTest, FanOutChainAtCapacityOneDeliversExactlyOnce) {
  // spout -fields-> a (x2) -all-> b (x3) -fields-> sink (x2), every queue
  // holding one envelope: each run waits for an empty queue.
  Sink sink;
  TopologyBuilder b("fanout");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(3000, 16, 256); });
  b.SetBolt("a", [] { return std::make_unique<TagBolt>(); }, 2)
      .FieldsGrouping("spout", {"key"});
  b.SetBolt("b", [] { return std::make_unique<TagBolt>(); }, 3)
      .AllGrouping("a");
  b.SetBolt("sink", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            2)
      .FieldsGrouping("b", {"key"});
  auto spec = std::move(b).Build();
  ASSERT_TRUE(spec.ok());
  LocalCluster::Options options;
  options.queue_capacity = 1;
  auto cluster = LocalCluster::Create(std::move(spec).value(), options);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  ASSERT_EQ(sink.tuples.size(), 9000u);
  std::set<std::pair<int64_t, int64_t>> seen;  // (value, b's instance)
  for (const auto& [inst, t] : sink.tuples) {
    EXPECT_TRUE(seen.emplace(t.GetInt(1), t.GetInt(2)).second)
        << "value " << t.GetInt(1) << " via b" << t.GetInt(2) << " twice";
  }
  EXPECT_EQ(seen.size(), 9000u);
}

/// The tuple emitted for sequence number `seq`: five or two fields, in
/// stretches and interleaved, with strings past the small-string buffer and
/// types that change per position, so refilled slots change shape.
Tuple ShapeFor(int64_t seq) {
  const bool wide = (seq / 100) % 2 == 0 ? seq % 7 != 3 : seq % 5 == 0;
  const std::string long_text(20 + seq % 40, static_cast<char>('a' + seq % 26));
  if (wide) {
    return Tuple::Of({seq, 0.5 * static_cast<double>(seq), long_text,
                      std::string(seq % 3 == 0 ? "s" : "short"), seq * 3});
  }
  return Tuple::Of({seq, seq % 2 == 0 ? Value(long_text) : Value(seq * 7)});
}

class ShapeSpout : public ISpout {
 public:
  explicit ShapeSpout(int64_t n) : n_(n) {}
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"shapes", {"seq"}}};
  }
  bool NextBatch(OutputCollector& out) override {
    for (int i = 0; i < 97 && next_ < n_; ++i) out.Emit(ShapeFor(next_++));
    return next_ < n_;
  }

 private:
  int64_t n_;
  int64_t next_ = 0;
};

/// Compares every input with ShapeFor(its seq), field by field, and
/// records the seqs in arrival order (one instance; read after Run()).
class ShapeCheckBolt : public IBolt {
 public:
  ShapeCheckBolt(std::vector<int64_t>* seqs, int* mismatched)
      : seqs_(seqs), mismatched_(mismatched) {}
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    (void)out;
    const Tuple want = ShapeFor(input.GetInt(0));
    if (input.size() != want.size() || input.values() != want.values()) {
      ++*mismatched_;
    }
    seqs_->push_back(input.GetInt(0));
  }

 private:
  std::vector<int64_t>* seqs_;
  int* mismatched_;
};

TEST(LocalClusterRunsTest, RefilledSlotsCarryExactSizeAndValues) {
  std::vector<int64_t> seqs;
  int mismatched = 0;
  TopologyBuilder b("shapes");
  b.SetSpout("spout", [] { return std::make_unique<ShapeSpout>(5000); });
  b.SetBolt("check",
            [&seqs, &mismatched] {
              return std::make_unique<ShapeCheckBolt>(&seqs, &mismatched);
            })
      .ShuffleGrouping("spout");
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(mismatched, 0);
  // Every slot carried the tuple emitted into it, not an earlier fill's.
  ASSERT_EQ(seqs.size(), 5000u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], static_cast<int64_t>(i));
  }
}

/// Buffers values and emits them on Tick. The instance that sees value
/// `trigger` asks the cluster to restart this bolt; `first_after` records
/// the first value a restarted instance executes.
class RestartingBufferBolt : public IBolt {
 public:
  RestartingBufferBolt(LocalCluster** cluster, int64_t trigger,
                       std::atomic<int>* prepares,
                       std::atomic<int64_t>* first_after)
      : cluster_(cluster),
        trigger_(trigger),
        prepares_(prepares),
        first_after_(first_after) {}
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"values", {"key", "value"}}};
  }
  void Prepare(const TaskContext& ctx) override {
    (void)ctx;
    restarted_ = prepares_->fetch_add(1) > 0;
  }
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    (void)out;
    const int64_t v = input.GetInt(1);
    if (restarted_ && first_after_->load() < 0) first_after_->store(v);
    buffer_.push_back(v);
    if (v == trigger_) {
      EXPECT_TRUE((*cluster_)->RequestRestart("mid").ok());
    }
  }
  void Tick(OutputCollector& out) override {
    for (int64_t v : buffer_) out.Emit(Tuple::Of({v % 8, v}));
    buffer_.clear();
  }

 private:
  LocalCluster** cluster_;
  int64_t trigger_;
  std::atomic<int>* prepares_;
  std::atomic<int64_t>* first_after_;
  bool restarted_ = false;
  std::vector<int64_t> buffer_;
};

TEST(LocalClusterRunsTest, RestartMidRunLosesAndDuplicatesNothing) {
  // One spout batch of 256 reaches "mid" as full runs; value 100 is not
  // the first of its run.
  Sink sink;
  std::atomic<int> prepares{0};
  std::atomic<int64_t> first_after{-1};
  LocalCluster* raw = nullptr;
  TopologyBuilder b("restart_mid_run");
  b.SetSpout("spout", [] { return std::make_unique<IntSpout>(1000, 8, 256); });
  b.SetBolt("mid",
            [&] {
              return std::make_unique<RestartingBufferBolt>(
                  &raw, 100, &prepares, &first_after);
            })
      .FieldsGrouping("spout", {"key"});
  b.SetBolt("sink", [&sink] { return std::make_unique<CollectBolt>(&sink); },
            2)
      .FieldsGrouping("mid", {"key"});
  auto cluster = LocalCluster::Create(MustBuild(std::move(b)));
  ASSERT_TRUE(cluster.ok());
  raw = cluster->get();
  ASSERT_TRUE((*cluster)->Run().ok());
  EXPECT_EQ(prepares.load(), 2);
  EXPECT_EQ(first_after.load(), 101);  // the restart landed mid-run
  ASSERT_EQ(sink.tuples.size(), 1000u);
  std::set<int64_t> values;
  for (const auto& [inst, t] : sink.tuples) values.insert(t.GetInt(1));
  EXPECT_EQ(values.size(), 1000u);
  for (const auto& m : (*cluster)->Metrics()) {
    if (m.component == "mid") {
      EXPECT_EQ(m.restarts, 1u);
      EXPECT_EQ(m.tuples_executed, 1000u);
    }
  }
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
