// Microbenchmarks: the tstorm stream engine — tuple throughput through a
// spout -> bolt topology as bolt parallelism and grouping vary, and through
// a topology shaped like the app's (spout -> user-grouped bolt -> 3-stream
// fields-grouped fan-out), with context switches per tuple.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>

#include "tstorm/cluster.h"
#include "tstorm/topology.h"

namespace {

using namespace tencentrec::tstorm;

class CountSpout : public ISpout {
 public:
  explicit CountSpout(int64_t n) : n_(n) {}
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"ints", {"key", "value"}}};
  }
  bool NextBatch(OutputCollector& out) override {
    for (int i = 0; i < 256 && next_ < n_; ++i, ++next_) {
      out.Emit(Tuple::Of({next_ % 64, next_}));
    }
    return next_ < n_;
  }

 private:
  int64_t n_;
  int64_t next_ = 0;
};

class SinkBolt : public IBolt {
 public:
  explicit SinkBolt(std::atomic<int64_t>* sink) : sink_(sink) {}
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    (void)out;
    sink_->fetch_add(input.GetInt(1), std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t>* sink_;
};

void BM_TopologyThroughput(benchmark::State& state) {
  const int parallelism = static_cast<int>(state.range(0));
  const bool fields = state.range(1) != 0;
  const int64_t tuples = 20000;
  for (auto _ : state) {
    std::atomic<int64_t> sink{0};
    TopologyBuilder builder("bench");
    builder.SetSpout("spout",
                     [tuples] { return std::make_unique<CountSpout>(tuples); });
    auto cfg = builder.SetBolt(
        "sink", [&sink] { return std::make_unique<SinkBolt>(&sink); },
        parallelism);
    if (fields) {
      cfg.FieldsGrouping("spout", {"key"});
    } else {
      cfg.ShuffleGrouping("spout");
    }
    auto spec = std::move(builder).Build();
    auto cluster = LocalCluster::Create(std::move(spec).value());
    benchmark::DoNotOptimize((*cluster)->Run());
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
// UseRealTime: the work happens on the topology's own threads, so CPU time
// of the driving thread would wildly overstate throughput.
BENCHMARK(BM_TopologyThroughput)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"bolts", "fields"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Emits `n` actions {user, item, group} from seeded integers.
class ActionSpout : public ISpout {
 public:
  explicit ActionSpout(int64_t n) : n_(n) {}
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"actions", {"user", "item", "group"}}};
  }
  bool NextBatch(OutputCollector& out) override {
    for (int i = 0; i < 256 && next_ < n_; ++i, ++next_) {
      const int64_t h = next_ * 2654435761 % 1000003;
      out.Emit(Tuple::Of({h % 5000, h % 997, h % 13}));
    }
    return next_ < n_;
  }

 private:
  int64_t n_;
  int64_t next_ = 0;
};

/// Stands in for user_history: per action, one item delta, `kPairs` pair
/// deltas against the user's previous items and one group delta, each on
/// its own stream.
class HistoryBolt : public IBolt {
 public:
  static constexpr int kPairs = 4;
  std::vector<StreamDecl> DeclareOutputs() const override {
    return {{"item_delta", {"item", "delta"}},
            {"pair_delta", {"lo", "hi", "delta"}},
            {"group_delta", {"group", "item", "delta"}}};
  }
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    const int64_t item = input.GetInt(1);
    out.EmitTo(0, Tuple::Of({item, 1.0}));
    for (int k = 1; k <= kPairs; ++k) {
      const int64_t other = (item + 31 * k) % 997;
      out.EmitTo(1, Tuple::Of({std::min(item, other), std::max(item, other),
                               1.0}));
    }
    out.EmitTo(2, Tuple::Of({input.GetInt(2), item, 1.0}));
  }
};

class SumBolt : public IBolt {
 public:
  explicit SumBolt(std::atomic<int64_t>* sink) : sink_(sink) {}
  void Execute(const Tuple& input, const TupleSource& source,
               OutputCollector& out) override {
    (void)source;
    (void)out;
    sink_->fetch_add(input.GetInt(0), std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t>* sink_;
};

int64_t ContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);  // every thread of the process
  return ru.ru_nvcsw + ru.ru_nivcsw;
}

void BM_AppShapedTopology(benchmark::State& state) {
  const int64_t actions = 20000;
  const int p = 2;
  // Spout emits plus the history bolt's 1 + kPairs + 1 per action.
  const int64_t tuples = actions * (2 + HistoryBolt::kPairs + 1);
  int64_t switches = 0;
  for (auto _ : state) {
    std::atomic<int64_t> sink{0};
    TopologyBuilder builder("app_shaped");
    builder.SetSpout("spout",
                     [actions] { return std::make_unique<ActionSpout>(actions); });
    builder.SetBolt("history", [] { return std::make_unique<HistoryBolt>(); },
                    p)
        .FieldsGrouping("spout", {"user"});
    builder
        .SetBolt("item_count",
                 [&sink] { return std::make_unique<SumBolt>(&sink); }, p)
        .FieldsGrouping("history", {"item"}, "item_delta");
    builder
        .SetBolt("cf_pair", [&sink] { return std::make_unique<SumBolt>(&sink); },
                 p)
        .FieldsGrouping("history", {"lo", "hi"}, "pair_delta");
    builder
        .SetBolt("group_count",
                 [&sink] { return std::make_unique<SumBolt>(&sink); }, p)
        .FieldsGrouping("history", {"group", "item"}, "group_delta");
    auto cluster = LocalCluster::Create(std::move(builder).Build().value());
    const int64_t before = ContextSwitches();
    benchmark::DoNotOptimize((*cluster)->Run());
    switches += ContextSwitches() - before;
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
  state.counters["ctx_switches_per_tuple"] =
      static_cast<double>(switches) /
      static_cast<double>(state.iterations() * tuples);
}
BENCHMARK(BM_AppShapedTopology)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_TupleHashRouting(benchmark::State& state) {
  // Cost of hashing one tuple's key fields (the fields-grouping hot path).
  Tuple t = Tuple::Of({int64_t{123456}, std::string("user-42"), 3.14});
  uint64_t acc = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < t.size(); ++i) acc ^= HashValue(t.at(i));
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TupleHashRouting);

}  // namespace
