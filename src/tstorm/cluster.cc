#include "tstorm/cluster.h"

#include <chrono>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stage.h"

namespace tencentrec::tstorm {

namespace {

/// What travels between tasks. `eos` marks the end of one upstream task's
/// output; a consumer finishes after hearing EOS from every upstream task.
struct Envelope {
  Tuple tuple;
  TupleSource source;
  bool eos = false;
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// A resolved subscription edge from one producer stream to one consumer
/// component.
struct LocalCluster::Route {
  int consumer_component = -1;
  GroupingType grouping = GroupingType::kShuffle;
  std::vector<int> field_indices;  ///< for kFields
};

/// One running instance of a component.
struct LocalCluster::Task {
  int component_id = -1;
  int instance = 0;
  bool is_spout = false;
  std::unique_ptr<ISpout> spout;
  std::unique_ptr<IBolt> bolt;
  std::unique_ptr<BoundedQueue<Envelope>> input;  ///< bolts only
  int expected_eos = 0;
  int tick_interval = 0;

  std::thread thread;
  std::atomic<bool> restart_requested{false};

  /// Liveness heartbeat for the stall watchdog: bumped (relaxed) once per
  /// popped envelope / spout batch, readable mid-run. Kept separate from
  /// the plain counters below so those stay single-writer non-atomics.
  std::atomic<uint64_t> heartbeat{0};

  // Counters are written only by this task's thread; read after Run().
  uint64_t executed = 0;
  uint64_t emitted = 0;
  uint64_t restarts = 0;
  uint64_t busy_micros = 0;

  // Per-route round-robin cursors for shuffle grouping (indexed in the same
  // order the collector walks routes: stable per stream).
  std::vector<uint64_t> shuffle_cursors;
};

/// Routes emitted tuples to consumer task queues according to groupings.
class LocalCluster::Collector : public OutputCollector {
 public:
  Collector(LocalCluster* cluster, Task* task)
      : cluster_(cluster), task_(task) {}

  void Emit(Tuple tuple) override { EmitTo(0, std::move(tuple)); }

  void EmitTo(int stream_index, Tuple tuple) override {
    ++task_->emitted;
    const auto& stream_routes = cluster_->routes_[task_->component_id];
    TR_CHECK(stream_index >= 0 &&
             stream_index < static_cast<int>(stream_routes.size()));
    const std::vector<Route>& routes = stream_routes[stream_index];
    if (routes.empty()) return;  // no subscribers

    TupleSource src{task_->component_id, stream_index, task_->instance};
    for (size_t r = 0; r < routes.size(); ++r) {
      const Route& route = routes[r];
      const std::vector<int>& consumer_tasks =
          cluster_->tasks_by_component_[route.consumer_component];
      switch (route.grouping) {
        case GroupingType::kShuffle: {
          uint64_t cursor_key = Key(stream_index, r);
          if (task_->shuffle_cursors.size() <= cursor_key) {
            task_->shuffle_cursors.resize(cursor_key + 1, 0);
          }
          uint64_t c = task_->shuffle_cursors[cursor_key]++;
          Deliver(consumer_tasks[c % consumer_tasks.size()],
                  {tuple, src, false});
          break;
        }
        case GroupingType::kFields: {
          uint64_t h = 0;
          for (int fi : route.field_indices) {
            TR_CHECK(fi < static_cast<int>(tuple.size()));
            h = HashCombine(h, HashValue(tuple.at(static_cast<size_t>(fi))));
          }
          Deliver(consumer_tasks[h % consumer_tasks.size()],
                  {tuple, src, false});
          break;
        }
        case GroupingType::kGlobal:
          Deliver(consumer_tasks[0], {tuple, src, false});
          break;
        case GroupingType::kAll:
          for (int t : consumer_tasks) Deliver(t, {tuple, src, false});
          break;
      }
    }
  }

 private:
  static uint64_t Key(int stream_index, size_t route) {
    // Streams and routes are both small; 16 bits each is ample.
    return (static_cast<uint64_t>(stream_index) << 16) | route;
  }

  void Deliver(int task_index, Envelope env) {
    cluster_->tasks_[static_cast<size_t>(task_index)]->input->Push(
        std::move(env));
  }

  LocalCluster* cluster_;
  Task* task_;
};

LocalCluster::LocalCluster(TopologySpec spec, Options options)
    : spec_(std::move(spec)), options_(options) {}

LocalCluster::~LocalCluster() {
  for (auto& t : tasks_) {
    if (t->thread.joinable()) t->thread.join();
  }
}

Result<std::unique_ptr<LocalCluster>> LocalCluster::Create(TopologySpec spec,
                                                           Options options) {
  std::unique_ptr<LocalCluster> cluster(
      new LocalCluster(std::move(spec), options));
  Status s = cluster->Init();
  if (!s.ok()) return s;
  return cluster;
}

Status LocalCluster::Init() {
  const int num_components = static_cast<int>(spec_.components.size());
  tasks_by_component_.resize(static_cast<size_t>(num_components));
  streams_.resize(static_cast<size_t>(num_components));
  routes_.resize(static_cast<size_t>(num_components));

  // Instantiate every task; record stream declarations from instance 0.
  for (int c = 0; c < num_components; ++c) {
    const auto& comp = spec_.components[static_cast<size_t>(c)];
    for (int i = 0; i < comp.parallelism; ++i) {
      auto task = std::make_unique<Task>();
      task->component_id = c;
      task->instance = i;
      task->is_spout = comp.is_spout;
      task->tick_interval = comp.tick_interval;
      if (comp.is_spout) {
        task->spout = comp.spout_factory();
        if (i == 0) streams_[static_cast<size_t>(c)] = task->spout->DeclareOutputs();
      } else {
        task->bolt = comp.bolt_factory();
        task->input =
            std::make_unique<BoundedQueue<Envelope>>(options_.queue_capacity);
        if (i == 0) streams_[static_cast<size_t>(c)] = task->bolt->DeclareOutputs();
      }
      tasks_by_component_[static_cast<size_t>(c)].push_back(
          static_cast<int>(tasks_.size()));
      tasks_.push_back(std::move(task));
    }
    routes_[static_cast<size_t>(c)].resize(
        std::max<size_t>(1, streams_[static_cast<size_t>(c)].size()));
  }

  // Resolve edges: stream names -> indices, field names -> field indices.
  for (const auto& edge : spec_.edges) {
    int producer = -1, consumer = -1;
    for (int c = 0; c < num_components; ++c) {
      if (spec_.components[static_cast<size_t>(c)].name == edge.producer) producer = c;
      if (spec_.components[static_cast<size_t>(c)].name == edge.consumer) consumer = c;
    }
    TR_CHECK(producer >= 0 && consumer >= 0);  // validated by builder

    const auto& decls = streams_[static_cast<size_t>(producer)];
    if (decls.empty()) {
      return Status::InvalidArgument("component " + edge.producer +
                                     " declares no output streams");
    }
    int stream_index = -1;
    if (edge.stream.empty()) {
      stream_index = 0;
    } else {
      for (size_t s = 0; s < decls.size(); ++s) {
        if (decls[s].name == edge.stream) {
          stream_index = static_cast<int>(s);
          break;
        }
      }
      if (stream_index < 0) {
        return Status::InvalidArgument("unknown stream '" + edge.stream +
                                       "' on " + edge.producer);
      }
    }

    Route route;
    route.consumer_component = consumer;
    route.grouping = edge.grouping.type;
    if (edge.grouping.type == GroupingType::kFields) {
      const auto& fields = decls[static_cast<size_t>(stream_index)].fields;
      for (const auto& fname : edge.grouping.fields) {
        int fi = -1;
        for (size_t f = 0; f < fields.size(); ++f) {
          if (fields[f] == fname) {
            fi = static_cast<int>(f);
            break;
          }
        }
        if (fi < 0) {
          return Status::InvalidArgument("unknown field '" + fname +
                                         "' on stream '" +
                                         decls[static_cast<size_t>(stream_index)].name +
                                         "' of " + edge.producer);
        }
        route.field_indices.push_back(fi);
      }
    }
    routes_[static_cast<size_t>(producer)][static_cast<size_t>(stream_index)]
        .push_back(route);
  }

  // Expected EOS per consumer task: one per upstream task of each distinct
  // producer component feeding it (EOS is broadcast to all instances).
  for (int c = 0; c < num_components; ++c) {
    std::set<int> producers;
    for (const auto& edge : spec_.edges) {
      if (edge.consumer != spec_.components[static_cast<size_t>(c)].name) continue;
      for (int p = 0; p < num_components; ++p) {
        if (spec_.components[static_cast<size_t>(p)].name == edge.producer) {
          producers.insert(p);
        }
      }
    }
    int expected = 0;
    for (int p : producers) {
      expected += spec_.components[static_cast<size_t>(p)].parallelism;
    }
    for (int t : tasks_by_component_[static_cast<size_t>(c)]) {
      tasks_[static_cast<size_t>(t)]->expected_eos = expected;
    }
    if (!spec_.components[static_cast<size_t>(c)].is_spout && expected == 0) {
      return Status::InvalidArgument(
          "bolt " + spec_.components[static_cast<size_t>(c)].name +
          " has no input streams");
    }
  }
  return Status::OK();
}

void LocalCluster::BroadcastEos(Task* task) {
  const auto& stream_routes = routes_[static_cast<size_t>(task->component_id)];
  std::set<int> consumers;
  for (const auto& per_stream : stream_routes) {
    for (const auto& route : per_stream) {
      consumers.insert(route.consumer_component);
    }
  }
  TupleSource src{task->component_id, 0, task->instance};
  for (int c : consumers) {
    for (int t : tasks_by_component_[static_cast<size_t>(c)]) {
      tasks_[static_cast<size_t>(t)]->input->Push({Tuple(), src, true});
    }
  }
}

void LocalCluster::RunSpoutTask(Task* task) {
  TaskContext ctx;
  ctx.component_name = spec_.components[static_cast<size_t>(task->component_id)].name;
  ctx.component_id = task->component_id;
  ctx.instance = task->instance;
  ctx.parallelism =
      spec_.components[static_cast<size_t>(task->component_id)].parallelism;
  RegisterStageThread("spout." + ctx.component_name);

  Collector collector(this, task);
  task->spout->Open(ctx);
  spouts_open_->arrive_and_wait();
  for (;;) {
    const uint64_t t0 = NowMicros();
    const bool more = task->spout->NextBatch(collector);
    task->busy_micros += NowMicros() - t0;
    task->heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (!more) break;
  }
  task->spout->Close();
  BroadcastEos(task);
}

void LocalCluster::RunBoltTask(Task* task) {
  const auto& comp = spec_.components[static_cast<size_t>(task->component_id)];
  TaskContext ctx;
  ctx.component_name = comp.name;
  ctx.component_id = task->component_id;
  ctx.instance = task->instance;
  ctx.parallelism = comp.parallelism;
  RegisterStageThread("bolt." + ctx.component_name);

  Collector collector(this, task);
  task->bolt->Prepare(ctx);

  int eos_seen = 0;
  uint64_t since_tick = 0;
  while (eos_seen < task->expected_eos) {
    if (task->restart_requested.exchange(false)) {
      // Simulated supervised worker restart: flush transient buffers (in
      // production, Storm's at-least-once replay covers tuples a crashed
      // combiner had buffered; this engine is acker-less, so the supervisor
      // drains instead), then lose the bolt object and recover the way
      // Storm does — a fresh instance re-Prepared against durable state.
      // Tick + Cleanup mirrors the end-of-task sequence below: Tick drains
      // combiners, Cleanup ships write-behind ops still staged on the batch
      // writer — both must reach the store before the replacement instance
      // re-reads it.
      task->bolt->Tick(collector);
      task->bolt->Cleanup();
      task->bolt.reset();
      task->bolt = comp.bolt_factory();
      task->bolt->Prepare(ctx);
      ++task->restarts;
    }
    std::optional<Envelope> env = task->input->Pop();
    if (!env.has_value()) break;  // queue closed (cluster teardown)
    task->heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (env->eos) {
      ++eos_seen;
      continue;
    }
    ++task->executed;
    const uint64_t t0 = NowMicros();
    task->bolt->Execute(env->tuple, env->source, collector);
    if (task->tick_interval > 0 &&
        ++since_tick >= static_cast<uint64_t>(task->tick_interval)) {
      since_tick = 0;
      task->bolt->Tick(collector);
    }
    task->busy_micros += NowMicros() - t0;
  }
  // Final flush before declaring this task's output finished.
  task->bolt->Tick(collector);
  task->bolt->Cleanup();
  BroadcastEos(task);
}

void LocalCluster::RunTask(Task* task) {
  if (task->is_spout) {
    RunSpoutTask(task);
  } else {
    RunBoltTask(task);
  }
}

Status LocalCluster::Run() {
  if (started_) return Status::FailedPrecondition("cluster already ran");
  started_ = true;

  std::ptrdiff_t spouts = 0;
  for (const auto& t : tasks_) spouts += t->is_spout ? 1 : 0;
  spouts_open_ = std::make_unique<std::latch>(spouts);
  // Start bolts first so spout emissions always find live consumers.
  for (auto& t : tasks_) {
    if (!t->is_spout) {
      t->thread = std::thread([this, task = t.get()] { RunTask(task); });
    }
  }
  for (auto& t : tasks_) {
    if (t->is_spout) {
      t->thread = std::thread([this, task = t.get()] { RunTask(task); });
    }
  }
  for (auto& t : tasks_) {
    t->thread.join();
  }
  return Status::OK();
}

Status LocalCluster::RequestRestart(const std::string& component) {
  for (size_t c = 0; c < spec_.components.size(); ++c) {
    if (spec_.components[c].name != component) continue;
    if (spec_.components[c].is_spout) {
      return Status::InvalidArgument("cannot restart a spout: " + component);
    }
    for (int t : tasks_by_component_[c]) {
      tasks_[static_cast<size_t>(t)]->restart_requested.store(true);
    }
    return Status::OK();
  }
  return Status::NotFound("no such component: " + component);
}

std::vector<ComponentMetrics> LocalCluster::Metrics() const {
  std::vector<ComponentMetrics> out;
  for (size_t c = 0; c < spec_.components.size(); ++c) {
    ComponentMetrics m;
    m.component = spec_.components[c].name;
    for (int t : tasks_by_component_[c]) {
      const Task& task = *tasks_[static_cast<size_t>(t)];
      m.tuples_executed += task.executed;
      m.tuples_emitted += task.emitted;
      m.restarts += task.restarts;
      m.busy_micros += task.busy_micros;
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<ComponentWatch> LocalCluster::WatchRows() const {
  std::vector<ComponentWatch> out;
  for (size_t c = 0; c < spec_.components.size(); ++c) {
    ComponentWatch w;
    w.component = spec_.components[c].name;
    w.is_spout = spec_.components[c].is_spout;
    for (int t : tasks_by_component_[c]) {
      const Task& task = *tasks_[static_cast<size_t>(t)];
      w.progress += task.heartbeat.load(std::memory_order_relaxed);
      if (task.input != nullptr) w.backlog += task.input->size();
    }
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace tencentrec::tstorm
