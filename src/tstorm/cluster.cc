#include "tstorm/cluster.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stage.h"

namespace tencentrec::tstorm {

namespace {

/// Envelopes a producer writes into one run before it pushes the run.
constexpr size_t kRunSize = 32;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Envelope {
  Tuple tuple;
  TupleSource source;
};

struct Outbox;

/// What travels between tasks: envelopes from one producer task to one
/// consumer task, moved as a unit (DESIGN §17). Slots [0, size) are live;
/// a drained run's slots keep the storage of its last fill, and the
/// producer refills them in place, so only the producer's thread allocates
/// or frees a tuple's storage. `eos` marks the producer's last run: the
/// consumer finishes after an EOS run from every upstream task.
struct TupleRun {
  explicit TupleRun(Outbox* owner) : home(owner) {}

  Outbox* const home;
  std::vector<Envelope> slots;
  size_t size = 0;
  bool eos = false;
  /// Link in a channel's queue or in its outbox's spare stack.
  std::unique_ptr<TupleRun> next;
};

/// Frees a chain of runs one link at a time.
void FreeChain(std::unique_ptr<TupleRun> run) {
  while (run != nullptr) run = std::move(run->next);
}

/// A bolt task's input: one FIFO of runs from all its upstream tasks,
/// bounded in envelopes. A run goes in or out under one lock; a push wakes
/// the consumer only if it waits, and a pop wakes producers only if one is
/// blocked on a full queue. A drained run goes back to its outbox under the
/// same lock as the consumer's next pop.
class Channel {
 public:
  explicit Channel(size_t capacity) : capacity_(capacity) {}

  /// Queues `run` and returns a drained run of its outbox to refill, or
  /// null. Blocks while the queue holds envelopes and `run` would take it
  /// past capacity (backpressure); an empty queue takes any run, so runs
  /// pass a capacity smaller than themselves.
  std::unique_ptr<TupleRun> Push(std::unique_ptr<TupleRun> run);

  /// Gives back `drained` (the consumer's previous run, or null), then
  /// blocks until a run is queued and pops it.
  std::unique_ptr<TupleRun> Pop(std::unique_ptr<TupleRun> drained);

  /// Gives back the consumer's last run.
  void GiveBack(std::unique_ptr<TupleRun> drained) {
    std::lock_guard<std::mutex> lock(mu_);
    Recycle(std::move(drained));
  }

  /// For a producer past EOS: frees the runs `box` got back, on the
  /// caller's thread, after waiting for one if `wait` and some are out.
  /// Returns whether none is out any more.
  bool Reclaim(Outbox* box, bool wait);

  /// Envelopes queued (the watchdog's backlog).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_;
  }

 private:
  void Recycle(std::unique_ptr<TupleRun> drained);  // requires mu_

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable readable_;
  std::condition_variable writable_;
  std::condition_variable returned_;
  std::unique_ptr<TupleRun> head_;
  TupleRun* tail_ = nullptr;
  size_t queued_ = 0;  ///< envelopes in the queue
  bool consumer_waiting_ = false;
  int producers_waiting_ = 0;
};

/// One producer task's link to one consumer task: the run being filled and
/// the drained runs waiting to be refilled.
struct Outbox {
  explicit Outbox(Channel* to) : channel(to) {}

  Channel* const channel;
  /// Being filled by the producer; null after a push that found no spare.
  std::unique_ptr<TupleRun> open;
  // Guarded by the channel's lock.
  std::unique_ptr<TupleRun> spare;  ///< drained runs, handed back
  size_t out = 0;                   ///< runs pushed, not handed back yet
  bool reclaiming = false;          ///< the producer waits in Reclaim

  /// Copies one envelope into the open run's next slot, reusing the
  /// slot's storage; pushes the run when it is full.
  void Write(const Tuple& tuple, const TupleSource& source) {
    if (open == nullptr) open = std::make_unique<TupleRun>(this);
    TupleRun& run = *open;
    if (run.size < run.slots.size()) {
      Envelope& slot = run.slots[run.size];
      slot.tuple = tuple;
      slot.source = source;
    } else {
      run.slots.push_back({tuple, source});
    }
    if (++run.size == kRunSize) Send(false);
  }

  /// Pushes the open run, with `eos` set, even if it holds nothing. Slots
  /// past the run's size are freed first, so a queued run holds only live
  /// envelopes.
  void Send(bool eos) {
    if (open == nullptr) open = std::make_unique<TupleRun>(this);
    open->eos = eos;
    open->slots.resize(open->size);
    open = channel->Push(std::move(open));
  }
};

std::unique_ptr<TupleRun> Channel::Push(std::unique_ptr<TupleRun> run) {
  Outbox* const box = run->home;
  const size_t n = run->size;
  std::unique_ptr<TupleRun> refill;
  std::unique_ptr<TupleRun> surplus;
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queued_ > 0 && queued_ + n > capacity_) {
      ++producers_waiting_;
      writable_.wait(lock,
                     [&] { return queued_ == 0 || queued_ + n <= capacity_; });
      --producers_waiting_;
    }
    queued_ += n;
    ++box->out;
    TupleRun* const raw = run.get();
    if (tail_ == nullptr) {
      head_ = std::move(run);
    } else {
      tail_->next = std::move(run);
    }
    tail_ = raw;
    if (box->spare != nullptr) {
      // Refill one drained run and free the rest: a queue that backed up
      // hands back many runs once it drains.
      refill = std::move(box->spare);
      surplus = std::move(refill->next);
    }
    wake = consumer_waiting_;
  }
  if (wake) readable_.notify_one();
  FreeChain(std::move(surplus));  // on the producer's thread, unlocked
  return refill;
}

std::unique_ptr<TupleRun> Channel::Pop(std::unique_ptr<TupleRun> drained) {
  std::unique_ptr<TupleRun> run;
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Recycle(std::move(drained));
    if (head_ == nullptr) {
      consumer_waiting_ = true;
      readable_.wait(lock, [&] { return head_ != nullptr; });
      consumer_waiting_ = false;
    }
    run = std::move(head_);
    head_ = std::move(run->next);
    if (head_ == nullptr) tail_ = nullptr;
    queued_ -= run->size;
    wake = producers_waiting_ > 0;
  }
  if (wake) writable_.notify_all();
  return run;
}

bool Channel::Reclaim(Outbox* box, bool wait) {
  std::unique_ptr<TupleRun> back;
  bool done = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wait) {
      box->reclaiming = true;
      returned_.wait(lock,
                     [&] { return box->spare != nullptr || box->out == 0; });
      box->reclaiming = false;
    }
    back = std::move(box->spare);
    done = box->out == 0;
  }
  FreeChain(std::move(back));
  return done;
}

void Channel::Recycle(std::unique_ptr<TupleRun> drained) {
  if (drained == nullptr) return;
  Outbox* const box = drained->home;
  drained->size = 0;
  drained->eos = false;
  drained->next = std::move(box->spare);
  box->spare = std::move(drained);
  --box->out;
  if (box->reclaiming) returned_.notify_all();
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
  std::unique_ptr<Channel> input;  ///< bolts only
  int expected_eos = 0;
  int tick_interval = 0;

  /// One outbox per consumer task this task feeds, and the index of each
  /// consumer task's outbox by task index (-1 where it feeds none).
  std::vector<std::unique_ptr<Outbox>> outboxes;
  std::vector<int> outbox_of;

  std::thread thread;
  std::atomic<bool> restart_requested{false};

  /// Liveness heartbeat for the stall watchdog: bumped (relaxed) by the
  /// envelopes of each popped run / once per spout batch, readable mid-run.
  /// Kept separate from the plain counters below so those stay
  /// single-writer non-atomics.
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

/// Routes emitted tuples into the task's outboxes according to groupings.
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
          Deliver(consumer_tasks[c % consumer_tasks.size()], tuple, src);
          break;
        }
        case GroupingType::kFields: {
          uint64_t h = 0;
          for (int fi : route.field_indices) {
            TR_CHECK(fi < static_cast<int>(tuple.size()));
            h = HashCombine(h, HashValue(tuple.at(static_cast<size_t>(fi))));
          }
          Deliver(consumer_tasks[h % consumer_tasks.size()], tuple, src);
          break;
        }
        case GroupingType::kGlobal:
          Deliver(consumer_tasks[0], tuple, src);
          break;
        case GroupingType::kAll:
          for (int t : consumer_tasks) Deliver(t, tuple, src);
          break;
      }
    }
  }

  /// Pushes every outbox's partly filled run.
  void Flush() {
    for (auto& box : task_->outboxes) {
      if (box->open != nullptr && box->open->size > 0) box->Send(false);
    }
  }

  /// Pushes every outbox's last run, marked EOS, then frees this task's
  /// runs on its own thread as the consumers hand them back: a finished
  /// producer's runs would otherwise hold their storage until the cluster
  /// is destroyed, while the consumers are still working.
  void FinishWithEos() {
    for (auto& box : task_->outboxes) {
      box->Send(true);
      box->open.reset();
    }
    // Free what came back, then wait on one outbox with runs still out.
    Outbox* wait_on = nullptr;
    do {
      Outbox* still_out = nullptr;
      for (auto& box : task_->outboxes) {
        const bool done =
            box->channel->Reclaim(box.get(), box.get() == wait_on);
        if (!done && still_out == nullptr) still_out = box.get();
      }
      wait_on = still_out;
    } while (wait_on != nullptr);
  }

 private:
  static uint64_t Key(int stream_index, size_t route) {
    // Streams and routes are both small; 16 bits each is ample.
    return (static_cast<uint64_t>(stream_index) << 16) | route;
  }

  void Deliver(int task_index, const Tuple& tuple, const TupleSource& src) {
    const int box = task_->outbox_of[static_cast<size_t>(task_index)];
    task_->outboxes[static_cast<size_t>(box)]->Write(tuple, src);
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
        task->input = std::make_unique<Channel>(options_.queue_capacity);
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

  // One outbox per (task, consumer task) pair; EOS goes out through each.
  for (auto& task : tasks_) {
    task->outbox_of.assign(tasks_.size(), -1);
    for (const auto& per_stream :
         routes_[static_cast<size_t>(task->component_id)]) {
      for (const auto& route : per_stream) {
        for (int t : tasks_by_component_[static_cast<size_t>(
                 route.consumer_component)]) {
          int& box = task->outbox_of[static_cast<size_t>(t)];
          if (box >= 0) continue;
          box = static_cast<int>(task->outboxes.size());
          task->outboxes.push_back(std::make_unique<Outbox>(
              tasks_[static_cast<size_t>(t)]->input.get()));
        }
      }
    }
  }
  return Status::OK();
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
    collector.Flush();
  }
  task->spout->Close();
  collector.FinishWithEos();
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

  // Simulated supervised worker restart: flush transient buffers (in
  // production, Storm's at-least-once replay covers tuples a crashed
  // combiner had buffered; this engine is acker-less, so the supervisor
  // drains instead), then lose the bolt object and recover the way Storm
  // does — a fresh instance re-Prepared against durable state. Tick +
  // Cleanup mirrors the end-of-task sequence below: Tick drains combiners,
  // Cleanup ships the write-behind cache's staged puts — both must reach
  // the store before the replacement instance re-reads it. Checked before
  // each pop and each tuple, so a restart lands mid-run too.
  const auto restart_if_requested = [&] {
    if (!task->restart_requested.load(std::memory_order_relaxed) ||
        !task->restart_requested.exchange(false)) {
      return;
    }
    task->bolt->Tick(collector);
    task->bolt->Cleanup();
    task->bolt.reset();
    task->bolt = comp.bolt_factory();
    task->bolt->Prepare(ctx);
    ++task->restarts;
  };

  int eos_seen = 0;
  uint64_t since_tick = 0;
  std::unique_ptr<TupleRun> run;
  while (eos_seen < task->expected_eos) {
    restart_if_requested();
    run = task->input->Pop(std::move(run));
    task->heartbeat.fetch_add(run->size + (run->eos ? 1 : 0),
                              std::memory_order_relaxed);
    uint64_t t0 = NowMicros();
    for (size_t i = 0; i < run->size; ++i) {
      if (task->restart_requested.load(std::memory_order_relaxed)) {
        task->busy_micros += NowMicros() - t0;  // a restart is not busy time
        restart_if_requested();
        t0 = NowMicros();
      }
      const Envelope& env = run->slots[i];
      ++task->executed;
      task->bolt->Execute(env.tuple, env.source, collector);
      if (task->tick_interval > 0 &&
          ++since_tick >= static_cast<uint64_t>(task->tick_interval)) {
        since_tick = 0;
        task->bolt->Tick(collector);
      }
    }
    task->busy_micros += NowMicros() - t0;
    if (run->eos) ++eos_seen;
    collector.Flush();
  }
  task->input->GiveBack(std::move(run));
  // Final flush before declaring this task's output finished.
  task->bolt->Tick(collector);
  task->bolt->Cleanup();
  collector.FinishWithEos();
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
