#ifndef TENCENTREC_TSTORM_CLUSTER_H_
#define TENCENTREC_TSTORM_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "tstorm/component.h"
#include "tstorm/topology.h"

namespace tencentrec::tstorm {

/// Live liveness view of one component, summed over instances: `progress`
/// is a monotone heartbeat that advances by one per envelope any instance
/// pops (bolts; a run's envelopes count when the run is popped) or per
/// NextBatch (spouts); `backlog` is the current depth of the instances'
/// input queues, in envelopes. A watchdog samples rows while
/// Run() is in flight: unchanged progress with nonzero backlog means the
/// component is stuck, not idle.
struct ComponentWatch {
  std::string component;
  bool is_spout = false;
  uint64_t progress = 0;
  uint64_t backlog = 0;
};

/// Per-component execution counters, summed over instances.
struct ComponentMetrics {
  std::string component;
  uint64_t tuples_executed = 0;  ///< tuples consumed (bolts only)
  uint64_t tuples_emitted = 0;
  uint64_t restarts = 0;
  /// Wall time spent inside Execute/NextBatch/Tick, summed over instances;
  /// busy_micros / tuples_executed is the stage's mean per-tuple latency.
  uint64_t busy_micros = 0;
};

/// Runs a TopologySpec to completion on a pool of threads, one per task
/// (component instance), with bounded queues between tasks providing
/// backpressure. Tuples move between tasks in runs of up to 32 envelopes,
/// one lock per run on each side (DESIGN.md §17).
///
/// Lifecycle: every spout task is Open()ed before any spout pulls its
/// first batch (a spout that joins a consumer group in Open must not find
/// a sibling already reading the partitions the group is about to hand
/// it); spouts then pull until exhausted, and end-of-stream markers
/// propagate topologically; every bolt gets a final Tick() (flushing
/// combiners/caches) before Cleanup(). Run() returns when every task has
/// drained — results persisted by storage bolts (e.g. in TDStore) are then
/// complete and consistent.
///
/// Fault injection: RequestRestart() makes each instance of a bolt flush
/// its transient buffers (a final Tick — standing in for the at-least-once
/// replay a production Storm acker would provide), destroy its IBolt object
/// mid-stream, and recreate it via the factory (Prepare() runs again).
/// Because all durable state lives in TDStore, a correct bolt must produce
/// the same final state regardless of restarts; tests assert this.
class LocalCluster {
 public:
  struct Options {
    /// Envelopes (tuples) a bolt task's input queue holds before producers
    /// block; runs count by the envelopes they carry. Queue depth sets how
    /// far a bolt lags behind its siblings, so lowering it changes which
    /// pairs the CF bolts prune (DESIGN.md §17).
    size_t queue_capacity = 4096;
  };

  /// Validates the spec against the options and instantiates all tasks
  /// (factories run here, Prepare/Open do not).
  static Result<std::unique_ptr<LocalCluster>> Create(TopologySpec spec,
                                                      Options options);
  static Result<std::unique_ptr<LocalCluster>> Create(TopologySpec spec) {
    return Create(std::move(spec), Options());
  }

  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Runs the topology to completion. Single use.
  Status Run();

  /// Requests that all instances of `component` (a bolt) be torn down and
  /// recreated. Safe to call before or during Run().
  Status RequestRestart(const std::string& component);

  std::vector<ComponentMetrics> Metrics() const;

  /// Safe to call concurrently with Run() (heartbeats are atomics, queue
  /// depths take the queue locks); rows are in component declaration order.
  std::vector<ComponentWatch> WatchRows() const;

 private:
  struct Task;
  struct Route;
  class Collector;

  explicit LocalCluster(TopologySpec spec, Options options);

  Status Init();
  void RunTask(Task* task);
  void RunSpoutTask(Task* task);
  void RunBoltTask(Task* task);

  TopologySpec spec_;
  Options options_;
  std::vector<std::unique_ptr<Task>> tasks_;
  /// tasks_by_component_[c] lists task indices of component id c.
  std::vector<std::vector<int>> tasks_by_component_;
  /// routes_[c][stream_index] lists resolved consumer edges.
  std::vector<std::vector<std::vector<Route>>> routes_;
  /// Output stream declarations per component id.
  std::vector<std::vector<StreamDecl>> streams_;
  /// Counts down once per spout task after its Open(); spouts wait on it
  /// before their first NextBatch. Created by Run().
  std::unique_ptr<std::latch> spouts_open_;
  bool started_ = false;
};

}  // namespace tencentrec::tstorm

#endif  // TENCENTREC_TSTORM_CLUSTER_H_
