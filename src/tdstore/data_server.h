#ifndef TENCENTREC_TDSTORE_DATA_SERVER_H_
#define TENCENTREC_TDSTORE_DATA_SERVER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/profiled_mutex.h"
#include "common/status.h"
#include "tdstore/engine.h"
#include "tdstore/wal.h"

namespace tencentrec::tdstore {

/// Per-item inputs for the batch entry points (and a point op's one item).
/// `instance_id` is carried per item so one server call can span every
/// instance this server hosts; the caller is expected to sort items so
/// same-instance ops are contiguous (each contiguous run is applied under
/// one lock acquisition). Keys and values view the caller's buffers, which
/// must outlive the call; the server copies only into its op record.
struct BatchGet {
  int instance_id = 0;
  std::string_view key;
};
struct BatchPut {
  int instance_id = 0;
  std::string_view key;
  std::string_view value;
};
struct BatchIncrDouble {
  int instance_id = 0;
  std::string_view key;
  double delta = 0.0;
};

/// A TDStore data server hosting multiple data instances (shards). Backup is
/// done "in the granularity of data instance" (§3.3): this server may be
/// the host of instance 3 and the slave of instance 7 simultaneously, so
/// all servers serve traffic at once.
///
/// Replication is host-driven: after an update the host passes the slave the
/// same op record it logged to its WAL — absolute post-op values, so applying
/// it is an idempotent overwrite. The slave applies it "when idle", modeled
/// as a per-instance pending queue drained by FlushReplication(), or
/// synchronously when `sync_replication` is set (the failover tests).
///
/// Every client entry point, point or batch, runs through one run loop:
/// items split into same-instance runs, each run checked for the instance
/// and the host role under the instance lock, and each run of writes
/// committed as one WAL record plus one replication record. A point op is a
/// run of one.
class DataServer {
 public:
  DataServer(int server_id, bool sync_replication)
      : server_id_(server_id), sync_replication_(sync_replication) {}

  int server_id() const { return server_id_; }

  /// Creates a local engine for `instance_id` (created as non-host; the
  /// cluster assigns roles).
  Status CreateInstance(int instance_id, const EngineOptions& options);
  bool HasInstance(int instance_id) const;

  /// Marks this server as host (or not) for `instance_id`. Client-facing
  /// operations are only served in the host role — "only the host data
  /// server provides service for a certain data instance" (§3.3); a stale
  /// client hitting a demoted replica gets Unavailable and refreshes its
  /// route table. Replication traffic (ApplyOps) is exempt.
  Status SetHostRole(int instance_id, bool is_host);

  /// Wipes all data of a local instance (admin path used when re-seeding a
  /// recovered replica).
  Status ClearInstance(int instance_id);

  /// Points the host-side replication of `instance_id` at `slave` (nullptr
  /// to stop replicating).
  Status SetSlave(int instance_id, DataServer* slave);

  /// Drops every instance's slave pointer, pending replication, and host
  /// role. Called when this server rejoins as a pure slave after recovery —
  /// its stale host-role state must neither cascade operations into live
  /// hosts nor serve client traffic.
  void ClearAllSlaves();

  Status Put(int instance_id, std::string_view key, std::string_view value);
  Result<std::string> Get(int instance_id, std::string_view key) const;
  Status Delete(int instance_id, std::string_view key);

  /// Atomic add on an 8-byte double value (missing key = 0). Returns the new
  /// value. Single-writer-per-key is the common case (field grouping), but
  /// the per-instance lock makes this safe regardless.
  Result<double> IncrDouble(int instance_id, std::string_view key,
                            double delta);

  Status ScanPrefix(int instance_id, std::string_view prefix,
                    const std::function<bool(std::string_view,
                                             std::string_view)>& visitor) const;

  /// Batch entry points. Each call counts as ONE server invocation no matter
  /// how many items it carries; contiguous same-instance item runs are
  /// applied under a single lock acquisition and replicated as one record.
  /// Items are processed strictly in input order, so same-key increments in
  /// one batch produce bit-identical values to the equivalent point-op
  /// sequence. `out` gets one entry per item (aligned by index). The overall
  /// Status is non-OK only when the whole server is down — per-item failures
  /// (wrong host, missing instance, engine errors) land in `out` without
  /// aborting the rest of the batch.
  Status MultiGet(const std::vector<BatchGet>& items,
                  std::vector<Result<std::string>>* out) const;
  Status MultiPut(const std::vector<BatchPut>& items,
                  std::vector<Status>* out);
  Status MultiIncrDouble(const std::vector<BatchIncrDouble>& items,
                         std::vector<Result<double>>* out);

  /// Drains pending replication ops for all hosted instances.
  Status FlushReplication();

  /// Number of pending (not yet replicated) ops across instances.
  size_t PendingReplication() const;

  /// The one applier: installs an op record verbatim on the local copy of
  /// `instance_id`, in any role, without logging or cascading it. Used for
  /// host→slave replication, WAL replay and re-seeding. An all-put record
  /// is moved, strings and all, into the engine's MultiPut fast path; every
  /// caller owns the record it applies.
  Status ApplyOps(int instance_id, std::vector<WalOp> ops);

  /// Copies the full content of `instance_id` into `target` through
  /// target->ApplyOps (used to re-seed a replacement slave after
  /// failover/recovery).
  Status CopyInstanceTo(int instance_id, DataServer* target) const;

  /// --- durable state (DESIGN.md §14) ---

  /// Opens this server's WAL at `dir`/server<id>.wal and arms WAL logging:
  /// from here on every host-side mutating op is appended (a Multi* run as
  /// one atomic record) in the same critical section that applies it. Call
  /// before any traffic; existing records wait in the WAL for
  /// RecoverDurable().
  Status EnableDurability(const std::string& dir, const Wal::Options& options);
  bool durability_enabled() const { return wal_ != nullptr; }

  /// Highest barrier id the WAL recovered at EnableDurability (0 = none).
  /// The cluster takes the minimum across servers as the commit point.
  uint64_t WalLastBarrier() const;

  /// Restores every local instance from its snapshot file (absent file =
  /// no checkpoint yet = start empty), truncates the WAL to `commit_barrier`
  /// (physically dropping the uncommitted suffix), and replays the surviving
  /// ops straight into the engines — bypassing replication; the cluster
  /// re-seeds slaves afterwards. Bumps store.recovery.{replayed_records,
  /// duration_us} and the store.recovery.last_barrier gauge.
  Status RecoverDurable(uint64_t commit_barrier);

  /// Appends a barrier record (always fsynced): everything before it is a
  /// consistent batch boundary recovery may stop at.
  Status AppendBarrier(uint64_t barrier_id);

  /// Snapshots every hosted (host-role) instance under ALL instance locks —
  /// one consistent cut across instances — then resets the WAL, whose
  /// records the snapshots now subsume. Slave-role copies are not
  /// checkpointed; their host's snapshot+WAL is the durable story.
  /// `barrier_id` (the last committed barrier, 0 = none yet) is re-seeded
  /// into the fresh WAL so a crash before the NEXT barrier still recovers
  /// to this one — without it, recovery would see an empty log, report
  /// barrier 0, and a resuming driver would replay batches the snapshots
  /// already contain.
  Status Checkpoint(uint64_t barrier_id);

  /// The WAL (nullptr until EnableDurability); tests poke at sync counters.
  Wal* wal() { return wal_.get(); }

  /// Failure injection: while down, all calls return Unavailable.
  void SetDown(bool down) { down_.store(down); }
  bool IsDown() const { return down_.load(); }

  /// Total keys across hosted instances.
  size_t TotalKeys() const;

  /// Operation counters: reads = items read, writes = items written, each
  /// counted once a host run accepts it. The combiner and cache ablation
  /// benches measure load with these.
  int64_t reads() const { return reads_.load(); }
  int64_t writes() const { return writes_.load(); }
  /// Client-facing entry calls: each point op and each Multi* batch counts
  /// once, regardless of how many items the batch carries. The micro_store
  /// bench asserts its ops-per-action reduction against this.
  int64_t invocations() const { return invocations_.load(); }
  void ResetCounters() {
    reads_.store(0);
    writes_.store(0);
    invocations_.store(0);
  }

 private:
  struct Instance {
    std::unique_ptr<Engine> engine;
    bool is_host = false;
    DataServer* slave = nullptr;
    /// Op records waiting for the slave (async replication), in log order.
    std::deque<std::vector<WalOp>> pending;
    /// Serializes read-modify-write (Incr) and the replication queue.
    /// Profiled (DESIGN.md §13): each Multi* batch holds it for the whole
    /// run, so this is where write-side lock time concentrates — a bolt's
    /// write-behind StoreCache itself is single-owner and lock-free by
    /// contract.
    mutable ProfiledMutex mu{"tdstore.instance"};
  };

  using InstanceLock = std::unique_lock<ProfiledMutex>;

  Instance* FindInstance(int instance_id) const;

  /// The run loop behind every client entry point. Checks the server is up,
  /// counts one invocation, and splits items [0, n) into maximal runs of
  /// equal `instance_of(k)`. For each run it finds the instance, locks it and
  /// checks the host role; a run failing either check gets that status in
  /// every `out[k]`. Otherwise it calls `run(inst, instance_id, lock, i, j)`,
  /// which fills out[i..j) and may release the lock early (point reads do),
  /// and then adds the run's length to `per_item` (when set). A non-OK
  /// status from `run` ends the call.
  template <typename InstanceOf, typename Out, typename Run>
  Status RunLoop(size_t n, InstanceOf instance_of, Out* out,
                 std::atomic<int64_t>* per_item, Run run) const;

  /// Writes over the run loop. `write(engine, item, &scratch, &value)`
  /// applies one item to the host engine and points `value` at the absolute
  /// value it left (unused for deletes). Each run's successful items become
  /// one op record, committed by CommitLocked.
  template <typename Item, typename Out, typename Write>
  Status WriteRuns(const Item* items, size_t n, bool is_delete, Out* out,
                   Write write);

  /// The commit step of a run of writes, under inst->mu after the host
  /// engine applied them: logs `ops` as one WAL record, then applies
  /// (sync) or queues (async) the same record on the slave.
  Status CommitLocked(Instance* inst, int instance_id,
                      std::vector<WalOp>&& ops);

  std::string SnapshotPath(int instance_id) const;

  const int server_id_;
  const bool sync_replication_;
  std::atomic<bool> down_{false};
  mutable std::atomic<int64_t> reads_{0};
  mutable std::atomic<int64_t> writes_{0};
  mutable std::atomic<int64_t> invocations_{0};
  mutable std::mutex map_mu_;
  std::map<int, std::unique_ptr<Instance>> instances_;
  /// Set once by EnableDurability before traffic; read lock-free after.
  std::string durable_dir_;
  std::unique_ptr<Wal> wal_;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_DATA_SERVER_H_
