#ifndef TENCENTREC_TDSTORE_CLIENT_H_
#define TENCENTREC_TDSTORE_CLIENT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/status.h"
#include "tdstore/cluster.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {

/// Client-side access to a TDStore cluster: fetches the route table from
/// the config server once, then talks to data servers directly (§3.3),
/// refreshing the table and retrying when a server turns out to be down.
///
/// Keys hash onto instances; all operations on one key are served by that
/// instance's current host.
class Client {
 public:
  explicit Client(Cluster* cluster) : cluster_(cluster) {
    // All clients share the process-wide op histograms — the paper's
    // storage tier is a shared service, so per-op latency is a service
    // property, not a per-caller one. Null when metrics are disabled.
    if (MetricsEnabled()) {
      auto& reg = MetricRegistry::Default();
      read_us_ = reg.GetHistogram("tdstore.client.read_us");
      write_us_ = reg.GetHistogram("tdstore.client.write_us");
      batch_read_us_ = reg.GetHistogram("tdstore.client.batch_read_us");
      batch_write_us_ = reg.GetHistogram("tdstore.client.batch_write_us");
      point_ops_ = reg.GetCounter("tdstore.client.point_ops");
      batch_ops_ = reg.GetCounter("tdstore.client.batch_ops");
      batch_keys_ = reg.GetCounter("tdstore.client.batch_keys");
      host_batches_ = reg.GetCounter("tdstore.client.host_batches");
      ops_ = reg.GetCounter("tdstore.client.ops");
      errors_ = reg.GetCounter("tdstore.client.errors");
    }
  }

  Status Put(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key);
  Status Delete(std::string_view key);

  /// Atomic add on a double-encoded value; missing key counts as 0.
  Result<double> IncrDouble(std::string_view key, double delta);

  Status PutDouble(std::string_view key, double value) {
    return Put(key, EncodeDouble(value));
  }
  /// Missing key decodes as `fallback` (counters default to zero).
  Result<double> GetDouble(std::string_view key, double fallback = 0.0);

  /// Batched ops. Keys are grouped by instance, instances by current host,
  /// and each host gets ONE call for its whole share; results are stitched
  /// back into input order. On an Unavailable host the affected sub-batch
  /// (and only it) is retried once after a route refresh, re-grouped against
  /// the new placement. `out` gets exactly one entry per input (per-key
  /// statuses — one failed key never discards its siblings' results). The
  /// returned Status is non-OK only when no route table can be obtained.
  ///
  /// Same-key ops in one batch apply in input order on the server, so
  /// batched increments are bit-identical to the equivalent point-op
  /// sequence.
  Status MultiGetBatch(const std::vector<std::string>& keys,
                       std::vector<Result<std::string>>* out);
  /// Keys and values are views; the server copies them once, into its op
  /// record, so a caller that owns the strings ships them without copying.
  Status MultiPut(
      const std::vector<std::pair<std::string_view, std::string_view>>& kvs,
      std::vector<Status>* out);
  Status MultiIncrDouble(const std::vector<std::pair<std::string, double>>& adds,
                         std::vector<Result<double>>* out);
  /// Batched GetDouble: missing keys decode as `fallback`.
  Status MultiGetDouble(const std::vector<std::string>& keys, double fallback,
                        std::vector<Result<double>>* out);

  /// Visits every live key with `prefix` across all instances.
  Status ScanPrefix(std::string_view prefix,
                    const std::function<bool(std::string_view,
                                             std::string_view)>& visitor);

  /// Route-table refreshes performed (observability for tests).
  int64_t route_refreshes() const { return route_refreshes_; }

 private:
  Status EnsureRoute();
  Status RefreshRoute();
  /// The one body of the point ops: latency timer, span and point counter
  /// around `op(host, instance_id)` against the host of `key`'s instance,
  /// refreshing the route and retrying once if the host is unavailable; the
  /// final outcome feeds CountOp.
  template <typename Op>
  auto PointOp(LatencyHistogram* latency, std::string_view span_name,
               std::string_view key, Op op) -> decltype(op(nullptr, 0));
  /// Shared grouped-dispatch skeleton behind the Multi* ops; see their
  /// contract above. `key_of(i)` names input i for routing, `make_item(i,
  /// instance_id)` builds the server-side batch item, `dispatch(host, items,
  /// batch_out)` performs one host call.
  template <typename KeyOf, typename MakeItem, typename Dispatch,
            typename OutT>
  Status GroupedDispatch(size_t n, KeyOf key_of, MakeItem make_item,
                         Dispatch dispatch, std::vector<OutT>* out);

  Cluster* cluster_;
  RouteTable route_;
  bool have_route_ = false;
  int64_t route_refreshes_ = 0;
  LatencyHistogram* read_us_ = nullptr;
  LatencyHistogram* write_us_ = nullptr;
  LatencyHistogram* batch_read_us_ = nullptr;
  LatencyHistogram* batch_write_us_ = nullptr;
  /// Counts one key-level operation outcome into ops_/errors_ — the
  /// numerator/denominator pair behind the store-error-rate SLO. NotFound
  /// is a valid answer, not an error.
  void CountOp(const Status& s) {
    if (ops_ == nullptr) return;
    ops_->Add();
    if (!s.ok() && !s.IsNotFound() && errors_ != nullptr) errors_->Add();
  }

  Counter* point_ops_ = nullptr;
  Counter* batch_ops_ = nullptr;    ///< logical Multi* calls
  Counter* batch_keys_ = nullptr;   ///< items carried by those calls
  Counter* host_batches_ = nullptr; ///< per-host server calls dispatched
  Counter* ops_ = nullptr;          ///< key-level operations completed
  Counter* errors_ = nullptr;       ///< of those, non-NotFound failures
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_CLIENT_H_
