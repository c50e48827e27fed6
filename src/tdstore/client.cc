#include "tdstore/client.h"

#include <algorithm>

#include "common/trace.h"

namespace tencentrec::tdstore {

Status Client::RefreshRoute() {
  auto table = cluster_->config().GetRouteTable();
  if (!table.ok()) return table.status();
  route_ = std::move(table).value();
  have_route_ = true;
  ++route_refreshes_;
  return Status::OK();
}

Status Client::EnsureRoute() {
  if (have_route_) return Status::OK();
  return RefreshRoute();
}

namespace {
/// Adapts Status-returning ops to the Result-shaped PointOp contract.
struct StatusResult {
  Status status_;
  StatusResult(Status s) : status_(std::move(s)) {}  // NOLINT(implicit)
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
};
}  // namespace

// Store ops run under the caller's tuple context (published by the bolt's
// ScopedSpan), so sampled tuples get a nested store-side span with no
// signature change here.
template <typename Op>
auto Client::PointOp(LatencyHistogram* latency, std::string_view span_name,
                     std::string_view key, Op op) -> decltype(op(nullptr, 0)) {
  ScopedLatencyTimer timer(latency);
  ScopedSpan span(CurrentTraceId(), span_name);
  if (point_ops_ != nullptr) point_ops_->Add();
  auto result = [&]() -> decltype(op(nullptr, 0)) {
    Status ensure = EnsureRoute();
    if (!ensure.ok()) return ensure;
    for (int attempt = 0;; ++attempt) {
      const InstancePlacement& p = route_.PlacementOf(key);
      DataServer* host = cluster_->data_server(p.host_server);
      if (host == nullptr) return Status::Internal("route names bad server");
      auto r = op(host, p.instance_id);
      if (r.ok() || !r.status().IsUnavailable() || attempt == 1) return r;
      Status refresh = RefreshRoute();
      if (!refresh.ok()) return refresh;
    }
  }();
  CountOp(result.status());
  return result;
}

Status Client::Put(std::string_view key, std::string_view value) {
  return PointOp(write_us_, "tdstore.write", key,
                 [&](DataServer* host, int instance) -> StatusResult {
                   return host->Put(instance, key, value);
                 })
      .status();
}

Result<std::string> Client::Get(std::string_view key) {
  return PointOp(read_us_, "tdstore.read", key,
                 [&](DataServer* host, int instance) -> Result<std::string> {
                   return host->Get(instance, key);
                 });
}

Status Client::Delete(std::string_view key) {
  return PointOp(write_us_, "tdstore.write", key,
                 [&](DataServer* host, int instance) -> StatusResult {
                   return host->Delete(instance, key);
                 })
      .status();
}

Result<double> Client::IncrDouble(std::string_view key, double delta) {
  return PointOp(write_us_, "tdstore.write", key,
                 [&](DataServer* host, int instance) -> Result<double> {
                   return host->IncrDouble(instance, key, delta);
                 });
}

Result<double> Client::GetDouble(std::string_view key, double fallback) {
  auto raw = Get(key);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) return fallback;
    return raw.status();
  }
  return DecodeDouble(*raw);
}

template <typename KeyOf, typename MakeItem, typename Dispatch, typename OutT>
Status Client::GroupedDispatch(size_t n, KeyOf key_of, MakeItem make_item,
                               Dispatch dispatch, std::vector<OutT>* out) {
  TR_RETURN_IF_ERROR(EnsureRoute());
  if (batch_ops_ != nullptr) batch_ops_->Add();
  if (batch_keys_ != nullptr) batch_keys_->Add(n);
  // Each still-pending input with its current placement. Sorted by (host,
  // instance, input index): a host's share is one contiguous run, its
  // same-instance runs stay contiguous for the server's one-lock-per-run
  // processing, and same-key ops keep their input order (the bit-identical
  // increment guarantee rides on this).
  struct Routed {
    uint64_t placement = 0;  // host in the high half, instance in the low
    size_t index = 0;
    int host() const { return static_cast<int>(placement >> 32); }
    int instance() const { return static_cast<int>(placement & 0xffffffffu); }
  };
  std::vector<Routed> routed(n);
  for (size_t i = 0; i < n; ++i) routed[i].index = i;
  using Item = decltype(make_item(size_t{0}, 0));
  std::vector<Item> items;  // one host's call, reused across hosts
  items.reserve(n);
  std::vector<OutT> batch_out;
  for (int attempt = 0; attempt < 2 && !routed.empty(); ++attempt) {
    if (attempt > 0) TR_RETURN_IF_ERROR(RefreshRoute());
    for (Routed& r : routed) {
      const InstancePlacement& p = route_.PlacementOf(key_of(r.index));
      const uint64_t host = static_cast<uint32_t>(p.host_server);
      r.placement = host << 32 | static_cast<uint32_t>(p.instance_id);
    }
    std::sort(routed.begin(), routed.end(),
              [](const Routed& a, const Routed& b) {
                return a.placement != b.placement ? a.placement < b.placement
                                                  : a.index < b.index;
              });
    // Inputs to retry are compacted to the front of `routed` as they go.
    size_t retry = 0;
    for (size_t begin = 0, end = 0; begin < routed.size(); begin = end) {
      const int host_id = routed[begin].host();
      while (end < routed.size() && routed[end].host() == host_id) ++end;
      DataServer* host = cluster_->data_server(host_id);
      if (host == nullptr) return Status::Internal("route names bad server");
      items.clear();
      for (size_t k = begin; k < end; ++k) {
        items.push_back(make_item(routed[k].index, routed[k].instance()));
      }
      if (host_batches_ != nullptr) host_batches_->Add();
      Status s = dispatch(host, items, &batch_out);
      for (size_t k = begin; k < end; ++k) {
        const size_t idx = routed[k].index;
        if (s.ok()) {
          (*out)[idx] = std::move(batch_out[k - begin]);
        } else {
          // A whole-server failure (down): every item of this sub-batch
          // gets the verdict.
          (*out)[idx] = OutT(s);
        }
        if (attempt == 0 && StatusOf((*out)[idx]).IsUnavailable()) {
          routed[retry++] = routed[k];
        }
      }
    }
    routed.resize(retry);
  }
  // Final per-key verdicts feed the error-rate instruments once, after
  // retries have had their say.
  for (const OutT& o : *out) CountOp(StatusOf(o));
  return Status::OK();
}

Status Client::MultiGetBatch(const std::vector<std::string>& keys,
                             std::vector<Result<std::string>>* out) {
  ScopedLatencyTimer timer(batch_read_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.batch_read");
  out->assign(keys.size(), Result<std::string>(Status::Internal("unset")));
  return GroupedDispatch(
      keys.size(),
      [&](size_t i) -> std::string_view { return keys[i]; },
      [&](size_t i, int instance_id) {
        return BatchGet{instance_id, keys[i]};
      },
      [](DataServer* host, const std::vector<BatchGet>& items,
         std::vector<Result<std::string>>* batch_out) {
        return host->MultiGet(items, batch_out);
      },
      out);
}

Status Client::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& kvs,
    std::vector<Status>* out) {
  ScopedLatencyTimer timer(batch_write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.batch_write");
  out->assign(kvs.size(), Status::Internal("unset"));
  return GroupedDispatch(
      kvs.size(),
      [&](size_t i) { return kvs[i].first; },
      [&](size_t i, int instance_id) {
        return BatchPut{instance_id, kvs[i].first, kvs[i].second};
      },
      [](DataServer* host, const std::vector<BatchPut>& items,
         std::vector<Status>* batch_out) {
        return host->MultiPut(items, batch_out);
      },
      out);
}

Status Client::MultiIncrDouble(
    const std::vector<std::pair<std::string, double>>& adds,
    std::vector<Result<double>>* out) {
  ScopedLatencyTimer timer(batch_write_us_);
  ScopedSpan span(CurrentTraceId(), "tdstore.batch_write");
  out->assign(adds.size(), Result<double>(Status::Internal("unset")));
  return GroupedDispatch(
      adds.size(),
      [&](size_t i) -> std::string_view { return adds[i].first; },
      [&](size_t i, int instance_id) {
        return BatchIncrDouble{instance_id, adds[i].first, adds[i].second};
      },
      [](DataServer* host, const std::vector<BatchIncrDouble>& items,
         std::vector<Result<double>>* batch_out) {
        return host->MultiIncrDouble(items, batch_out);
      },
      out);
}

Status Client::MultiGetDouble(const std::vector<std::string>& keys,
                              double fallback,
                              std::vector<Result<double>>* out) {
  std::vector<Result<std::string>> raw;
  TR_RETURN_IF_ERROR(MultiGetBatch(keys, &raw));
  out->clear();
  out->reserve(raw.size());
  for (auto& r : raw) {
    if (r.ok()) {
      out->push_back(DecodeDouble(*r));
    } else if (r.status().IsNotFound()) {
      out->push_back(fallback);
    } else {
      out->push_back(r.status());
    }
  }
  return Status::OK();
}

Status Client::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor) {
  TR_RETURN_IF_ERROR(EnsureRoute());
  bool keep_going = true;
  // Copy: RefreshRoute() inside the loop would invalidate iterators into
  // route_.placements.
  const std::vector<InstancePlacement> placements = route_.placements;
  for (const auto& p : placements) {
    if (!keep_going) break;
    DataServer* host = cluster_->data_server(p.host_server);
    if (host == nullptr) return Status::Internal("route names bad server");
    Status s = host->ScanPrefix(p.instance_id, prefix,
                                [&](std::string_view k, std::string_view v) {
                                  keep_going = visitor(k, v);
                                  return keep_going;
                                });
    if (s.IsUnavailable()) {
      TR_RETURN_IF_ERROR(RefreshRoute());
      // Re-find this instance's placement by instance_id — a route table is
      // not necessarily ordered so that placements[i].instance_id == i
      // (indexing by instance_id here used to retry against the wrong
      // server's engine under permuted tables).
      const InstancePlacement* refreshed = nullptr;
      for (const auto& q : route_.placements) {
        if (q.instance_id == p.instance_id) {
          refreshed = &q;
          break;
        }
      }
      if (refreshed == nullptr) {
        return Status::Internal("instance missing from refreshed route");
      }
      DataServer* retry_host = cluster_->data_server(refreshed->host_server);
      if (retry_host == nullptr) {
        return Status::Internal("route names bad server");
      }
      s = retry_host->ScanPrefix(p.instance_id, prefix,
                                 [&](std::string_view k, std::string_view v) {
                                   keep_going = visitor(k, v);
                                   return keep_going;
                                 });
    }
    TR_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

}  // namespace tencentrec::tdstore
