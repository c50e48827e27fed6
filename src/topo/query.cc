#include "topo/query.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/ctr.h"
#include "core/itemcf/predict.h"
#include "core/itemcf/window_counts.h"
#include "topo/window_plan.h"

namespace tencentrec::topo {

std::shared_ptr<QueryCache> MakeQueryCache(const AppOptions& options) {
  QueryCache::Options copts;
  copts.capacity = options.query_cache_capacity;
  copts.ttl_micros = options.query_cache_ttl_micros;
  return std::make_shared<QueryCache>(std::move(copts));
}

StoreQuery::StoreQuery(const AppContext* app) : StoreQuery(app, nullptr) {}

StoreQuery::StoreQuery(const AppContext* app,
                       std::shared_ptr<QueryCache> cache)
    : app_(app),
      client_(std::make_unique<tdstore::Client>(app->store)),
      cache_(cache != nullptr ? std::move(cache)
                              : MakeQueryCache(app->options)) {
  if (MetricsEnabled()) {
    auto& reg = MetricRegistry::Default();
    fetch_keys_ = reg.GetHistogram("topo.query.fetch_keys");
    fetch_us_ = reg.GetHistogram("topo.query.fetch_us");
    degraded_ = reg.GetCounter("topo.query.degraded_candidates");
  }
}

void StoreQuery::Degraded() {
  if (degraded_ != nullptr) degraded_->Add();
}

Status StoreQuery::FetchMany(const std::vector<std::string>& keys,
                             std::vector<Result<std::string>>* out) {
  if (fetch_keys_ != nullptr) fetch_keys_->Record(keys.size());
  ScopedLatencyTimer timer(fetch_us_);
  return cache_->GetBatch(
      keys,
      [this](const std::vector<std::string>& k,
             std::vector<Result<std::string>>* o) {
        return client_->MultiGetBatch(k, o);
      },
      out);
}

Result<std::string> StoreQuery::FetchOne(const std::string& key) {
  std::vector<Result<std::string>> out;
  Status s = FetchMany({key}, &out);
  if (!s.ok()) return s;
  return std::move(out[0]);
}

Result<double> StoreQuery::WindowSum(
    const std::function<std::string(int64_t session)>& key_of, EventTime now) {
  WindowPlan plan(app_, now);
  const WindowPlan::Range range = plan.Add(key_of);
  std::vector<Result<std::string>> vals;
  TR_RETURN_IF_ERROR(FetchMany(plan.keys, &vals));
  return WindowPlan::SumOf(vals, range);
}

Result<core::UserHistory> StoreQuery::LoadHistory(core::UserId user) {
  auto blob = FetchOne(app_->keys.UserHistory(user));
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) return core::UserHistory();
    return blob.status();
  }
  return DecodeUserHistory(*blob);
}

Result<double> StoreQuery::WindowItemCount(core::ItemId item, EventTime now) {
  return WindowSum(
      [&](int64_t s) { return app_->keys.ItemCount(s, item); }, now);
}

Result<double> StoreQuery::WindowPairCount(core::ItemId a, core::ItemId b,
                                           EventTime now) {
  const core::ItemId lo = std::min(a, b);
  const core::ItemId hi = std::max(a, b);
  return WindowSum(
      [&](int64_t s) { return app_->keys.PairCount(s, lo, hi); }, now);
}

Result<double> StoreQuery::SimilarityFromCounts(core::ItemId a, core::ItemId b,
                                                EventTime now) {
  // Both item counts and the pair count planned as one deduped fetch.
  WindowPlan plan(app_, now);
  const auto ra =
      plan.Add([&](int64_t s) { return app_->keys.ItemCount(s, a); });
  const auto rb =
      plan.Add([&](int64_t s) { return app_->keys.ItemCount(s, b); });
  const core::ItemId lo = std::min(a, b);
  const core::ItemId hi = std::max(a, b);
  const auto rp =
      plan.Add([&](int64_t s) { return app_->keys.PairCount(s, lo, hi); });
  std::vector<Result<std::string>> vals;
  TR_RETURN_IF_ERROR(FetchMany(plan.keys, &vals));
  auto ca = WindowPlan::SumOf(vals, ra);
  if (!ca.ok()) return ca.status();
  auto cb = WindowPlan::SumOf(vals, rb);
  if (!cb.ok()) return cb.status();
  if (*ca <= 0.0 || *cb <= 0.0) return 0.0;
  auto pc = WindowPlan::SumOf(vals, rp);
  if (!pc.ok()) return pc.status();
  return core::ItemSimilarity(*pc, *ca, *cb);
}

Result<core::Recommendations> StoreQuery::RecommendCf(core::UserId user,
                                                      size_t n,
                                                      EventTime now) {
  auto history = LoadHistory(user);
  if (!history.ok()) return history.status();
  const int recent_k = app_->options.recent_k;
  const std::vector<core::ItemId> recent = history->RecentItems(
      recent_k > 0 ? static_cast<size_t>(recent_k) : history->size());
  if (recent.empty()) return core::Recommendations{};

  // Eq. 2 by the kernels' rule (core::CollectTerms, core::ScoreTerms): the
  // sim:<q> lists give the terms, and each term weighs Eq. 5 over the
  // *current* windowed counts (the "algorithm computation part reads
  // statistical data from TDStore" split of §5.1). This also heals any
  // staleness from the decoupled statistics paths — a pair whose list score
  // was computed before the itemCount combiner flushed scores correctly.
  //
  // Stage 1: every sim:<q> list in one deduped grouped read.
  std::vector<std::string> sim_keys;
  sim_keys.reserve(recent.size());
  for (core::ItemId q : recent) sim_keys.push_back(app_->keys.SimilarItems(q));
  std::vector<Result<std::string>> sim_blobs;
  TR_RETURN_IF_ERROR(FetchMany(sim_keys, &sim_blobs));
  std::vector<TopK<core::ItemId>> lists(recent.size(), TopK<core::ItemId>(0));
  for (size_t r = 0; r < recent.size(); ++r) {
    if (!sim_blobs[r].ok()) {
      if (sim_blobs[r].status().IsNotFound()) continue;
      return sim_blobs[r].status();
    }
    auto list = DecodeScoredList(*sim_blobs[r],
                                 static_cast<size_t>(app_->options.top_k));
    if (!list.ok()) return list.status();
    lists[r] = std::move(list).value();
  }
  core::PredictionTerms terms;
  core::CollectTerms(*history, recent,
                     [&lists](size_t r) { return &lists[r]; }, &terms);

  // Stage 2: the itemCount window of every candidate and of every recent
  // item with a term, and the pairCount window of every term, in one
  // deduped grouped read. No pair window repeats (PredictionTerms).
  WindowPlan plan(app_, now);
  auto plan_item = [&](WindowPlan::Range* range, core::ItemId item) {
    if (range->end != 0) return;  // planned already
    *range = plan.Add([&](int64_t s) { return app_->keys.ItemCount(s, item); });
  };
  std::vector<WindowPlan::Range> candidate_range(terms.candidates.size());
  std::vector<WindowPlan::Range> recent_range(recent.size());
  std::vector<WindowPlan::Range> pair_range;
  for (const core::PredictionTerms::Term& term : terms.terms) {
    const core::ItemId p = terms.candidates[term.candidate];
    const core::ItemId q = recent[term.recent];
    plan_item(&candidate_range[term.candidate], p);
    plan_item(&recent_range[term.recent], q);
    const core::ItemId lo = std::min(p, q);
    const core::ItemId hi = std::max(p, q);
    pair_range.push_back(plan.Add(
        [&](int64_t s) { return app_->keys.PairCount(s, lo, hi); }));
  }
  std::vector<Result<std::string>> vals;
  TR_RETURN_IF_ERROR(FetchMany(plan.keys, &vals));
  auto sums = [&vals](const std::vector<WindowPlan::Range>& ranges) {
    std::vector<Result<double>> out;
    for (const auto& range : ranges) {
      out.push_back(WindowPlan::SumOf(vals, range));
    }
    return out;
  };
  const std::vector<Result<double>> candidate_count = sums(candidate_range);
  const std::vector<Result<double>> recent_count = sums(recent_range);

  // A count the store could not read weighs its term NaN, which drops only
  // that candidate (the batched client's per-key-status semantics) instead
  // of failing the whole recommendation.
  std::vector<bool> unread(terms.candidates.size());
  auto unread_term = [&](uint32_t candidate) {
    unread[candidate] = true;
    return std::numeric_limits<double>::quiet_NaN();
  };
  core::Recommendations scored = core::ScoreTerms(
      *history, recent, terms,
      [&](size_t t) {
        const core::PredictionTerms::Term& term = terms.terms[t];
        const Result<double>& cp = candidate_count[term.candidate];
        if (!cp.ok()) return unread_term(term.candidate);
        if (*cp <= 0.0) return 0.0;
        const Result<double>& cq = recent_count[term.recent];
        if (!cq.ok()) return unread_term(term.candidate);
        if (*cq <= 0.0) return 0.0;
        const Result<double> pc = WindowPlan::SumOf(vals, pair_range[t]);
        if (!pc.ok()) return unread_term(term.candidate);
        return core::ItemSimilarity(*pc, *cp, *cq);
      },
      n);
  for (bool u : unread) {
    if (u) Degraded();
  }
  return scored;
}

Result<core::Recommendations> StoreQuery::HotItems(core::GroupId group,
                                                   size_t n, EventTime now) {
  (void)now;
  auto blob = FetchOne(app_->keys.HotList(group));
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) {
      if (group == 0) return core::Recommendations{};
      return HotItems(0, n, now);
    }
    return blob.status();
  }
  auto list = DecodeScoredList(*blob);
  if (!list.ok()) return list.status();
  if (list->empty() && group != 0) return HotItems(0, n, now);
  if (list->size() > n) list->resize(n);
  return list;
}

Result<core::Recommendations> StoreQuery::Recommend(
    core::UserId user, const core::Demographics& d, size_t n, EventTime now) {
  auto cf = RecommendCf(user, n, now);
  if (!cf.ok()) return cf.status();
  core::Recommendations out = std::move(cf).value();
  if (app_->options.result_filter) {
    std::erase_if(out, [&](const core::ScoredItem& s) {
      return !app_->options.result_filter(s.item);
    });
  }
  if (out.size() >= n) return out;

  std::unordered_set<core::ItemId> exclude;
  for (const auto& s : out) exclude.insert(s.item);
  auto history = LoadHistory(user);
  if (history.ok()) {
    for (const auto& [item, st] : history->items()) {
      if (st.rating > 0.0) exclude.insert(item);
    }
  }

  auto hot = HotItems(core::DemographicGroup(d), n + exclude.size(), now);
  if (!hot.ok()) return hot.status();
  for (const auto& h : *hot) {
    if (out.size() >= n) break;
    if (exclude.count(h.item) > 0) continue;
    if (app_->options.result_filter && !app_->options.result_filter(h.item)) {
      continue;
    }
    out.push_back(h);
  }
  return out;
}

Result<core::Recommendations> StoreQuery::RecommendCb(core::UserId user,
                                                      size_t n,
                                                      EventTime now) {
  auto blob = FetchOne(app_->keys.ContentProfile(user));
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) return core::Recommendations{};
    return blob.status();
  }
  auto profile = DecodeContentProfile(*blob);
  if (!profile.ok()) return profile.status();

  double factor = 1.0;
  if (now > profile->last_update && app_->options.profile_half_life > 0) {
    const double lambda =
        std::log(2.0) / static_cast<double>(app_->options.profile_half_life);
    factor =
        std::exp(-lambda * static_cast<double>(now - profile->last_update));
  }
  double profile_norm2 = 0.0;
  for (const auto& [tag, w] : profile->weights) {
    profile_norm2 += (w * factor) * (w * factor);
  }
  if (profile_norm2 <= 0.0) return core::Recommendations{};
  const double profile_norm = std::sqrt(profile_norm2);

  auto history = LoadHistory(user);
  if (!history.ok()) return history.status();

  // Stage 1: every tag inverted index in one deduped grouped read.
  std::vector<std::string> idx_keys;
  idx_keys.reserve(profile->weights.size());
  for (const auto& [tag, w] : profile->weights) {
    idx_keys.push_back(app_->keys.TagIndex(tag));
  }
  std::vector<Result<std::string>> idx_blobs;
  TR_RETURN_IF_ERROR(FetchMany(idx_keys, &idx_blobs));

  // Unseen candidate items, first-seen order; an item appearing in K tag
  // indexes is planned (and fetched) once, so a deregistered item costs one
  // NotFound however many indexes still list it.
  std::vector<core::ItemId> candidates;
  std::unordered_set<core::ItemId> planned;
  for (size_t t = 0; t < idx_blobs.size(); ++t) {
    const Result<std::string>& idx_blob = idx_blobs[t];
    if (!idx_blob.ok()) {
      if (idx_blob.status().IsNotFound()) continue;
      return idx_blob.status();
    }
    auto items = DecodeItemList(*idx_blob);
    if (!items.ok()) return items.status();
    for (core::ItemId item : *items) {
      if (history->RatingOf(item) > 0.0) continue;  // seen
      if (planned.insert(item).second) candidates.push_back(item);
    }
  }
  if (candidates.empty()) return core::Recommendations{};

  // Stage 2: every candidate's tag vector in one grouped read.
  std::vector<std::string> tag_keys;
  tag_keys.reserve(candidates.size());
  for (core::ItemId item : candidates) {
    tag_keys.push_back(app_->keys.ItemTags(item));
  }
  std::vector<Result<std::string>> tag_blobs;
  TR_RETURN_IF_ERROR(FetchMany(tag_keys, &tag_blobs));

  std::unordered_map<core::ItemId, double> dots;
  std::unordered_map<core::ItemId, double> norms;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const core::ItemId item = candidates[i];
    const Result<std::string>& tags_blob = tag_blobs[i];
    if (!tags_blob.ok()) {
      if (tags_blob.status().IsNotFound()) continue;  // deregistered
      Degraded();
      continue;
    }
    auto tags = DecodeTagVector(*tags_blob);
    if (!tags.ok()) return tags.status();
    double norm2 = 0.0;
    double dot = 0.0;
    for (const auto& [t2, w2] : *tags) {
      norm2 += w2 * w2;
      for (const auto& [pt, pw] : profile->weights) {
        if (pt == t2) dot += (pw * factor) * w2;
      }
    }
    norms[item] = std::sqrt(norm2);
    dots[item] = dot;
  }

  core::Recommendations scored;
  for (const auto& [item, dot] : dots) {
    const double norm = norms[item];
    if (norm <= 0.0 || dot <= 0.0) continue;
    scored.push_back({item, dot / (profile_norm * norm)});
  }
  std::sort(scored.begin(), scored.end(), core::ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

Result<core::Recommendations> StoreQuery::RecommendAr(core::ItemId from,
                                                      size_t n, EventTime now,
                                                      double min_support,
                                                      double min_confidence) {
  auto blob = FetchOne(app_->keys.SimilarItems(from));
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) return core::Recommendations{};
    return blob.status();
  }
  auto list = DecodeScoredList(*blob);
  if (!list.ok()) return list.status();

  // Base count and every joint count in one deduped grouped read.
  WindowPlan plan(app_, now);
  const auto base_range =
      plan.Add([&](int64_t s) { return app_->keys.ItemCount(s, from); });
  std::vector<WindowPlan::Range> joint_ranges;
  joint_ranges.reserve(list->size());
  for (const auto& entry : *list) {
    const core::ItemId lo = std::min(from, entry.item);
    const core::ItemId hi = std::max(from, entry.item);
    joint_ranges.push_back(plan.Add(
        [&](int64_t s) { return app_->keys.PairCount(s, lo, hi); }));
  }
  std::vector<Result<std::string>> vals;
  TR_RETURN_IF_ERROR(FetchMany(plan.keys, &vals));

  auto base = WindowPlan::SumOf(vals, base_range);
  if (!base.ok()) return base.status();
  if (*base <= 0.0) return core::Recommendations{};

  core::Recommendations scored;
  for (size_t i = 0; i < list->size(); ++i) {
    auto joint = WindowPlan::SumOf(vals, joint_ranges[i]);
    if (!joint.ok()) {
      Degraded();
      continue;
    }
    if (*joint < min_support) continue;
    const double conf = *joint / *base;
    if (conf < min_confidence) continue;
    scored.push_back({(*list)[i].item, conf});
  }
  std::sort(scored.begin(), scored.end(), core::ByRank());
  if (scored.size() > n) scored.resize(n);
  return scored;
}

Result<double> StoreQuery::PredictCtr(core::ItemId item,
                                      const core::Demographics& d,
                                      EventTime now) {
  const int max_level = core::CtrMaxLevel(d);
  // All levels' impression/click windows in one deduped grouped read; the
  // shrinkage recursion then runs store-free.
  WindowPlan plan(app_, now);
  std::vector<WindowPlan::Range> imp_ranges;
  std::vector<WindowPlan::Range> click_ranges;
  for (int level = 0; level <= max_level; ++level) {
    const uint64_t level_key = core::CtrLevelKey(item, level, d);
    imp_ranges.push_back(plan.Add([&](int64_t s) {
      return app_->keys.CtrCounts(level_key, s) + ":i";
    }));
    click_ranges.push_back(plan.Add([&](int64_t s) {
      return app_->keys.CtrCounts(level_key, s) + ":c";
    }));
  }
  std::vector<Result<std::string>> vals;
  TR_RETURN_IF_ERROR(FetchMany(plan.keys, &vals));
  double estimate = app_->options.ctr_base;
  for (int level = 0; level <= max_level; ++level) {
    auto imp = WindowPlan::SumOf(vals, imp_ranges[level]);
    if (!imp.ok()) return imp.status();
    auto clicks = WindowPlan::SumOf(vals, click_ranges[level]);
    if (!clicks.ok()) return clicks.status();
    estimate = (*clicks + app_->options.ctr_prior_strength * estimate) /
               (*imp + app_->options.ctr_prior_strength);
  }
  return estimate;
}

Result<std::pair<double, double>> StoreQuery::SituationCounts(
    core::ItemId item, const core::Demographics& d, EventTime now) {
  const uint64_t level_key =
      core::CtrLevelKey(item, core::CtrMaxLevel(d), d);
  WindowPlan plan(app_, now);
  const auto ri = plan.Add(
      [&](int64_t s) { return app_->keys.CtrCounts(level_key, s) + ":i"; });
  const auto rc = plan.Add(
      [&](int64_t s) { return app_->keys.CtrCounts(level_key, s) + ":c"; });
  std::vector<Result<std::string>> vals;
  TR_RETURN_IF_ERROR(FetchMany(plan.keys, &vals));
  auto imp = WindowPlan::SumOf(vals, ri);
  if (!imp.ok()) return imp.status();
  auto clicks = WindowPlan::SumOf(vals, rc);
  if (!clicks.ok()) return clicks.status();
  return std::make_pair(*imp, *clicks);
}

Result<core::Recommendations> StoreQuery::MaterializedResults(
    core::UserId user) {
  auto blob = FetchOne(app_->keys.Results(user));
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) return core::Recommendations{};
    return blob.status();
  }
  return DecodeScoredList(*blob);
}

}  // namespace tencentrec::topo
