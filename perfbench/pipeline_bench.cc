// Pipeline benchmark. One process runs one workload of the
// store-backed path (PublishActions -> ProcessFromAccess -> Recommend)
// through engine::TencentRec's public API, checks the resulting state
// against serial core kernels fed the same stream, and prints one JSON line
// of measurements last. perfbench/run.py builds and
// runs it; perfbench/README.md defines the workloads and every metric.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE]
//
// Layers are timed only from here, around the calls into them, and read
// through counters the program already exports; nothing inside src/ is
// instrumented for the benchmark.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/demographic.h"
#include "core/itemcf/item_cf.h"
#include "engine/tencentrec.h"
#include "tdstore/client.h"
#include "topo/blob_codec.h"

namespace tencentrec::perfbench {
namespace {

using core::ActionType;
using core::ItemId;
using core::UserAction;
using core::UserId;
using engine::TencentRec;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

constexpr int kUsers = 5000;
constexpr int kItems = 5000;
constexpr double kItemZipf = 1.0;
constexpr double kQueryUserZipf = 0.8;
constexpr int kWindowSessions = 2;  // of AppOptions' default 1 h sessions
constexpr size_t kRecommendN = 10;
constexpr int kSetups = 5;          // setup_s is the median of these
constexpr size_t kWarmActions = 6000;  // setup prefix, ingested closed-loop
constexpr size_t kWarmChunk = 2000;
constexpr size_t kHeadItems = 100;  // items the kernel comparison covers
constexpr int kEmptyRuns = 5;       // tstorm.empty_run_ms samples
constexpr EventTime kStreamStart = Hours(1000);  // session-aligned

// Sizes are per second of --seconds. They were set so a run takes about
// --seconds on a 4-core Xeon VM, and so every query phase lasts several
// seconds: the host's speed drifts within seconds, and a longer phase
// averages that drift instead of sampling one moment of it.
struct Workload {
  const char* name;
  bool durable;              // WAL + fsynced barrier per batch, fresh dir
  bool pin_ttl;              // query-cache TTL past the end of the run
  EventTime event_step;      // event time between consecutive actions, or
  EventTime event_span;      // if > 0, the event time the whole stream spans
  // Closed-loop ingest phase: a backlog cut into batches of `chunk_actions`.
  size_t ingest_actions_per_s;
  size_t chunk_actions;
  // Closed-loop query phase after the ingest phase.
  int querents;
  size_t queries_per_querent_per_s;
  // Open-loop ticks: each tick publishes and drains `actions_per_tick`,
  // then reads back `queries_per_tick` users it just wrote.
  int64_t tick_micros;
  size_t actions_per_tick;
  size_t queries_per_tick;
};

// ingest_durable and live_tick replay 2 s of event time per action, so the
// 2-session window expires state all along; serve_warm's whole stream spans
// 45 minutes, inside one session, so nothing expires. ingest_durable's
// 5,000-action chunks are the large-batch side of the batch-size split;
// live_tick's 200-action ticks are the small-batch side.
constexpr Workload kWorkloads[] = {
    {"ingest_durable", /*durable=*/true, /*pin_ttl=*/true, Seconds(2), 0,
     /*ingest/s=*/4000, /*chunk=*/5000, /*querents=*/1, /*queries/s=*/200, 0,
     0, 0},
    {"serve_warm", false, true, 0, Minutes(45), 2000, 200, 2, 100, 0, 0, 0},
    {"live_tick", false, false, Seconds(2), 0, 0, 0, 0, 0,
     /*tick=*/100'000, /*actions/tick=*/200, /*queries/tick=*/5},
};

// ---------------------------------------------------------------------------
// Small helpers

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int r[4];
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + leaf * 16, r, sizeof(r));
    }
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

volatile uint64_t calibration_sink = 0;

// Fixed-work integer loop: its time tells hosts (and one host's drift)
// apart, since absolute pipeline numbers swing about 2x between hosts.
double CalibrationMs() {
  const auto t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 60'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  calibration_sink = x;
  return Micros(t0, Clock::now()) / 1000.0;
}

struct Usage {
  double cpu_us = 0;
  double ctx_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

// CPU time of the calling thread. A Recommend runs entirely on its caller's
// thread (the store is in-process), so this is the query's own CPU cost.
double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Inputs, generated from the seed before anything is timed

struct Inputs {
  std::vector<UserAction> stream;  // warm prefix, then the measured part
  std::vector<std::vector<UserId>> query_users;  // closed loop, per querent
  std::vector<std::vector<UserId>> tick_users;   // open loop, per tick
  size_t measured_actions = 0;
  size_t ticks = 0;
};

core::Demographics DemographicsOf(UserId user, uint64_t seed) {
  const uint64_t h = HashCombine(seed, static_cast<uint64_t>(user));
  core::Demographics d;
  d.gender = (h & 1) ? core::Demographics::kMale : core::Demographics::kFemale;
  d.age_band = static_cast<uint8_t>(1 + (h >> 1) % 6);
  d.region = static_cast<uint16_t>(1 + (h >> 8) % 30);
  return d;
}

ActionType DrawActionType(Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.40) return ActionType::kBrowse;
  if (u < 0.70) return ActionType::kClick;
  if (u < 0.85) return ActionType::kRead;
  if (u < 0.90) return ActionType::kShare;
  if (u < 0.95) return ActionType::kComment;
  return ActionType::kPurchase;
}

template <typename T>
std::vector<T> Permutation(size_t n, T base, Rng& rng) {
  std::vector<T> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = base + static_cast<T>(i);
  for (size_t i = n - 1; i > 0; --i) std::swap(p[i], p[rng.Uniform(i + 1)]);
  return p;
}

Inputs MakeInputs(const Workload& w, uint64_t seed, int seconds) {
  Inputs in;
  Rng rng(seed);
  const auto item_of_rank = Permutation<ItemId>(kItems, 1, rng);
  const auto user_of_rank = Permutation<UserId>(kUsers, 1, rng);
  const ZipfSampler item_zipf(kItems, kItemZipf);
  const ZipfSampler user_zipf(kUsers, kQueryUserZipf);

  if (w.tick_micros > 0) {
    in.ticks = static_cast<size_t>(
        static_cast<int64_t>(seconds) * kMicrosPerSecond / w.tick_micros);
    in.measured_actions = in.ticks * w.actions_per_tick;
  } else {
    in.measured_actions = w.ingest_actions_per_s * static_cast<size_t>(seconds);
  }
  const size_t total = kWarmActions + in.measured_actions;
  const EventTime step =
      w.event_span > 0 ? w.event_span / static_cast<EventTime>(total)
                       : w.event_step;
  in.stream.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    UserAction a;
    a.user = 1 + static_cast<UserId>(rng.Uniform(kUsers));
    a.item = item_of_rank[item_zipf.Sample(rng)];
    a.action = DrawActionType(rng);
    a.timestamp = kStreamStart + static_cast<EventTime>(i) * step;
    a.demographics = DemographicsOf(a.user, seed);
    in.stream.push_back(a);
  }
  for (int q = 0; q < w.querents; ++q) {
    std::vector<UserId> users(w.queries_per_querent_per_s *
                              static_cast<size_t>(seconds));
    for (auto& u : users) u = user_of_rank[user_zipf.Sample(rng)];
    in.query_users.push_back(std::move(users));
  }
  // Read-after-write: each tick queries users whose actions it just wrote.
  for (size_t t = 0; t < in.ticks; ++t) {
    const size_t base = kWarmActions + t * w.actions_per_tick;
    std::vector<UserId> users(w.queries_per_tick);
    for (auto& u : users) {
      u = in.stream[base + rng.Uniform(w.actions_per_tick)].user;
    }
    in.tick_users.push_back(std::move(users));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Tracing: spans and counter snapshots taken around the calls into each
// layer, kept in memory and written at exit. Only the traced run records.

// Counters the program already exports, read at span boundaries.
struct Probe {
  Usage usage;
  double reads = 0, writes = 0, invocations = 0;  // summed over servers
  double wal_appends = 0, wal_bytes = 0, wal_syncs = 0;
  double cache_hits = 0, cache_misses = 0, cache_coalesced = 0;
  double fetch_keys = 0, fetch_us = 0;  // histogram sums

  Probe& operator+=(const Probe& o) {
    usage.cpu_us += o.usage.cpu_us;
    usage.ctx_switches += o.usage.ctx_switches;
    reads += o.reads;
    writes += o.writes;
    invocations += o.invocations;
    wal_appends += o.wal_appends;
    wal_bytes += o.wal_bytes;
    wal_syncs += o.wal_syncs;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_coalesced += o.cache_coalesced;
    fetch_keys += o.fetch_keys;
    fetch_us += o.fetch_us;
    return *this;
  }
  Probe operator-(const Probe& o) const {
    Probe d = *this;
    d.usage.cpu_us -= o.usage.cpu_us;
    d.usage.ctx_switches -= o.usage.ctx_switches;
    d.reads -= o.reads;
    d.writes -= o.writes;
    d.invocations -= o.invocations;
    d.wal_appends -= o.wal_appends;
    d.wal_bytes -= o.wal_bytes;
    d.wal_syncs -= o.wal_syncs;
    d.cache_hits -= o.cache_hits;
    d.cache_misses -= o.cache_misses;
    d.cache_coalesced -= o.cache_coalesced;
    d.fetch_keys -= o.fetch_keys;
    d.fetch_us -= o.fetch_us;
    return d;
  }
};

class Prober {
 public:
  Prober(bool on, TencentRec* engine) : on_(on), engine_(engine) {
    auto& reg = MetricRegistry::Default();
    wal_appends_ = reg.GetCounter("store.wal.appends");
    wal_bytes_ = reg.GetCounter("store.wal.appended_bytes");
    wal_syncs_ = reg.GetCounter("store.wal.syncs");
    hits_ = reg.GetCounter("topo.query_cache.hits");
    negative_hits_ = reg.GetCounter("topo.query_cache.negative_hits");
    misses_ = reg.GetCounter("topo.query_cache.misses");
    coalesced_ = reg.GetCounter("topo.query_cache.coalesced");
    fetch_keys_ = reg.GetHistogram("topo.query.fetch_keys");
    fetch_us_ = reg.GetHistogram("topo.query.fetch_us");
  }
  bool on() const { return on_; }

  Probe Take() const {
    Probe p;
    if (!on_) return p;
    p.usage = ReadUsage();
    tdstore::Cluster* store = engine_->store();
    for (int s = 0; s < store->num_data_servers(); ++s) {
      const tdstore::DataServer* ds = store->data_server(s);
      p.reads += static_cast<double>(ds->reads());
      p.writes += static_cast<double>(ds->writes());
      p.invocations += static_cast<double>(ds->invocations());
    }
    p.wal_appends = static_cast<double>(wal_appends_->Value());
    p.wal_bytes = static_cast<double>(wal_bytes_->Value());
    p.wal_syncs = static_cast<double>(wal_syncs_->Value());
    p.cache_hits =
        static_cast<double>(hits_->Value() + negative_hits_->Value());
    p.cache_misses = static_cast<double>(misses_->Value());
    p.cache_coalesced = static_cast<double>(coalesced_->Value());
    p.fetch_keys = static_cast<double>(fetch_keys_->Snap().sum);
    p.fetch_us = static_cast<double>(fetch_us_->Snap().sum);
    return p;
  }

 private:
  const bool on_;
  TencentRec* engine_;
  Counter* wal_appends_;
  Counter* wal_bytes_;
  Counter* wal_syncs_;
  Counter* hits_;
  Counter* negative_hits_;
  Counter* misses_;
  Counter* coalesced_;
  LatencyHistogram* fetch_keys_;
  LatencyHistogram* fetch_us_;
};

// One call into a layer. Spans of one batch or one query share an id; a
// single-threaded span also carries the counter deltas across it.
struct Span {
  uint64_t id;
  const char* name;
  int thread;
  double start_us;  // from the start of the run
  double dur_us;
  bool counted;
  Probe delta;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }

  void Add(uint64_t id, const char* name, int thread, Clock::time_point a,
           Clock::time_point b, const Probe* delta = nullptr) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({id, name, thread, Micros(t0_, a), Micros(a, b),
                      delta != nullptr, delta != nullptr ? *delta : Probe{}});
  }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%llu,\"name\":\"%s\",\"thread\":%d,"
                   "\"start_us\":%.1f,\"dur_us\":%.1f",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   s.name, s.thread, s.start_us, s.dur_us);
      if (s.counted) {
        const Probe& d = s.delta;
        std::fprintf(f,
                     ",\"counters\":{\"cpu_us\":%.0f,\"ctx_switches\":%.0f,"
                     "\"store_reads\":%.0f,\"store_writes\":%.0f,"
                     "\"store_calls\":%.0f,\"wal_bytes\":%.0f,"
                     "\"fetch_keys\":%.0f}",
                     d.usage.cpu_us, d.usage.ctx_switches, d.reads, d.writes,
                     d.invocations, d.wal_bytes, d.fetch_keys);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const bool on_;
  const Clock::time_point t0_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The run

// Key families of the store (topo/keys.h), counted in the traced run.
constexpr const char* kFamilies[] = {"uh", "ic", "pc", "po", "pr",
                                     "sim", "st", "gh", "hl"};

constexpr const char* kBolts[] = {"pretreatment", "user_history",
                                  "item_count",   "cf_pair",
                                  "similar_list", "group_count",
                                  "hot_list"};

// What one querent thread saw.
struct QueryStats {
  std::vector<double> wall_ms, cpu_ms;  // per OK Recommend
  size_t ok = 0;
  size_t empty = 0;  // OK but empty for a user with history

  void Merge(const QueryStats& o) {
    wall_ms.insert(wall_ms.end(), o.wall_ms.begin(), o.wall_ms.end());
    cpu_ms.insert(cpu_ms.end(), o.cpu_ms.begin(), o.cpu_ms.end());
    ok += o.ok;
    empty += o.empty;
  }
};

struct Results {
  // Engine calls this benchmark made, and those that returned non-OK.
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::pair<std::string, std::string>> failures;  // first few
  std::mutex failures_mu;

  std::vector<double> create_ms, warm_s;
  std::vector<double> setup_cpu_s, setup_wall_s;
  // Ingest side of the measured phase.
  size_t batches = 0;
  size_t actions = 0;
  double ingest_call_us = 0;   // inside PublishActions + ProcessFromAccess
  double ingest_cpu_us = 0;    // process CPU across those calls
  double publish_us = 0;
  std::vector<double> fresh_ms, late_ms;
  Probe ingest_probe;
  double tuples_emitted = 0;
  std::map<std::string, double> bolt_busy_us;
  // Query side.
  QueryStats queries;
  double query_phase_us = 0;
  Probe query_probe;
  // Peak RSS, read when the measured phase ends.
  double peak_rss_mb = 0;

  void Record(const Status& s, const char* what) {
    attempted.fetch_add(1);
    if (s.ok()) return;
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 5) failures.emplace_back(what, s.ToString());
  }
};

Result<std::unique_ptr<TencentRec>> CreateEngine(const Workload& w,
                                                 const std::string& dir) {
  TencentRec::Options o;
  o.app.enable_pruning = true;
  o.app.window_sessions = kWindowSessions;
  if (w.pin_ttl) {
    // The query phases are read-only, so a TTL past the end of the run
    // changes no result; it removes the feedback where a slower run loses
    // cache hits and slows further.
    o.app.query_cache_ttl_micros = static_cast<int64_t>(Hours(1));
  }
  if (w.durable) {
    o.store.durability.enabled = true;
    o.store.durability.dir = dir;
  }
  return TencentRec::Create(std::move(o));
}

class Runner {
 public:
  Runner(const Workload& w, const Inputs& in, uint64_t seed,
         const std::string& work_dir, SpanLog* spans, Results* r)
      : w_(w), in_(in), seed_(seed), work_dir_(work_dir), spans_(spans),
        r_(r) {}

  ~Runner() {
    engine_.reset();
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }

  Status Setup();
  void IngestClosedLoop();
  void QueryClosedLoop();
  void LiveTicks();
  void TracedExtras(std::map<std::string, double>* layer);

  TencentRec* engine() { return engine_.get(); }
  EventTime last_event() const { return last_event_; }

 private:
  // One batch: publish `n` actions from `first`, drain, account.
  void Batch(size_t first, size_t n, uint64_t id, Clock::time_point cut,
             const Prober* prober);
  // One Recommend. `prober` is null where querents run concurrently, since
  // the process-wide counters would then mix their work.
  void Query(topo::StoreQuery* q, UserId user, uint64_t id, int thread,
             const Prober* prober, QueryStats* out);

  const Workload& w_;
  const Inputs& in_;
  const uint64_t seed_;
  const std::string work_dir_;
  SpanLog* spans_;
  Results* r_;
  std::unique_ptr<TencentRec> engine_;
  std::string dir_;
  size_t next_ = 0;  // next stream position to publish
  EventTime last_event_ = 0;
  std::vector<bool> has_history_ = std::vector<bool>(kUsers + 1, false);
  Clock::time_point last_return_{};
};

Status Runner::Setup() {
  for (int k = 0; k < kSetups; ++k) {
    engine_.reset();
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
    dir_ = work_dir_ + "/store" + std::to_string(k);
    if (w_.durable) std::filesystem::create_directories(dir_, ec);

    const Usage u0 = ReadUsage();
    const auto t0 = Clock::now();
    auto created = CreateEngine(w_, dir_);
    const auto t1 = Clock::now();
    r_->Record(created.status(), "create");
    if (!created.ok()) return created.status();
    engine_ = std::move(created).value();
    for (size_t pos = 0; pos < kWarmActions; pos += kWarmChunk) {
      const size_t n = std::min(kWarmChunk, kWarmActions - pos);
      std::vector<UserAction> chunk(in_.stream.begin() + pos,
                                    in_.stream.begin() + pos + n);
      Status s = engine_->PublishActions(chunk);
      r_->Record(s, "publish");
      if (!s.ok()) return s;
      s = engine_->ProcessFromAccess();
      r_->Record(s, "process");
      if (!s.ok()) return s;
    }
    const auto t2 = Clock::now();
    r_->create_ms.push_back(Micros(t0, t1) / 1000.0);
    r_->warm_s.push_back(Micros(t1, t2) / 1e6);
    r_->setup_wall_s.push_back(Micros(t0, t2) / 1e6);
    r_->setup_cpu_s.push_back((ReadUsage().cpu_us - u0.cpu_us) / 1e6);
  }
  next_ = kWarmActions;
  for (size_t i = 0; i < next_; ++i) has_history_[in_.stream[i].user] = true;
  last_event_ = in_.stream[next_ - 1].timestamp;
  return Status::OK();
}

void Runner::Batch(size_t first, size_t n, uint64_t id,
                   Clock::time_point cut, const Prober* prober) {
  std::vector<UserAction> chunk(in_.stream.begin() + first,
                                in_.stream.begin() + first + n);
  const Probe p0 = prober->Take();
  const Usage u0 = ReadUsage();
  const auto t0 = Clock::now();
  r_->Record(engine_->PublishActions(chunk), "publish");
  const auto t1 = Clock::now();
  const Probe p1 = prober->Take();
  r_->Record(engine_->ProcessFromAccess(), "process");
  const auto t2 = Clock::now();
  r_->ingest_cpu_us += ReadUsage().cpu_us - u0.cpu_us;
  if (prober->on()) {
    const Probe p2 = prober->Take();
    const Probe publish = p1 - p0;
    const Probe process = p2 - p1;
    r_->ingest_probe += publish;
    r_->ingest_probe += process;
    spans_->Add(id, "tdaccess.publish", 0, t0, t1, &publish);
    spans_->Add(id, "engine.process", 0, t1, t2, &process);
  }

  r_->batches += 1;
  r_->actions += n;
  r_->publish_us += Micros(t0, t1);
  r_->ingest_call_us += Micros(t0, t2);
  r_->fresh_ms.push_back(Micros(cut, t2) / 1000.0);
  for (const auto& m : engine_->last_metrics()) {
    r_->tuples_emitted += static_cast<double>(m.tuples_emitted);
    r_->bolt_busy_us[m.component] += static_cast<double>(m.busy_micros);
  }
  for (size_t i = first; i < first + n; ++i) {
    has_history_[in_.stream[i].user] = true;
  }
  last_event_ = in_.stream[first + n - 1].timestamp;
  last_return_ = t2;
}

void Runner::IngestClosedLoop() {
  const Prober prober(spans_->on(), engine_.get());
  const size_t total = in_.measured_actions;
  last_return_ = Clock::now();
  for (size_t lo = 0; lo < total; lo += w_.chunk_actions) {
    const size_t n = std::min(w_.chunk_actions, total - lo);
    // Closed loop: a chunk is due the moment the previous one returned.
    const Clock::time_point due = last_return_;
    const Clock::time_point cut = Clock::now();
    r_->late_ms.push_back(Micros(due, cut) / 1000.0);
    Batch(next_ + lo, n, spans_->NextId(), cut, &prober);
  }
  next_ += total;
}

void Runner::Query(topo::StoreQuery* q, UserId user, uint64_t id, int thread,
                   const Prober* prober, QueryStats* out) {
  const Probe p0 = prober != nullptr ? prober->Take() : Probe{};
  const double c0 = ThreadCpuMicros();
  const auto t0 = Clock::now();
  auto recs = q->Recommend(user, DemographicsOf(user, seed_), kRecommendN,
                           last_event_);
  const auto t1 = Clock::now();
  const double c1 = ThreadCpuMicros();
  if (prober != nullptr && prober->on()) {
    const Probe delta = prober->Take() - p0;
    r_->query_probe += delta;
    spans_->Add(id, "topo.query", thread, t0, t1, &delta);
  } else {
    spans_->Add(id, "topo.query", thread, t0, t1);
  }
  r_->Record(recs.status(), "recommend");
  if (!recs.ok()) return;
  out->ok += 1;
  out->wall_ms.push_back(Micros(t0, t1) / 1000.0);
  out->cpu_ms.push_back((c1 - c0) / 1000.0);
  if (recs->empty() && has_history_[user]) out->empty += 1;
}

void Runner::QueryClosedLoop() {
  const Prober prober(spans_->on(), engine_.get());
  const int n = w_.querents;
  std::vector<QueryStats> stats(n);
  std::vector<std::unique_ptr<topo::StoreQuery>> queries;
  for (int t = 0; t < n; ++t) {
    queries.push_back(std::make_unique<topo::StoreQuery>(
        &engine_->app(), engine_->query_cache()));
    stats[t].wall_ms.reserve(in_.query_users[t].size());
    stats[t].cpu_ms.reserve(in_.query_users[t].size());
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (UserId u : in_.query_users[t]) {
        Query(queries[t].get(), u, spans_->NextId(), t + 1, nullptr,
              &stats[t]);
      }
    });
  }
  const Probe before = prober.Take();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const auto t1 = Clock::now();
  if (prober.on()) r_->query_probe += prober.Take() - before;
  r_->query_phase_us += Micros(t0, t1);
  for (const auto& st : stats) r_->queries.Merge(st);
}

void Runner::LiveTicks() {
  const Prober prober(spans_->on(), engine_.get());
  topo::StoreQuery* q = &engine_->query();
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  for (size_t t = 0; t < in_.ticks; ++t) {
    const auto due = start + std::chrono::microseconds(
                                 static_cast<int64_t>(t) * w_.tick_micros);
    std::this_thread::sleep_until(due);
    const auto cut = Clock::now();
    r_->late_ms.push_back(Micros(due, cut) / 1000.0);
    const uint64_t id = spans_->NextId();
    // Freshness is measured from the due time, so a late start counts.
    Batch(next_, w_.actions_per_tick, id, due, &prober);
    next_ += w_.actions_per_tick;

    const auto q0 = Clock::now();
    for (UserId u : in_.tick_users[t]) {
      Query(q, u, id, 0, &prober, &r_->queries);
    }
    r_->query_phase_us += Micros(q0, Clock::now());
  }
}

// Traced run only: key counts per family, one checkpoint, empty runs.
void Runner::TracedExtras(std::map<std::string, double>* layer) {
  const Prober prober(true, engine_.get());
  // Times one call as its own span, with the counter deltas across it.
  auto timed_ms = [&](const char* span, const auto& call) {
    const uint64_t id = spans_->NextId();
    const Probe p0 = prober.Take();
    const auto t0 = Clock::now();
    r_->Record(call(), span);
    const auto t1 = Clock::now();
    const Probe delta = prober.Take() - p0;
    spans_->Add(id, span, 0, t0, t1, &delta);
    return Micros(t0, t1) / 1000.0;
  };

  tdstore::Client client(engine_->store());
  const std::string app = engine_->app().keys.app();
  for (const char* family : kFamilies) {
    double keys = 0;
    timed_ms("tdstore.scan", [&] {
      return client.ScanPrefix(std::string(family) + ":" + app + ":",
                               [&keys](std::string_view, std::string_view) {
                                 keys += 1;
                                 return true;
                               });
    });
    (*layer)[std::string("tdstore.keys.") + family] = keys;
  }

  (*layer)["tdstore.checkpoint_ms"] =
      timed_ms("tdstore.checkpoint", [&] { return engine_->Checkpoint(); });
  double snap_bytes = 0;
  std::error_code ec;
  if (w_.durable) {
    for (const auto& e : std::filesystem::directory_iterator(dir_, ec)) {
      if (e.path().extension() == ".snap") {
        snap_bytes += static_cast<double>(e.file_size(ec));
      }
    }
  }
  (*layer)["tdstore.snapshot_mb"] = snap_bytes / (1024.0 * 1024.0);

  std::vector<double> empty_ms;
  for (int i = 0; i < kEmptyRuns; ++i) {
    empty_ms.push_back(timed_ms(
        "engine.process", [&] { return engine_->ProcessFromAccess(); }));
  }
  (*layer)["tstorm.empty_run_ms"] = Median(empty_ms);
}

// ---------------------------------------------------------------------------
// Reference kernel and checks

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

core::PracticalItemCf::Options KernelOptions() {
  const topo::AppOptions app;  // the engine's defaults, as configured above
  core::PracticalItemCf::Options k;
  k.weights = app.weights;
  k.linked_time = app.linked_time;
  k.top_k = app.top_k;
  k.recent_k = app.recent_k;
  k.session_length = app.session_length;
  k.window_sessions = kWindowSessions;
  k.enable_pruning = true;
  k.hoeffding_delta = app.hoeffding_delta;
  return k;
}

core::DemographicRecommender::Options PopularityOptions() {
  const topo::AppOptions app;
  core::DemographicRecommender::Options d;
  d.weights = app.weights;
  d.session_length = app.session_length;
  d.window_sessions = kWindowSessions;
  return d;
}

// Every check reads only sessions inside the window that ends at the last
// ingested action, so each holds as well for a store that deletes the
// sessions which have left the window as for one that keeps them.
std::vector<Check> RunChecks(Runner* runner, const Inputs& in,
                             size_t ingested, uint64_t seed,
                             const Results& r,
                             std::map<std::string, double>* layer) {
  std::vector<Check> checks;
  TencentRec* engine = runner->engine();
  const topo::AppContext& app = engine->app();
  tdstore::Client client(engine->store());
  const EventTime now = runner->last_event();

  // Serial kernels fed the ingested stream: item-based CF with the engine's
  // exact options, which is also the single-threaded baseline
  // (core.kernel_aps), and the demographic popularity counts.
  core::PracticalItemCf kernel(KernelOptions());
  const auto k0 = Clock::now();
  for (size_t i = 0; i < ingested; ++i) kernel.ProcessAction(in.stream[i]);
  const double kernel_s = Micros(k0, Clock::now()) / 1e6;
  (*layer)["core.kernel_aps"] = static_cast<double>(ingested) / kernel_s;
  core::DemographicRecommender popularity(PopularityOptions());
  for (size_t i = 0; i < ingested; ++i) popularity.ProcessAction(in.stream[i]);

  // Head items: the largest window counts.
  std::vector<std::pair<double, ItemId>> by_count;
  for (ItemId item = 1; item <= kItems; ++item) {
    const double count = kernel.counts().ItemCount(item);
    if (count > 0) by_count.emplace_back(-count, item);
  }
  std::sort(by_count.begin(), by_count.end());
  by_count.resize(std::min(by_count.size(), kHeadItems));
  std::vector<ItemId> head;
  for (const auto& [neg_count, item] : by_count) head.push_back(item);

  // 1. Exact: the store's windowed popularity (the gh counters of the
  // window's sessions) equals the kernel's, per demographic group and head
  // item. Each action adds its weight to the session of its own timestamp,
  // so the sums do not depend on the order the pipeline's threads applied
  // actions in. Action weights are dyadic, so they are exact.
  const int64_t s_first = app.WindowStart(now);
  const int64_t s_last = app.SessionOf(now);
  std::set<core::GroupId> groups = {0};
  for (UserId u = 1; u <= kUsers; ++u) {
    groups.insert(core::DemographicGroup(DemographicsOf(u, seed)));
  }
  std::vector<std::string> keys;
  for (core::GroupId g : groups) {
    for (ItemId item : head) {
      for (int64_t s = s_first; s <= s_last; ++s) {
        keys.push_back(app.keys.GroupHot(g, s, item));
      }
    }
  }
  std::vector<Result<double>> got;
  const Status read = client.MultiGetDouble(keys, 0.0, &got);
  size_t pop_bad = 0, next = 0;
  std::string pop_detail;
  for (core::GroupId g : groups) {
    for (ItemId item : head) {
      double sum = 0;
      bool ok = read.ok();
      for (int64_t s = s_first; s <= s_last; ++s, ++next) {
        ok = ok && got[next].ok();
        if (ok) sum += *got[next];
      }
      const double want = popularity.Popularity(g, item);
      if ((!ok || sum != want) && ++pop_bad == 1) {
        pop_detail = "; group " + std::to_string(g) + " item " +
                     std::to_string(item) + ": store " +
                     (ok ? std::to_string(sum) : "read failed") +
                     " vs kernel " + std::to_string(want);
      }
    }
  }
  const size_t cells = groups.size() * head.size();
  checks.push_back({"window_popularity_exact", pop_bad == 0,
                    std::to_string(cells - pop_bad) + "/" +
                        std::to_string(cells) + " (group, head item) " +
                        "cells match" + pop_detail});

  // 2. Windowed item counts (ic) against the CF kernel. Each delta lands in
  // the session of its action, but its size depends on the order of one
  // user's actions, and the shuffle-grouped pretreatment hop can reorder
  // those across a session boundary. So the counts must match exactly only
  // when the whole stream lies in one session (serve_warm); otherwise the
  // difference is reported as topo.count_mismatch. The top-10 overlap of
  // similar-items lists is reported too.
  const bool one_session =
      app.SessionOf(in.stream.front().timestamp) == s_last;
  topo::StoreQuery query(&app);
  double mismatched = 0, worst = 0, overlap = 0;
  bool reads_ok = true;
  for (ItemId item : head) {
    auto count = query.WindowItemCount(item, now);
    if (!count.ok()) {
      reads_ok = false;
      continue;
    }
    const double want = kernel.counts().ItemCount(item);
    if (*count != want) {
      mismatched += 1;
      const double rel = std::fabs(*count - want) / std::max(want, 1e-9);
      worst = std::max(worst, rel);
    }
    std::vector<ItemId> kernel_top;
    if (const TopK<ItemId>* list = kernel.SimilarItems(item)) {
      for (size_t i = 0; i < list->size() && i < 10; ++i) {
        kernel_top.push_back(list->id_at(i));
      }
    }
    auto blob = client.Get(app.keys.SimilarItems(item));
    std::vector<ItemId> store_top;
    if (blob.ok()) {
      auto decoded = topo::DecodeScoredList(*blob);
      if (decoded.ok()) {
        auto recs = std::move(decoded).value();
        std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
          return a.score != b.score ? a.score > b.score : a.item < b.item;
        });
        for (size_t i = 0; i < recs.size() && i < 10; ++i) {
          store_top.push_back(recs[i].item);
        }
      } else {
        reads_ok = false;
      }
    } else if (!blob.status().IsNotFound()) {
      reads_ok = false;
    }
    size_t common = 0;
    for (ItemId a : kernel_top) {
      common += std::count(store_top.begin(), store_top.end(), a);
    }
    const size_t denom = std::max<size_t>(1, std::min<size_t>(
                                                 10, kernel_top.size()));
    overlap += static_cast<double>(common) / static_cast<double>(denom);
  }
  overlap /= static_cast<double>(std::max<size_t>(1, head.size()));
  (*layer)["topo.count_mismatch"] = mismatched;
  (*layer)["topo.sim_overlap_at10"] = overlap;
  checks.push_back({"state_reads_ok", reads_ok,
                    "window counts and similar lists read back"});
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%.0f of %zu head items differ from the kernel, worst by "
                "%.1f%% (%s); similar-list top-10 overlap %.3f",
                mismatched, head.size(), 100.0 * worst,
                one_session ? "one session: must match" : "reported only",
                overlap);
  checks.push_back({"window_item_counts", !one_session || mismatched == 0,
                    buf});

  // 3. Every engine call returned OK; every Recommend for a user with
  // history returned a non-empty list.
  checks.push_back({"engine_calls_ok", r.failed.load() == 0,
                    std::to_string(r.failed.load()) + " of " +
                        std::to_string(r.attempted.load()) + " failed"});
  checks.push_back({"recommend_non_empty", r.queries.empty == 0,
                    std::to_string(r.queries.empty) + " of " +
                        std::to_string(r.queries.ok) +
                        " OK recommendations were empty"});
  return checks;
}

// Open loop only: lateness that grows across the run means the offered
// rate is not sustainable, and freshness would then measure the backlog.
Check LatenessCheck(const std::vector<double>& late_ms, int64_t tick_micros) {
  const size_t n = late_ms.size();
  const size_t k = std::max<size_t>(1, n / 5);
  const double head =
      Median(std::vector<double>(late_ms.begin(), late_ms.begin() + k));
  const double tail =
      Median(std::vector<double>(late_ms.end() - k, late_ms.end()));
  const double limit = head + static_cast<double>(tick_micros) / 2000.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "median lateness first fifth %.3f ms, last fifth %.3f ms "
                "(limit %.3f ms)",
                head, tail, limit);
  return {"open_loop_sustained", tail <= limit, buf};
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  const double calib_ms = CalibrationMs();
  const Inputs in = MakeInputs(*w, args.seed, args.seconds);
  SpanLog spans(args.trace);
  Results r;
  std::map<std::string, double> layer;

  Runner runner(*w, in, args.seed, args.work_dir, &spans, &r);
  Status setup = runner.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  if (w->tick_micros > 0) {
    runner.LiveTicks();
  } else {
    runner.IngestClosedLoop();
    runner.QueryClosedLoop();
  }
  r.peak_rss_mb = PeakRssMb();
  if (args.trace) runner.TracedExtras(&layer);

  const size_t ingested = kWarmActions + in.measured_actions;
  std::vector<Check> checks =
      RunChecks(&runner, in, ingested, args.seed, r, &layer);
  if (w->tick_micros > 0) {
    checks.push_back(LatenessCheck(r.late_ms, w->tick_micros));
  }

  // End-to-end metrics. BENCHMARK.json gates the first four: on a shared VM
  // wall time swings with hypervisor steal, which the guest's CPU accounting
  // leaves out, and memory-bound query CPU still drifts with the host
  // (README.md, "Steadiness").
  std::vector<std::tuple<std::string, double, const char*>> m;
  const double actions = static_cast<double>(r.actions);
  const double queries = static_cast<double>(r.queries.ok);
  m.emplace_back("ingest_cpu_us_per_action", r.ingest_cpu_us / actions,
                 "us/action");
  m.emplace_back("setup_s", Median(r.setup_cpu_s), "s");
  m.emplace_back("peak_rss_mb", r.peak_rss_mb, "MB");
  const double attempted = static_cast<double>(r.attempted.load());
  m.emplace_back("ok_ratio",
                 (attempted - static_cast<double>(r.failed.load())) /
                     attempted,
                 "ratio");
  // Printed but not gated.
  const double ingest_aps = actions / (r.ingest_call_us / 1e6);
  m.emplace_back("ingest_aps", ingest_aps, "actions/s");
  m.emplace_back("fresh_ms_p50", Percentile(r.fresh_ms, 50), "ms");
  m.emplace_back("fresh_ms_p95", Percentile(r.fresh_ms, 95), "ms");
  m.emplace_back("query_qps", queries / (r.query_phase_us / 1e6),
                 "queries/s");
  m.emplace_back("query_ms_p50", Percentile(r.queries.wall_ms, 50), "ms");
  m.emplace_back("query_ms_p99", Percentile(r.queries.wall_ms, 99), "ms");
  m.emplace_back("query_cpu_ms_p50", Percentile(r.queries.cpu_ms, 50), "ms");
  m.emplace_back("query_cpu_ms_p99", Percentile(r.queries.cpu_ms, 99), "ms");
  m.emplace_back("setup_wall_s", Median(r.setup_wall_s), "s");
  // CPU of the measured phases: process CPU across the ingest calls plus
  // the querents' own CPU across their Recommend calls. run.py compares it
  // between an untraced and a traced run of the same seed.
  double query_cpu_ms = 0;
  for (double c : r.queries.cpu_ms) query_cpu_ms += c;
  m.emplace_back("measured_cpu_s", r.ingest_cpu_us / 1e6 + query_cpu_ms / 1e3,
                 "s");

  if (args.trace) {
    const Probe& ip = r.ingest_probe;
    const Probe& qp = r.query_probe;
    m.emplace_back("tdaccess.publish_us_per_action", r.publish_us / actions,
                   "us/action");
    m.emplace_back("tstorm.empty_run_ms", layer["tstorm.empty_run_ms"], "ms");
    m.emplace_back("tstorm.tuples_per_action", r.tuples_emitted / actions,
                   "tuples/action");
    for (const char* bolt : kBolts) {
      m.emplace_back(std::string("tstorm.busy_us_per_action.") + bolt,
                     r.bolt_busy_us[bolt] / actions, "us/action");
    }
    m.emplace_back("engine.ctx_switches_per_action",
                   ip.usage.ctx_switches / actions, "switches/action");
    m.emplace_back("engine.create_ms", Median(r.create_ms), "ms");
    m.emplace_back("engine.warm_s", Median(r.warm_s), "s");
    m.emplace_back("topo.query.keys_per_query", qp.fetch_keys / queries,
                   "keys/query");
    m.emplace_back("topo.query.fetch_us_per_query", qp.fetch_us / queries,
                   "us/query");
    const double lookups = qp.cache_hits + qp.cache_misses +
                           qp.cache_coalesced;
    m.emplace_back("topo.query_cache.hit_ratio",
                   lookups > 0 ? qp.cache_hits / lookups : 0.0, "ratio");
    m.emplace_back("topo.query_cache.coalesced_per_query",
                   qp.cache_coalesced / queries, "keys/query");
    m.emplace_back("topo.count_mismatch", layer["topo.count_mismatch"],
                   "items");
    m.emplace_back("topo.sim_overlap_at10", layer["topo.sim_overlap_at10"],
                   "ratio");
    m.emplace_back("tdstore.reads_per_action", ip.reads / actions,
                   "reads/action");
    m.emplace_back("tdstore.writes_per_action", ip.writes / actions,
                   "writes/action");
    m.emplace_back("tdstore.invocations_per_action", ip.invocations / actions,
                   "calls/action");
    m.emplace_back("tdstore.reads_per_query", qp.reads / queries,
                   "reads/query");
    m.emplace_back("tdstore.invocations_per_query", qp.invocations / queries,
                   "calls/query");
    m.emplace_back("tdstore.wal_bytes_per_action", ip.wal_bytes / actions,
                   "B/action");
    m.emplace_back("tdstore.wal_appends_per_action", ip.wal_appends / actions,
                   "appends/action");
    m.emplace_back("tdstore.fsyncs_per_batch",
                   ip.wal_syncs / static_cast<double>(r.batches),
                   "fsyncs/batch");
    for (const char* family : kFamilies) {
      const std::string name = std::string("tdstore.keys.") + family;
      m.emplace_back(name, layer[name], "keys");
    }
    m.emplace_back("tdstore.snapshot_mb", layer["tdstore.snapshot_mb"], "MB");
    m.emplace_back("tdstore.checkpoint_ms", layer["tdstore.checkpoint_ms"],
                   "ms");
    m.emplace_back("core.kernel_aps", layer["core.kernel_aps"], "actions/s");
    m.emplace_back("core.kernel_ratio", ingest_aps / layer["core.kernel_aps"],
                   "ratio");
    m.emplace_back("driver.late_ms_p95", Percentile(r.late_ms, 95), "ms");
    if (!args.trace_out.empty() && !spans.Write(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  bool correct = true;
  for (const auto& c : checks) {
    std::printf("check %-24s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
    correct = correct && c.ok;
  }
  for (const auto& [what, status] : r.failures) {
    std::printf("failure %s: %s\n", what.c_str(), status.c_str());
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%d,"
              "\"trace\":%d,\"host\":{\"nproc\":%u,\"cpu\":\"%s\","
              "\"calib_ms\":%.3f},\"samples\":{\"batches\":%zu,"
              "\"actions\":%zu,\"queries\":%zu},\"correct\":%s,"
              "\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              JsonEscape(CpuModel()).c_str(), calib_ms, r.fresh_ms.size(),
              r.actions, r.queries.wall_ms.size(), correct ? "true" : "false",
              static_cast<long long>(r.attempted.load()),
              static_cast<long long>(r.failed.load()));
  for (size_t i = 0; i < m.size(); ++i) {
    const auto& [name, value, unit] = m[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", name.c_str(),
                std::isfinite(value) ? value : 0.0, unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace tencentrec::perfbench

int main(int argc, char** argv) {
  return tencentrec::perfbench::Main(argc, argv);
}
