// Microbenchmarks: TDStore — raw engine ops per engine type, MDB at
// pipeline-sized tables (growth through batched puts, gets out of cache),
// and routed client ops (hash routing + replication overhead).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <vector>

#include "tdstore/client.h"
#include "tdstore/cluster.h"
#include "tdstore/mdb_engine.h"

namespace {

using namespace tencentrec;
using namespace tencentrec::tdstore;

std::string TempFdbPath() {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("bench_fdb_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".fdb"))
      .string();
}

void BM_EnginePut(benchmark::State& state) {
  EngineOptions options;
  options.type = static_cast<EngineType>(state.range(0));
  std::string file_path;
  if (options.type == EngineType::kFdb) {
    file_path = TempFdbPath();
    options.fdb_path = file_path;
  } else if (options.type == EngineType::kRdb) {
    file_path = TempFdbPath();
    options.rdb_path = file_path;
  }
  auto engine = CreateEngine(options);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++ % 4096);
    benchmark::DoNotOptimize((*engine)->Put(key, "value-payload-64-bytes"));
  }
  state.SetItemsProcessed(state.iterations());
  engine->reset();
  if (!file_path.empty()) std::filesystem::remove(file_path);
}
BENCHMARK(BM_EnginePut)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgName("engine(0=mdb,1=ldb,2=fdb,3=rdb)");

void BM_EngineGet(benchmark::State& state) {
  EngineOptions options;
  options.type = static_cast<EngineType>(state.range(0));
  std::string file_path;
  if (options.type == EngineType::kFdb) {
    file_path = TempFdbPath();
    options.fdb_path = file_path;
  } else if (options.type == EngineType::kRdb) {
    file_path = TempFdbPath();
    options.rdb_path = file_path;
  }
  auto engine = CreateEngine(options);
  for (int i = 0; i < 4096; ++i) {
    (void)(*engine)->Put("key" + std::to_string(i), "value");
  }
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++ % 4096);
    benchmark::DoNotOptimize((*engine)->Get(key));
  }
  state.SetItemsProcessed(state.iterations());
  engine->reset();
  if (!file_path.empty()) std::filesystem::remove(file_path);
}
BENCHMARK(BM_EngineGet)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgName("engine(0=mdb,1=ldb,2=fdb,3=rdb)");

/// `n` distinct 24-byte keys shaped like the pipeline's ("pc:app:" plus a
/// zero-padded id), in a scattered order.
std::vector<std::string> PipelineKeys(size_t n) {
  std::vector<std::string> keys(n);
  char buf[32];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "pc:app:%017zu", (i * 2654435761u) % n);
    keys[i] = buf;
  }
  return keys;
}

// The slave-apply shape: 256-key MultiPut runs into one MDB engine that
// grows from empty to 512k keys, the growth every instance table goes
// through during ingest. Items are keys put.
void BM_MdbMultiPutGrowing(benchmark::State& state) {
  constexpr size_t kKeys = 512 * 1024;
  constexpr size_t kRun = 256;
  const std::vector<std::string> keys = PipelineKeys(kKeys);
  for (auto _ : state) {
    MdbEngine engine;
    for (size_t i = 0; i < kKeys; i += kRun) {
      std::vector<std::pair<std::string, std::string>> run;
      run.reserve(kRun);
      for (size_t j = i; j < i + kRun; ++j) run.emplace_back(keys[j], "8 bytes!");
      benchmark::DoNotOptimize(engine.MultiPut(std::move(run)));
    }
    benchmark::DoNotOptimize(engine.Count());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_MdbMultiPutGrowing)->Unit(benchmark::kMillisecond);

// Point gets of present keys over a 256k-key MDB table: out of cache,
// unlike BM_EngineGet's 4,096 keys.
void BM_MdbGetLarge(benchmark::State& state) {
  constexpr size_t kKeys = 256 * 1024;
  const std::vector<std::string> keys = PipelineKeys(kKeys);
  MdbEngine engine;
  for (const std::string& key : keys) (void)engine.Put(key, "8 bytes!");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Get(keys[(i++ * 7919) % kKeys]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MdbGetLarge);

void BM_RoutedClientOps(benchmark::State& state) {
  const bool replicated = state.range(0) != 0;
  Cluster::Options options;
  options.num_data_servers = replicated ? 3 : 1;
  options.num_instances = 8;
  auto cluster = Cluster::Create(options);
  Client client(cluster->get());
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "counter" + std::to_string(i++ % 1024);
    benchmark::DoNotOptimize(client.IncrDouble(key, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutedClientOps)->Arg(0)->Arg(1)->ArgName("replicated");

}  // namespace
