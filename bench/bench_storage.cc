// Microbenchmarks for the durability subsystem (DESIGN.md §4e): raw
// journal framing throughput, the typed SiteStore append path, full-file
// replay, and snapshot+tail recovery. BENCH_storage.json records the
// baseline; the load-bearing claim is journal append >= 1M records/s,
// i.e. durability bookkeeping stays invisible next to rule dispatch.

#include <cstdint>
#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/rule/item.h"
#include "src/storage/journal.h"
#include "src/storage/site_store.h"

namespace hcm {
namespace {

std::string ScratchDir() {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/hcm_bench_storage";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A representative private-write payload: what SiteStore encodes per
// kPrivateWrite record after the name dictionary has warmed up.
std::string SamplePayload(Rng& rng) {
  std::string payload;
  payload.push_back(static_cast<char>(rng.UniformInt(1, 6)));
  uint64_t v = rng.UniformInt(1, 100000);
  payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
  return payload;
}

// Raw frame encode + group commit. One "item" = one appended record; the
// group-commit window (50ms of sim time, one commit per 64 records here)
// amortizes the write+sync exactly as the shell hot path does.
void BM_JournalAppend(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const std::string path = dir + "/append.wal";
  Rng rng(1);
  std::string payload = SamplePayload(rng);
  storage::JournalWriter writer;
  if (!writer.Open(path).ok()) {
    state.SkipWithError("journal open failed");
    return;
  }
  writer.set_commit_interval(Duration::Millis(50));
  int64_t now_ms = 0;
  for (auto _ : state) {
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      writer.Append(storage::RecordType::kPrivateWrite, payload);
      // ~64 records per simulated commit window.
      if ((i & 63) == 63) now_ms += 50;
      benchmark::DoNotOptimize(
          writer.MaybeCommit(TimePoint::FromMillis(now_ms)));
    }
  }
  (void)writer.Close();
  state.SetItemsProcessed(state.iterations() * state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalAppend)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The typed append path the shell actually calls: dictionary lookup,
// item/value encode, frame, group commit.
void BM_SiteStorePrivateWrite(benchmark::State& state) {
  const std::string dir = ScratchDir();
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.commit_interval = Duration::Millis(50);
  auto store = storage::SiteStore::Open(opts, "B");
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  Rng rng(2);
  int64_t now_ms = 0;
  for (auto _ : state) {
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      now_ms += 1;
      (*store)->LogPrivateWrite(
          rule::ItemId{"Tb", {Value::Int(static_cast<int64_t>(i & 7))}},
          Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))),
          TimePoint::FromMillis(now_ms));
    }
  }
  (void)(*store)->journal().Close();
  state.SetItemsProcessed(state.iterations() * state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SiteStorePrivateWrite)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Builds a journal of `n` records once, then measures validating replay
// (ReadJournal): the dominant cost of rejoin after a restart.
void BM_JournalReplay(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const std::string path = dir + "/replay.wal";
  const int n = static_cast<int>(state.range(0));
  {
    Rng rng(3);
    storage::JournalWriter writer;
    if (!writer.Open(path).ok()) {
      state.SkipWithError("journal open failed");
      return;
    }
    std::string payload = SamplePayload(rng);
    for (int i = 0; i < n; ++i) {
      writer.Append(storage::RecordType::kPrivateWrite, payload);
    }
    if (!writer.Flush().ok() || !writer.Close().ok()) {
      state.SkipWithError("journal build failed");
      return;
    }
  }
  for (auto _ : state) {
    auto scan = storage::ReadJournal(path);
    if (!scan.ok() || scan->records.size() != static_cast<size_t>(n)) {
      state.SkipWithError("replay scan failed");
      return;
    }
    benchmark::DoNotOptimize(scan->valid_bytes);
  }
  state.SetItemsProcessed(state.iterations() * n);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalReplay)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// End-to-end rejoin: latest snapshot + decode and apply the journal tail.
// The store holds one snapshot covering half the records, so every
// Recover() decodes the snapshot and replays the other half.
void BM_SiteStoreRecover(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const int n = static_cast<int>(state.range(0));
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.commit_interval = Duration::Millis(50);
  // Opening a SiteStore starts a fresh journal; crash/recover cycles happen
  // on the live store, exactly as Shell::Crash + Shell::Recover do.
  auto store = storage::SiteStore::Open(opts, "B");
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  Rng rng(4);
  int64_t now_ms = 0;
  for (int i = 0; i < n; ++i) {
    now_ms += 1;
    (*store)->LogPrivateWrite(
        rule::ItemId{"Tb", {Value::Int(static_cast<int64_t>(i & 7))}},
        Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))),
        TimePoint::FromMillis(now_ms));
    if (i == n / 2) {
      storage::Snapshot snap;
      snap.site = "B";
      snap.taken_at_ms = now_ms;
      if (!(*store)->WriteSnapshot(std::move(snap)).ok()) {
        state.SkipWithError("snapshot failed");
        return;
      }
    }
  }
  if (!(*store)->journal().Flush().ok()) {
    state.SkipWithError("journal build failed");
    return;
  }
  for (auto _ : state) {
    auto recovered = (*store)->Recover();
    if (!recovered.ok() || recovered->lost_records() ||
        recovered->replayed_records == 0) {
      state.SkipWithError("recover failed");
      return;
    }
    benchmark::DoNotOptimize(recovered->replayed_records);
  }
  (void)(*store)->journal().Close();
  state.SetItemsProcessed(state.iterations() * n);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SiteStoreRecover)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// --- Checkpoint cost: full base snapshots vs. incremental deltas ---

// A million-item-class site state: `items` private entries.
storage::Snapshot BigState(const std::string& site, int items,
                                Rng& rng) {
  storage::Snapshot s;
  s.site = site;
  s.private_data.reserve(static_cast<size_t>(items));
  for (int i = 0; i < items; ++i) {
    s.private_data.emplace_back(
        rule::ItemId{"Tb", {Value::Int(static_cast<int64_t>(i))}},
        Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))));
  }
  return s;
}

// `churn` journal appends touching random keys — the between-checkpoint
// workload both checkpoint benches share, so the measured difference is
// purely the checkpoint representation.
void ApplyChurn(storage::SiteStore& store, int items, int churn, Rng& rng,
                int64_t& now_ms) {
  for (int i = 0; i < churn; ++i) {
    now_ms += 1;
    store.LogPrivateWrite(
        rule::ItemId{"Tb",
                     {Value::Int(static_cast<int64_t>(
                         rng.UniformInt(0, static_cast<uint64_t>(items) - 1)))}},
        Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))),
        TimePoint::FromMillis(now_ms));
  }
}

// Full checkpoint of an `items`-entry site after churn_pct% of it changed:
// enumerate + encode + write the whole state every time. O(items)
// regardless of churn — the cost the delta path exists to avoid.
void BM_CheckpointFull(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const int items = static_cast<int>(state.range(0));
  const int churn = items * static_cast<int>(state.range(1)) / 100;
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.commit_interval = Duration::Millis(50);
  auto store = storage::SiteStore::Open(opts, "B");
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  Rng rng(5);
  storage::Snapshot big = BigState("B", items, rng);
  int64_t now_ms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ApplyChurn(**store, items, churn, rng, now_ms);
    state.ResumeTiming();
    storage::Snapshot snap = big;  // enumerating the full live state
    snap.taken_at_ms = now_ms;
    if (!(*store)->WriteSnapshot(std::move(snap)).ok()) {
      state.SkipWithError("snapshot failed");
      return;
    }
  }
  (void)(*store)->journal().Close();
  state.SetItemsProcessed(state.iterations() * items);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointFull)
    ->Args({100000, 1})
    ->Args({1000000, 1})
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);

// Incremental checkpoint of the same site: only the churned entries are
// enumerated, encoded, and written. O(churn), flat in the site size.
// max_chain_length is set high so the measurement isolates the delta
// write itself; compaction cost is bounded separately by the chain bound
// and amortizes to (full cost) / max_chain_length per checkpoint.
void BM_CheckpointDelta(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const int items = static_cast<int>(state.range(0));
  const int churn = items * static_cast<int>(state.range(1)) / 100;
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.commit_interval = Duration::Millis(50);
  opts.max_chain_length = 1 << 20;
  auto store = storage::SiteStore::Open(opts, "B");
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  Rng rng(6);
  storage::Snapshot base = BigState("B", items, rng);
  if (!(*store)->WriteSnapshot(std::move(base)).ok()) {
    state.SkipWithError("base snapshot failed");
    return;
  }
  int64_t now_ms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ApplyChurn(**store, items, churn, rng, now_ms);
    state.ResumeTiming();
    // Enumerate the dirty set into a delta, exactly as
    // Shell::BuildSnapshot(/*full=*/false) does (upserts only here; the
    // keys just churned).
    storage::Snapshot delta;
    delta.taken_at_ms = now_ms;
    delta.parent_records = 0;  // a delta; the store links it to the tip
    delta.private_data.reserve(static_cast<size_t>(churn));
    for (int i = 0; i < churn; ++i) {
      delta.private_data.emplace_back(
          rule::ItemId{"Tb", {Value::Int(static_cast<int64_t>(i))}},
          Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))));
    }
    auto written = (*store)->WriteSnapshot(std::move(delta));
    if (!written.ok() || !*written) {
      state.SkipWithError("delta write failed");
      return;
    }
  }
  (void)(*store)->journal().Close();
  state.SetItemsProcessed(state.iterations() * items);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointDelta)
    ->Args({100000, 1})
    ->Args({100000, 10})
    ->Args({1000000, 1})
    ->Args({1000000, 10})
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);

// --- Recovery from a delta chain ---

// Builds a store whose newest base (`items` entries) is followed by
// `chain` deltas of 1% churn each, plus a 1%-churn journal tail; each
// Recover() loads the base, folds the chain, and replays the tail.
void BM_RecoverFromChain(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const int items = static_cast<int>(state.range(0));
  const int chain = static_cast<int>(state.range(1));
  const int churn = items / 100;
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.commit_interval = Duration::Millis(50);
  opts.max_chain_length = 1 << 20;
  auto store = storage::SiteStore::Open(opts, "B");
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  Rng rng(7);
  storage::Snapshot base = BigState("B", items, rng);
  if (!(*store)->WriteSnapshot(std::move(base)).ok()) {
    state.SkipWithError("base snapshot failed");
    return;
  }
  int64_t now_ms = 0;
  for (int link = 0; link < chain; ++link) {
    ApplyChurn(**store, items, churn, rng, now_ms);
    storage::Snapshot delta;
    delta.taken_at_ms = now_ms;
    delta.parent_records = 0;
    for (int i = 0; i < churn; ++i) {
      delta.private_data.emplace_back(
          rule::ItemId{"Tb", {Value::Int(static_cast<int64_t>(i))}},
          Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))));
    }
    auto written = (*store)->WriteSnapshot(std::move(delta));
    if (!written.ok() || !*written) {
      state.SkipWithError("delta write failed");
      return;
    }
  }
  ApplyChurn(**store, items, churn, rng, now_ms);  // the journal tail
  if (!(*store)->journal().Flush().ok()) {
    state.SkipWithError("journal flush failed");
    return;
  }
  for (auto _ : state) {
    auto recovered = (*store)->Recover();
    if (!recovered.ok() || recovered->lost_records() ||
        recovered->chain_deltas != static_cast<uint64_t>(chain)) {
      state.SkipWithError("recover failed");
      return;
    }
    benchmark::DoNotOptimize(recovered->state.private_data.size());
  }
  (void)(*store)->journal().Close();
  state.SetItemsProcessed(state.iterations() * items);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RecoverFromChain)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 16})
    ->Unit(benchmark::kMillisecond);

// Same store shape as the 16-link row, but compacted before measuring:
// recovery then loads one folded base + the tail. The delta between this
// row and the 16-link row is what compaction buys at restart.
void BM_RecoverCompactedChain(benchmark::State& state) {
  const std::string dir = ScratchDir();
  const int items = static_cast<int>(state.range(0));
  const int churn = items / 100;
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.commit_interval = Duration::Millis(50);
  opts.max_chain_length = 1 << 20;
  auto store = storage::SiteStore::Open(opts, "B");
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  Rng rng(7);
  storage::Snapshot base = BigState("B", items, rng);
  if (!(*store)->WriteSnapshot(std::move(base)).ok()) {
    state.SkipWithError("base snapshot failed");
    return;
  }
  int64_t now_ms = 0;
  for (int link = 0; link < 16; ++link) {
    ApplyChurn(**store, items, churn, rng, now_ms);
    storage::Snapshot delta;
    delta.taken_at_ms = now_ms;
    delta.parent_records = 0;
    for (int i = 0; i < churn; ++i) {
      delta.private_data.emplace_back(
          rule::ItemId{"Tb", {Value::Int(static_cast<int64_t>(i))}},
          Value::Int(static_cast<int64_t>(rng.UniformInt(1, 100000))));
    }
    auto written = (*store)->WriteSnapshot(std::move(delta));
    if (!written.ok() || !*written) {
      state.SkipWithError("delta write failed");
      return;
    }
  }
  if (!(*store)->Compact().ok()) {
    state.SkipWithError("compact failed");
    return;
  }
  ApplyChurn(**store, items, churn, rng, now_ms);  // the journal tail
  if (!(*store)->journal().Flush().ok()) {
    state.SkipWithError("journal flush failed");
    return;
  }
  for (auto _ : state) {
    auto recovered = (*store)->Recover();
    if (!recovered.ok() || recovered->lost_records() ||
        recovered->chain_deltas != 0) {
      state.SkipWithError("recover failed");
      return;
    }
    benchmark::DoNotOptimize(recovered->state.private_data.size());
  }
  (void)(*store)->journal().Close();
  state.SetItemsProcessed(state.iterations() * items);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RecoverCompactedChain)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hcm

HCM_BENCHMARK_MAIN();
