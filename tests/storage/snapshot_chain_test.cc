// Delta-snapshot chains: codec round-trips, crash-atomic file writes,
// chain-vs-compacted recovery equivalence, compaction bounds, retention
// GC, and chain resolution from the directory scan alone: file kind and
// record count checked against the name, exact names only, and leftover
// manifests ignored (docs/STORAGE_FORMAT.md "The chain").

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/site_store.h"
#include "src/storage/snapshot.h"

namespace hcm::storage {
namespace {

std::string ScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Snapshot SampleDelta() {
  Snapshot d;
  d.site = "B";
  d.taken_at_ms = 222222;
  d.parent_records = 40;
  d.journal_records = 55;
  d.lhs_rules.push_back(
      {8, "C", "on W(salary1(n), y) within 30s do W(salary2(n), y)"});
  d.rhs_rules.push_back({8, "on W(salary1(n), y) within 30s do "
                            "W(salary2(n), y)"});
  d.periodic.push_back({9, 60000, 240000});
  d.private_data.emplace_back(rule::ItemId{"Tb", {Value::Str("n2")}},
                              Value::Int(77));
  d.private_tombstones.push_back(rule::ItemId{"stale", {}});
  OutstandingFire f;
  f.seq = 6;
  f.rule_id = 8;
  f.trigger_event_id = 500;
  f.trigger_time_ms = 200000;
  f.next_step = 2;
  f.binding.emplace_back("n", Value::Str("n2"));
  d.fires.push_back(std::move(f));
  d.ended_fires.push_back(5);
  d.translator_write_cursor_ms = 210000;
  d.guarantees.emplace();
  d.guarantees->push_back({"G1@B", false});
  return d;
}

void ExpectDeltasEqual(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(EncodeSnapshot(a), EncodeSnapshot(b));
}

// Deterministic workload helper: one flushed private write per call, so
// every call advances the journal by a known amount.
void WriteOne(SiteStore* store, const std::string& key, int64_t value) {
  store->LogPrivateWrite(rule::ItemId{key, {}}, Value::Int(value),
                         TimePoint::FromMillis(0));
  ASSERT_TRUE(store->journal().Flush().ok());
}

// A delta upserting one key; SiteStore::WriteSnapshot links it to the tip.
Snapshot DeltaOf(const std::string& key, int64_t value) {
  Snapshot d;
  d.taken_at_ms = value;
  d.parent_records = 0;
  d.private_data.emplace_back(rule::ItemId{key, {}}, Value::Int(value));
  return d;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// The private-data keys a recovery restored, in ItemId order.
std::vector<std::string> Keys(const RecoveredState& rec) {
  std::vector<std::string> keys;
  for (const auto& [item, value] : rec.state.private_data) {
    keys.push_back(item.base);
  }
  return keys;
}

using Names = std::vector<std::string>;

// Path of a site-B chain file under `root`.
std::string ChainFile(const std::string& root, const char* prefix,
                      uint64_t records) {
  char path[512];
  std::snprintf(path, sizeof path, "%s/B/%s-%020llu.snap", root.c_str(),
                prefix, static_cast<unsigned long long>(records));
  return path;
}

TEST(SnapshotDeltaTest, BodyRoundTrips) {
  Snapshot in = SampleDelta();
  auto out = DecodeSnapshot(EncodeSnapshot(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectDeltasEqual(in, *out);
}

TEST(SnapshotDeltaTest, EmptyFlagsRoundTrip) {
  Snapshot in;
  in.site = "Q";
  in.parent_records = 3;
  in.journal_records = 3;
  EXPECT_TRUE(in.empty());
  auto out = DecodeSnapshot(EncodeSnapshot(in));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_FALSE(out->is_base());
  EXPECT_EQ(out->parent_records, 3u);
  EXPECT_FALSE(out->translator_write_cursor_ms.has_value());
  EXPECT_FALSE(out->guarantees.has_value());
}

TEST(SnapshotDeltaTest, FileRoundTripsAndLeavesNoTmp) {
  std::string dir = ScratchDir("hcm_delta_file");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/delta-00000000000000000055.snap";
  Snapshot in = SampleDelta();
  ASSERT_TRUE(WriteSnapshotFile(path, in).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto out = ReadSnapshotFile(path, SnapshotKind::kDelta);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectDeltasEqual(in, *out);
}

TEST(SnapshotDeltaTest, CorruptDeltaFileIsRejected) {
  std::string dir = ScratchDir("hcm_delta_corrupt");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/delta-00000000000000000055.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, SampleDelta()).ok());
  // Flip a byte inside the body; the CRC must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  char c;
  f.seekg(20);
  f.get(c);
  f.seekp(20);
  f.put(static_cast<char>(c ^ 0x5a));
  f.close();
  auto read = ReadSnapshotFile(path, SnapshotKind::kDelta);
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

// Bases and deltas share one file layout, so a reader checks the kind it
// expects against the record's parent linkage.
TEST(SnapshotDeltaTest, ReaderRejectsTheOtherKind) {
  std::string dir = ScratchDir("hcm_kind_read");
  std::filesystem::create_directories(dir);
  const std::string base_name = dir + "/snapshot-00000000000000000055.snap";
  const std::string delta_name = dir + "/delta-00000000000000000055.snap";
  Snapshot base = SampleDelta();
  base.parent_records.reset();
  ASSERT_TRUE(WriteSnapshotFile(base_name, SampleDelta()).ok());
  ASSERT_TRUE(WriteSnapshotFile(delta_name, base).ok());
  EXPECT_EQ(ReadSnapshotFile(base_name, SnapshotKind::kBase).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      ReadSnapshotFile(delta_name, SnapshotKind::kDelta).status().code(),
      StatusCode::kCorruption);
  EXPECT_TRUE(ReadSnapshotFile(base_name, SnapshotKind::kDelta).ok());
  EXPECT_TRUE(ReadSnapshotFile(delta_name, SnapshotKind::kBase).ok());
}

// Version 1 kept bases and deltas in two body layouts under two magics. A
// correctly framed body carrying the old version word is Corruption, not
// a misparse, and so is a file under the old delta magic.
TEST(SnapshotDeltaTest, OldFormatVersionIsCorruption) {
  std::string dir = ScratchDir("hcm_old_version");
  std::filesystem::create_directories(dir);
  std::string body = EncodeSnapshot(SampleDelta());
  const uint32_t old_version = 1;
  std::memcpy(body.data(), &old_version, sizeof old_version);
  EXPECT_EQ(DecodeSnapshot(body).status().code(), StatusCode::kCorruption);
  auto framed = [&body](const char* magic) {
    std::string out(magic, 8);
    uint32_t len = static_cast<uint32_t>(body.size());
    uint32_t crc = Crc32(body.data(), body.size());
    out.append(reinterpret_cast<const char*>(&len), sizeof len);
    out += body;
    out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
    return out;
  };
  const std::string path = dir + "/delta-00000000000000000055.snap";
  WriteRaw(path, framed("HCMSNP1\n"));
  EXPECT_EQ(ReadSnapshotFile(path, SnapshotKind::kDelta).status().code(),
            StatusCode::kCorruption);
  WriteRaw(path, framed("HCMDLT1\n"));
  EXPECT_EQ(ReadSnapshotFile(path, SnapshotKind::kDelta).status().code(),
            StatusCode::kCorruption);
}

TEST(SnapshotChainTest, DeltaBeforeBaseIsRejected) {
  std::string root = ScratchDir("hcm_chain_nobase");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->needs_base());
  WriteOne(store->get(), "a", 1);
  auto written = (*store)->WriteSnapshot(DeltaOf("a", 1));
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotChainTest, QuietSiteDeltaIsSkipped) {
  std::string root = ScratchDir("hcm_chain_quiet");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  // No journal advance past the tip (the snapshot mark predates the tip
  // stamp? no — the mark follows it; an empty delta is skipped either way).
  Snapshot quiet;
  quiet.parent_records = 0;
  auto written = (*store)->WriteSnapshot(std::move(quiet));
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_FALSE(*written);
  EXPECT_EQ((*store)->deltas_written(), 0u);
  EXPECT_EQ((*store)->chain_length(), 0u);
}

TEST(SnapshotChainTest, ChainedRecoveryMatchesCompactedRecovery) {
  std::string root_a = ScratchDir("hcm_chain_eq_a");
  std::string root_b = ScratchDir("hcm_chain_eq_b");
  StorageOptions opts;
  opts.dir = root_a;
  opts.commit_interval = Duration::Millis(1000000);
  auto a = SiteStore::Open(opts, "B");
  ASSERT_TRUE(a.ok());

  WriteOne(a->get(), "base_item", 1);
  Snapshot base;
  base.private_data.emplace_back(rule::ItemId{"base_item", {}},
                                 Value::Int(1));
  ASSERT_TRUE((*a)->WriteSnapshot(std::move(base)).ok());
  for (int i = 0; i < 3; ++i) {
    std::string key = "k" + std::to_string(i);
    WriteOne(a->get(), key, 10 + i);
    auto written = (*a)->WriteSnapshot(DeltaOf(key, 10 + i));
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_TRUE(*written);
  }
  // Journal tail past the chain tip, replayed by both recoveries.
  WriteOne(a->get(), "tail_item", 99);
  EXPECT_EQ((*a)->chain_length(), 3u);

  // Clone the site directory before compaction: B recovers through the
  // chain, A recovers through the compacted base. Byte-identical states.
  std::filesystem::create_directories(root_b);
  std::filesystem::copy(root_a + "/B", root_b + "/B");

  ASSERT_TRUE((*a)->Compact().ok());
  EXPECT_EQ((*a)->compactions(), 1u);
  EXPECT_EQ((*a)->chain_length(), 0u);
  auto rec_a = (*a)->Recover();
  ASSERT_TRUE(rec_a.ok()) << rec_a.status().ToString();
  EXPECT_EQ(rec_a->chain_deltas, 0u);

  StorageOptions opts_b = opts;
  opts_b.dir = root_b;
  auto b = SiteStore::Open(opts_b, "B");
  ASSERT_TRUE(b.ok());
  auto rec_b = (*b)->Recover();
  ASSERT_TRUE(rec_b.ok()) << rec_b.status().ToString();
  EXPECT_TRUE(rec_b->snapshot_found);
  EXPECT_EQ(rec_b->chain_deltas, 3u);

  EXPECT_EQ(EncodeSnapshot(rec_a->state), EncodeSnapshot(rec_b->state));
  // Both replay only the tail past their chain tip.
  EXPECT_EQ(rec_a->snapshot_records, rec_b->snapshot_records);
}

TEST(SnapshotChainTest, CompactionBoundsChainLength) {
  std::string root = ScratchDir("hcm_chain_bound");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  opts.max_chain_length = 2;
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "seed", 0);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  for (int i = 0; i < 7; ++i) {
    std::string key = "k" + std::to_string(i);
    WriteOne(store->get(), key, i);
    auto written = (*store)->WriteSnapshot(DeltaOf(key, i));
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_LE((*store)->chain_length(), 2u);
  }
  EXPECT_GE((*store)->compactions(), 2u);
  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->snapshot_found);
  // Every keyed write is restored regardless of which chain link held it.
  size_t found = 0;
  for (const auto& [item, value] : rec->state.private_data) {
    if (item.base.rfind("k", 0) == 0) ++found;
  }
  EXPECT_EQ(found, 7u);
}

TEST(SnapshotChainTest, RetentionGcDeletesSupersededFiles) {
  std::string root = ScratchDir("hcm_chain_gc");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  opts.max_chain_length = 1;
  opts.keep_snapshots = 1;
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "seed", 0);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  for (int i = 0; i < 6; ++i) {
    std::string key = "k" + std::to_string(i);
    WriteOne(store->get(), key, i);
    ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf(key, i)).ok());
  }
  EXPECT_GT((*store)->snapshot_files_deleted(), 0u);
  // With keep_snapshots=1 only the newest base (and deltas above it) stay.
  size_t bases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(root + "/B")) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) ++bases;
  }
  EXPECT_EQ(bases, 1u);
  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok());
  size_t found = 0;
  for (const auto& [item, value] : rec->state.private_data) {
    if (item.base.rfind("k", 0) == 0) ++found;
  }
  EXPECT_EQ(found, 6u);
}

TEST(SnapshotChainTest, RecoveryFallsBackToScanWithoutManifest) {
  std::string root = ScratchDir("hcm_chain_noman");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "seed", 0);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  for (int i = 0; i < 2; ++i) {
    std::string key = "k" + std::to_string(i);
    WriteOne(store->get(), key, i);
    ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf(key, i)).ok());
  }
  // Each checkpoint wrote its chain file and nothing else: the directory
  // is the journal, one base and two deltas.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(root + "/B"),
                          std::filesystem::directory_iterator()),
            4);
  // Recovery reassembles the chain from the directory scan (newest
  // loadable base + parent-linked deltas).
  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->snapshot_found);
  EXPECT_EQ(rec->chain_deltas, 2u);
  EXPECT_EQ(rec->replayed_records, 0u);
  EXPECT_EQ(Keys(*rec), (Names{"k0", "k1"}));
}

// A store written while the chain manifest existed may still hold one.
// Recovery ignores it, even when it lists a shorter chain that would
// load and link, and restores the directory's full chain.
TEST(SnapshotChainTest, LeftoverManifestIsIgnored) {
  std::string root = ScratchDir("hcm_chain_stale_manifest");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot base;
  base.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(base)).ok());
  for (int i = 0; i < 3; ++i) {
    std::string key = "k" + std::to_string(i);
    WriteOne(store->get(), key, i);
    ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf(key, i)).ok());
  }
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 1u);
  ASSERT_EQ(inspection->deltas.size(), 3u);
  const std::string manifest = root + "/B/chain.manifest";
  std::ofstream(manifest) << "HCMCHN1\nB " << inspection->snapshots[0].first
                          << "\nD " << inspection->deltas[0].records << "\n";

  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->chain_deltas, inspection->deltas.size());
  EXPECT_EQ(rec->snapshot_records, inspection->deltas.back().records);
  EXPECT_EQ(rec->replayed_records, 0u);
  EXPECT_EQ(Keys(*rec), (Names{"a", "k0", "k1", "k2"}));
  EXPECT_TRUE(std::filesystem::exists(manifest));
}

// Compaction leaves `snapshot-N` next to the `delta-N` it folded, and the
// old chain's deltas stay until retention drops their base. The scan
// starts from the compacted base and attaches only the deltas written
// after it.
TEST(SnapshotChainTest, RecoveryAfterCompactionStartsAtCompactedBase) {
  std::string root = ScratchDir("hcm_chain_compacted_layout");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot base;
  base.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(base)).ok());
  for (int i = 0; i < 2; ++i) {
    std::string key = "k" + std::to_string(i);
    WriteOne(store->get(), key, i);
    ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf(key, i)).ok());
  }
  ASSERT_TRUE((*store)->Compact().ok());
  WriteOne(store->get(), "k2", 2);
  ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf("k2", 2)).ok());

  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 2u);
  ASSERT_EQ(inspection->deltas.size(), 3u);
  const uint64_t compacted = inspection->snapshots[1].first;
  EXPECT_EQ(inspection->deltas[1].records, compacted);
  EXPECT_EQ(inspection->deltas[2].parent_records, compacted);

  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->chain_deltas, 1u);
  EXPECT_EQ(rec->snapshot_records, inspection->deltas[2].records);
  EXPECT_EQ(Keys(*rec), (Names{"a", "k0", "k1", "k2"}));
}

// A delta whose rename landed just before the crash, before the store
// recorded it in its live chain, is part of the chain on recovery.
TEST(SnapshotChainTest, DeltaLandedBeforeCrashJoinsTheChain) {
  std::string root = ScratchDir("hcm_chain_late_delta");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot base;
  base.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(base)).ok());
  WriteOne(store->get(), "b", 2);
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 1u);
  Snapshot late = DeltaOf("b", 2);
  late.site = "B";
  late.parent_records = inspection->snapshots[0].first;
  late.journal_records = inspection->records;
  ASSERT_TRUE(WriteSnapshotFile(ChainFile(root, "delta", inspection->records),
                                late)
                  .ok());
  EXPECT_EQ((*store)->chain_length(), 0u);

  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->chain_deltas, 1u);
  EXPECT_EQ(rec->snapshot_records, inspection->records);
  EXPECT_EQ(rec->replayed_records, 0u);
  EXPECT_EQ(Keys(*rec), (Names{"a", "b"}));
  EXPECT_EQ((*store)->chain_length(), 1u);
}

TEST(SnapshotChainTest, TornNewestSnapshotFallsBackToOlderBase) {
  std::string root = ScratchDir("hcm_chain_torn");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot first;  // the caller snapshots its full live state
  first.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(first)).ok());
  WriteOne(store->get(), "b", 2);
  Snapshot second;
  second.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  second.private_data.emplace_back(rule::ItemId{"b", {}}, Value::Int(2));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(second)).ok());
  // Simulate the pre-atomic-write failure mode: the newest base is torn
  // on disk (as if a crash interrupted a non-atomic writer). Recovery must
  // skip it, restore from the older base, and replay the journal tail —
  // losing nothing.
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 2u);
  uint64_t newest = inspection->snapshots.back().first;
  char path[512];
  std::snprintf(path, sizeof path, "%s/B/snapshot-%020llu.snap",
                root.c_str(), static_cast<unsigned long long>(newest));
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, 10);  // torn mid-write

  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->snapshot_found);
  EXPECT_LT(rec->snapshot_records, newest);
  ASSERT_EQ(rec->state.private_data.size(), 2u);
  EXPECT_EQ(rec->state.private_data[0].first.base, "a");
  EXPECT_EQ(rec->state.private_data[1].first.base, "b");
}

TEST(SnapshotChainTest, RecoverySweepsTmpAndDeadFutureFiles) {
  std::string root = ScratchDir("hcm_chain_sweep");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  // A .tmp leftover from an interrupted atomic write, and a "future"
  // snapshot whose record count exceeds the surviving journal (its prefix
  // is unreproducible — e.g. written just before a torn tail truncation).
  std::ofstream(root + "/B/snapshot-00000000000000000009.snap.tmp")
      << "partial";
  Snapshot future;
  future.site = "B";
  future.journal_records = 1000000;
  ASSERT_TRUE(
      WriteSnapshotFile(root + "/B/snapshot-00000000000001000000.snap",
                        future)
          .ok());
  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->snapshot_found);
  EXPECT_FALSE(std::filesystem::exists(
      root + "/B/snapshot-00000000000000000009.snap.tmp"));
  EXPECT_FALSE(std::filesystem::exists(
      root + "/B/snapshot-00000000000001000000.snap"));
  EXPECT_GE((*store)->snapshot_files_deleted(), 2u);
}

TEST(SnapshotChainTest, FirstCheckpointAfterRecoveryMustRebase) {
  std::string root = ScratchDir("hcm_chain_rebase");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  WriteOne(store->get(), "b", 2);
  ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf("b", 2)).ok());
  EXPECT_FALSE((*store)->needs_base());
  ASSERT_TRUE((*store)->Recover().ok());
  EXPECT_TRUE((*store)->needs_base());
  WriteOne(store->get(), "c", 3);
  EXPECT_FALSE((*store)->WriteSnapshot(DeltaOf("c", 3)).ok());
  Snapshot full;
  full.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  full.private_data.emplace_back(rule::ItemId{"b", {}}, Value::Int(2));
  full.private_data.emplace_back(rule::ItemId{"c", {}}, Value::Int(3));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(full)).ok());
  EXPECT_FALSE((*store)->needs_base());
  WriteOne(store->get(), "d", 4);
  auto written = (*store)->WriteSnapshot(DeltaOf("d", 4));
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_TRUE(*written);
}

TEST(SnapshotChainTest, InspectionListsDeltaFiles) {
  std::string root = ScratchDir("hcm_chain_inspect");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  ASSERT_TRUE((*store)->WriteSnapshot(Snapshot{}).ok());
  WriteOne(store->get(), "b", 2);
  ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf("b", 2)).ok());
  ASSERT_TRUE((*store)->journal().Close().ok());

  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 1u);
  ASSERT_EQ(inspection->deltas.size(), 1u);
  EXPECT_TRUE(inspection->deltas[0].loadable);
  EXPECT_EQ(inspection->deltas[0].parent_records,
            inspection->snapshots[0].first);
  EXPECT_GT(inspection->deltas[0].records,
            inspection->deltas[0].parent_records);
  EXPECT_NE(inspection->ToString().find("delta @"), std::string::npos);
}

// Recovers and expects the directory scan to restore from the base at
// `base_records` with no deltas and the items a and b restored.
void ExpectRecoveryFromBase(SiteStore* store, uint64_t base_records) {
  auto rec = store->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->snapshot_found);
  EXPECT_EQ(rec->snapshot_records, base_records);
  EXPECT_EQ(rec->chain_deltas, 0u);
  EXPECT_EQ(Keys(*rec), (Names{"a", "b"}));
}

TEST(SnapshotChainTest, RecoveryRejectsDeltaUnderBaseName) {
  std::string root = ScratchDir("hcm_chain_delta_as_base");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot first;
  first.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(first).ok());
  WriteOne(store->get(), "b", 2);
  Snapshot second = first;
  second.private_data.emplace_back(rule::ItemId{"b", {}}, Value::Int(2));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(second)).ok());
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 2u);
  const uint64_t older = inspection->snapshots[0].first;
  const uint64_t newest = inspection->snapshots[1].first;
  // The newest base's name now holds a delta that links to the older base
  // and carries only b: loaded as a base it would drop a.
  Snapshot impostor = DeltaOf("b", 2);
  impostor.site = "B";
  impostor.parent_records = older;
  impostor.journal_records = newest;
  ASSERT_TRUE(
      WriteSnapshotFile(ChainFile(root, "snapshot", newest), impostor).ok());
  ExpectRecoveryFromBase(store->get(), older);
}

TEST(SnapshotChainTest, RecoveryRejectsBaseUnderDeltaName) {
  std::string root = ScratchDir("hcm_chain_base_as_delta");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot first;
  first.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(first)).ok());
  WriteOne(store->get(), "b", 2);
  ASSERT_TRUE((*store)->WriteSnapshot(DeltaOf("b", 2)).ok());
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 1u);
  ASSERT_EQ(inspection->deltas.size(), 1u);
  const uint64_t base_records = inspection->snapshots[0].first;
  const uint64_t delta_records = inspection->deltas[0].records;
  // The delta's name now holds a base carrying only b.
  Snapshot impostor;
  impostor.site = "B";
  impostor.journal_records = delta_records;
  impostor.private_data.emplace_back(rule::ItemId{"b", {}}, Value::Int(2));
  ASSERT_TRUE(
      WriteSnapshotFile(ChainFile(root, "delta", delta_records), impostor)
          .ok());
  ExpectRecoveryFromBase(store->get(), base_records);
}

// A base copied under a higher number still within the journal records
// fewer journal records than its name says. Starting replay at the name
// would skip the committed write of b; the scan skips the copy instead and
// restores from the real base.
TEST(SnapshotChainTest, RecoverySkipsBaseWhoseRecordsDisagreeWithName) {
  std::string root = ScratchDir("hcm_chain_base_renamed");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot base;
  base.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(base)).ok());
  WriteOne(store->get(), "b", 2);
  WriteOne(store->get(), "c", 3);
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 1u);
  const uint64_t real = inspection->snapshots[0].first;
  const uint64_t renamed = inspection->records - 1;
  ASSERT_GT(renamed, real + 2);  // b's write lies between the two
  std::filesystem::copy_file(ChainFile(root, "snapshot", real),
                             ChainFile(root, "snapshot", renamed));
  // The inspector applies the same check and reports the copy unusable.
  inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->snapshots.size(), 2u);
  EXPECT_TRUE(inspection->snapshots[0].second);
  EXPECT_FALSE(inspection->snapshots[1].second);

  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->snapshot_found);
  EXPECT_EQ(rec->snapshot_records, real);
  EXPECT_EQ(Keys(*rec), (Names{"a", "b", "c"}));
}

// Only the exact names the store writes are chain files. An operator's
// `.bak` copies, one numbered past the journal and one holding a loadable
// base within it, are never loaded, and neither they nor a `notes.tmp` is
// deleted or counted by recovery's sweeps or by retention GC.
TEST(SnapshotChainTest, ChainFilesMatchExactNamesOnly) {
  std::string root = ScratchDir("hcm_chain_exact_names");
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);
  opts.keep_snapshots = 1;
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  WriteOne(store->get(), "a", 1);
  Snapshot base;
  base.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(base)).ok());
  WriteOne(store->get(), "b", 2);
  WriteOne(store->get(), "c", 3);
  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  ASSERT_EQ(inspection->records, 7u);
  const uint64_t real = inspection->snapshots[0].first;

  const std::string future_bak = ChainFile(root, "snapshot", 99) + ".bak";
  std::filesystem::copy_file(ChainFile(root, "snapshot", real), future_bak);
  const uint64_t within = inspection->records - 1;
  const std::string within_bak = ChainFile(root, "snapshot", within) + ".bak";
  Snapshot bogus;
  bogus.site = "B";
  bogus.journal_records = within;
  bogus.private_data.emplace_back(rule::ItemId{"bogus", {}}, Value::Int(0));
  ASSERT_TRUE(WriteSnapshotFile(within_bak, bogus).ok());
  const std::string notes = root + "/B/notes.tmp";
  std::ofstream(notes) << "operator notes";

  auto rec = (*store)->Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->snapshot_records, real);
  EXPECT_EQ(Keys(*rec), (Names{"a", "b", "c"}));
  EXPECT_EQ((*store)->snapshot_files_deleted(), 0u);
  EXPECT_TRUE(std::filesystem::exists(future_bak));
  EXPECT_TRUE(std::filesystem::exists(within_bak));
  EXPECT_TRUE(std::filesystem::exists(notes));

  // A new base numbered above the in-journal copy makes retention GC
  // (keep_snapshots = 1) delete the real older base and nothing else.
  WriteOne(store->get(), "d", 4);
  Snapshot next;
  for (const char* key : {"a", "b", "c", "d"}) {
    next.private_data.emplace_back(rule::ItemId{key, {}}, Value::Int(0));
  }
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(next)).ok());
  EXPECT_EQ((*store)->snapshot_files_deleted(), 1u);
  EXPECT_FALSE(std::filesystem::exists(ChainFile(root, "snapshot", real)));
  EXPECT_TRUE(std::filesystem::exists(future_bak));
  EXPECT_TRUE(std::filesystem::exists(within_bak));
  EXPECT_TRUE(std::filesystem::exists(notes));
}

}  // namespace
}  // namespace hcm::storage
