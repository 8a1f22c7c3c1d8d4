// Snapshot encode/decode round-trips and file-level corruption handling.

#include "src/storage/snapshot.h"

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/storage/site_store.h"

namespace hcm::storage {
namespace {

std::string TestPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

Snapshot SampleState() {
  Snapshot s;
  s.site = "B";
  s.taken_at_ms = 123456;
  s.journal_records = 42;
  s.lhs_rules.push_back(
      {7, "B", "on W(salary1(n), y) within 30s do W(salary2(n), y)"});
  s.rhs_rules.push_back({7, "on W(salary1(n), y) within 30s do "
                            "W(salary2(n), y)"});
  s.periodic.push_back({9, 60000, 180000});
  s.private_data.emplace_back(rule::ItemId{"Tb", {Value::Str("n1")}},
                              Value::Int(99));
  s.private_data.emplace_back(rule::ItemId{"cursor", {}}, Value::Str("x"));
  OutstandingFire f;
  f.seq = 5;
  f.rule_id = 7;
  f.trigger_event_id = 314;
  f.trigger_time_ms = 120000;
  f.next_step = 1;
  f.binding.emplace_back("n", Value::Str("n1"));
  f.binding.emplace_back("y", Value::Int(50000));
  s.fires.push_back(std::move(f));
  s.translator_write_cursor_ms = 110000;
  s.guarantees.emplace();
  s.guarantees->push_back({"G1@B", true});
  s.guarantees->push_back({"G2@B", false});
  return s;
}

void ExpectStatesEqual(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.taken_at_ms, b.taken_at_ms);
  EXPECT_EQ(a.parent_records, b.parent_records);
  EXPECT_EQ(a.journal_records, b.journal_records);
  ASSERT_EQ(a.lhs_rules.size(), b.lhs_rules.size());
  for (size_t i = 0; i < a.lhs_rules.size(); ++i) {
    EXPECT_EQ(a.lhs_rules[i].rule_id, b.lhs_rules[i].rule_id);
    EXPECT_EQ(a.lhs_rules[i].rhs_site, b.lhs_rules[i].rhs_site);
    EXPECT_EQ(a.lhs_rules[i].text, b.lhs_rules[i].text);
  }
  ASSERT_EQ(a.rhs_rules.size(), b.rhs_rules.size());
  for (size_t i = 0; i < a.rhs_rules.size(); ++i) {
    EXPECT_EQ(a.rhs_rules[i].rule_id, b.rhs_rules[i].rule_id);
    EXPECT_EQ(a.rhs_rules[i].text, b.rhs_rules[i].text);
  }
  ASSERT_EQ(a.periodic.size(), b.periodic.size());
  for (size_t i = 0; i < a.periodic.size(); ++i) {
    EXPECT_EQ(a.periodic[i].rule_id, b.periodic[i].rule_id);
    EXPECT_EQ(a.periodic[i].period_ms, b.periodic[i].period_ms);
    EXPECT_EQ(a.periodic[i].next_fire_ms, b.periodic[i].next_fire_ms);
  }
  ASSERT_EQ(a.private_data.size(), b.private_data.size());
  for (size_t i = 0; i < a.private_data.size(); ++i) {
    EXPECT_EQ(a.private_data[i].first, b.private_data[i].first);
    EXPECT_EQ(a.private_data[i].second, b.private_data[i].second);
  }
  ASSERT_EQ(a.fires.size(), b.fires.size());
  for (size_t i = 0; i < a.fires.size(); ++i) {
    EXPECT_EQ(a.fires[i].seq, b.fires[i].seq);
    EXPECT_EQ(a.fires[i].rule_id, b.fires[i].rule_id);
    EXPECT_EQ(a.fires[i].trigger_event_id, b.fires[i].trigger_event_id);
    EXPECT_EQ(a.fires[i].trigger_time_ms, b.fires[i].trigger_time_ms);
    EXPECT_EQ(a.fires[i].next_step, b.fires[i].next_step);
    EXPECT_EQ(a.fires[i].binding, b.fires[i].binding);
  }
  EXPECT_EQ(a.private_tombstones, b.private_tombstones);
  EXPECT_EQ(a.ended_fires, b.ended_fires);
  EXPECT_EQ(a.translator_write_cursor_ms, b.translator_write_cursor_ms);
  ASSERT_EQ(a.guarantees.has_value(), b.guarantees.has_value());
  if (!a.guarantees) return;
  ASSERT_EQ(a.guarantees->size(), b.guarantees->size());
  for (size_t i = 0; i < a.guarantees->size(); ++i) {
    EXPECT_EQ((*a.guarantees)[i].key, (*b.guarantees)[i].key);
    EXPECT_EQ((*a.guarantees)[i].valid, (*b.guarantees)[i].valid);
  }
}

TEST(SnapshotTest, BodyRoundTrips) {
  Snapshot in = SampleState();
  auto out = DecodeSnapshot(EncodeSnapshot(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectStatesEqual(in, *out);
}

TEST(SnapshotTest, EmptyStateRoundTrips) {
  Snapshot in;
  in.site = "A";
  auto out = DecodeSnapshot(EncodeSnapshot(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectStatesEqual(in, *out);
}

TEST(SnapshotTest, FileRoundTrips) {
  std::string path = TestPath("snapshot_roundtrip.snap");
  Snapshot in = SampleState();
  ASSERT_TRUE(WriteSnapshotFile(path, in).ok());
  auto out = ReadSnapshotFile(path, SnapshotKind::kBase);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectStatesEqual(in, *out);
}

TEST(SnapshotTest, CorruptFileIsRejected) {
  std::string path = TestPath("snapshot_corrupt.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, SampleState()).ok());
  // Flip a byte in the middle of the body; the whole-body CRC must catch it.
  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  EXPECT_FALSE(ReadSnapshotFile(path, SnapshotKind::kBase).ok());
  // A truncated file is rejected too.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, 10, f), 10u);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadSnapshotFile(path, SnapshotKind::kBase).ok());
  EXPECT_EQ(ReadSnapshotFile(TestPath("snapshot_missing.snap"),
                             SnapshotKind::kBase)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SiteStoreRecoveryTest, DirtyCrashReemitsDroppedSymbolDefs) {
  std::string root = ::testing::TempDir() + "/hcm_dirty_dict_store";
  std::filesystem::remove_all(root);
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);  // manual flushes only
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  TimePoint t = TimePoint::FromMillis(0);
  (*store)->LogPrivateWrite(rule::ItemId{"committed", {}}, Value::Int(1), t);
  ASSERT_TRUE((*store)->journal().Flush().ok());
  // This write introduces the name "lost"; its kSymbolDef sits in the
  // uncommitted buffer when the dirty crash drops it.
  (*store)->LogPrivateWrite(rule::ItemId{"lost", {}}, Value::Int(2), t);
  EXPECT_EQ((*store)->journal().DropBuffered(), 2u);

  auto recovered = (*store)->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->state.private_data.size(), 1u);
  EXPECT_EQ(recovered->state.private_data[0].first.base, "committed");

  // The recovered incarnation reuses the name: the definition must be
  // re-emitted, else every reference to its id decodes to "".
  (*store)->LogPrivateWrite(rule::ItemId{"lost", {}}, Value::Int(3), t);
  ASSERT_TRUE((*store)->journal().Close().ok());

  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  ASSERT_EQ(inspection->private_writes.size(), 2u);
  EXPECT_EQ(inspection->private_writes[0].first.base, "committed");
  EXPECT_EQ(inspection->private_writes[1].first.base, "lost");
  EXPECT_EQ(inspection->private_writes[1].second, Value::Int(3));

  // A second recovery decodes the re-emitted definition too.
  auto again = (*store)->Recover();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->state.private_data.size(), 2u);
  EXPECT_EQ(again->state.private_data[0].first.base, "committed");
  EXPECT_EQ(again->state.private_data[1].first.base, "lost");
}

TEST(SiteStoreRecoveryTest, SnapshotSeqStaysAccurateAcrossRecoveries) {
  std::string root = ::testing::TempDir() + "/hcm_reseq_store";
  std::filesystem::remove_all(root);
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(1000000);  // manual flushes only
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  TimePoint t = TimePoint::FromMillis(0);
  (*store)->LogPrivateWrite(rule::ItemId{"a", {}}, Value::Int(1), t);
  ASSERT_TRUE((*store)->journal().Flush().ok());
  Snapshot snap1;  // the caller snapshots its full live state
  snap1.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(snap1)).ok());
  ASSERT_TRUE((*store)->Recover().ok());

  // Post-recovery snapshot: its sequence number must equal the on-disk
  // record count, not double-count the pre-crash commits — an inflated
  // seq makes a later recovery skip replaying real records.
  (*store)->LogPrivateWrite(rule::ItemId{"b", {}}, Value::Int(2), t);
  ASSERT_TRUE((*store)->journal().Flush().ok());
  Snapshot snap2;
  snap2.private_data.emplace_back(rule::ItemId{"a", {}}, Value::Int(1));
  snap2.private_data.emplace_back(rule::ItemId{"b", {}}, Value::Int(2));
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(snap2)).ok());
  (*store)->LogPrivateWrite(rule::ItemId{"c", {}}, Value::Int(3), t);
  ASSERT_TRUE((*store)->journal().Flush().ok());

  auto recovered = (*store)->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->snapshot_found);
  ASSERT_EQ(recovered->state.private_data.size(), 3u);
  EXPECT_EQ(recovered->state.private_data[0].first.base, "a");
  EXPECT_EQ(recovered->state.private_data[1].first.base, "b");
  EXPECT_EQ(recovered->state.private_data[2].first.base, "c");

  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok());
  for (const auto& [covered, loadable] : inspection->snapshots) {
    EXPECT_LE(covered, inspection->records);
    EXPECT_TRUE(loadable);
  }
}

TEST(SiteStoreInspectionTest, ReportsRecordsAndSnapshots) {
  std::string root = ::testing::TempDir() + "/hcm_inspect_store";
  std::filesystem::remove_all(root);
  StorageOptions opts;
  opts.dir = root;
  opts.commit_interval = Duration::Millis(10);
  auto store = SiteStore::Open(opts, "B");
  ASSERT_TRUE(store.ok());
  TimePoint t = TimePoint::FromMillis(0);
  (*store)->LogLhsRule(1, "B", "on P(x) within 1s do N(y)", t);
  (*store)->LogPrivateWrite(rule::ItemId{"Tb", {Value::Str("n1")}},
                            Value::Int(5), t);
  (*store)->LogPrivateWrite(rule::ItemId{"Tb", {Value::Str("n1")}},
                            Value::Int(6), t);
  Snapshot snap;
  ASSERT_TRUE((*store)->WriteSnapshot(std::move(snap)).ok());
  ASSERT_TRUE((*store)->journal().Close().ok());

  auto inspection = InspectJournalDir(root + "/B");
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  EXPECT_FALSE(inspection->torn);
  EXPECT_EQ(inspection->crc_failures, 0u);
  ASSERT_EQ(inspection->private_writes.size(), 2u);
  EXPECT_EQ(inspection->private_writes[0].second, Value::Int(5));
  EXPECT_EQ(inspection->private_writes[1].second, Value::Int(6));
  ASSERT_EQ(inspection->snapshots.size(), 1u);
  EXPECT_TRUE(inspection->snapshots[0].second);  // loadable
  // Type breakdown covers every record the scan saw.
  uint64_t total = 0;
  for (const auto& [type, n] : inspection->by_type) total += n;
  EXPECT_EQ(total, inspection->records);
  EXPECT_GT(inspection->records, 0u);
}

}  // namespace
}  // namespace hcm::storage
