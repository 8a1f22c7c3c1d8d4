// Write-ahead journal framing: round-trips, group-commit batching on the
// simulation clock, torn-tail and CRC-failure handling, and reopen-append.

#include "src/storage/journal.h"

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace hcm::storage {
namespace {

std::string TestPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

// Appends the file's raw bytes (for corruption tests).
std::string ReadRaw(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical zlib test vector: crc32("123456789") = 0xcbf43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  // Chained computation equals one-shot.
  uint32_t chained = Crc32("12345", 5);
  chained = Crc32("6789", 4, chained);
  EXPECT_EQ(chained, 0xcbf43926u);
}

TEST(JournalTest, RoundTripsRecords) {
  std::string path = TestPath("journal_roundtrip.wal");
  JournalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  w.Append(RecordType::kSymbolDef, "alpha");
  w.Append(RecordType::kPrivateWrite, std::string("\x00\x01payload", 9));
  w.Append(RecordType::kFireEnd, "");
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(w.Close().ok());

  auto scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn);
  EXPECT_EQ(scan->crc_failures, 0u);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].type, RecordType::kSymbolDef);
  EXPECT_EQ(scan->records[0].payload, "alpha");
  EXPECT_EQ(scan->records[1].type, RecordType::kPrivateWrite);
  EXPECT_EQ(scan->records[1].payload, std::string("\x00\x01payload", 9));
  EXPECT_EQ(scan->records[2].type, RecordType::kFireEnd);
  EXPECT_EQ(scan->records[2].payload, "");
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);
}

TEST(JournalTest, GroupCommitBatchesOnSimClock) {
  std::string path = TestPath("journal_group_commit.wal");
  JournalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  w.set_commit_interval(Duration::Millis(50));
  // Appends inside the window stay buffered.
  w.Append(RecordType::kFireEnd, "a");
  ASSERT_TRUE(w.MaybeCommit(TimePoint::FromMillis(10)).ok());
  w.Append(RecordType::kFireEnd, "b");
  ASSERT_TRUE(w.MaybeCommit(TimePoint::FromMillis(40)).ok());
  EXPECT_EQ(w.records_committed(), 0u);
  EXPECT_EQ(w.buffered_records(), 2u);
  // Crossing the interval flushes the whole batch at once.
  w.Append(RecordType::kFireEnd, "c");
  ASSERT_TRUE(w.MaybeCommit(TimePoint::FromMillis(61)).ok());
  EXPECT_EQ(w.records_committed(), 3u);
  EXPECT_EQ(w.buffered_records(), 0u);
  EXPECT_EQ(w.commits(), 1u);
  ASSERT_TRUE(w.Close().ok());
  auto scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 3u);
}

TEST(JournalTest, DropBufferedLosesOnlyTheUncommittedTail) {
  std::string path = TestPath("journal_drop.wal");
  JournalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  w.Append(RecordType::kFireEnd, "committed");
  ASSERT_TRUE(w.Flush().ok());
  w.Append(RecordType::kFireEnd, "lost1");
  w.Append(RecordType::kFireEnd, "lost2");
  EXPECT_EQ(w.DropBuffered(), 2u);
  // Append history is not rewound: appended = committed + buffered + dropped.
  EXPECT_EQ(w.records_appended(), 3u);
  EXPECT_EQ(w.records_dropped(), 2u);
  EXPECT_EQ(w.records_committed(), 1u);
  EXPECT_EQ(w.buffered_records(), 0u);
  ASSERT_TRUE(w.Close().ok());
  auto scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "committed");
}

TEST(JournalTest, TornTailIsReportedAndReopenTruncatesIt) {
  std::string path = TestPath("journal_torn.wal");
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    w.Append(RecordType::kFireEnd, "whole");
    w.Append(RecordType::kFireEnd, "torn-away");
    ASSERT_TRUE(w.Flush().ok());
    ASSERT_TRUE(w.Close().ok());
  }
  // Chop the file mid-frame: keep the header, the first frame, and a few
  // bytes of the second (a crash mid-write).
  std::string bytes = ReadRaw(path);
  auto whole = ReadJournal(path);
  ASSERT_TRUE(whole.ok());
  uint64_t full = whole->valid_bytes;
  ASSERT_GT(full, 12u);
  WriteRaw(path, bytes.substr(0, full - 3));

  auto scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn);
  EXPECT_EQ(scan->crc_failures, 0u);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "whole");
  EXPECT_LT(scan->valid_bytes, scan->file_bytes);

  // Reopening after the valid prefix truncates the torn bytes and appends
  // cleanly after them.
  JournalWriter w;
  ASSERT_TRUE(w.Open(path, scan->valid_bytes).ok());
  w.Append(RecordType::kFireEnd, "after-recovery");
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(w.Close().ok());
  auto rescan = ReadJournal(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->torn);
  ASSERT_EQ(rescan->records.size(), 2u);
  EXPECT_EQ(rescan->records[1].payload, "after-recovery");
}

TEST(JournalTest, CrcMismatchStopsTheScan) {
  std::string path = TestPath("journal_crc.wal");
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    w.Append(RecordType::kFireEnd, "good");
    w.Append(RecordType::kFireEnd, "flipped");
    ASSERT_TRUE(w.Flush().ok());
    ASSERT_TRUE(w.Close().ok());
  }
  std::string bytes = ReadRaw(path);
  // Flip one payload byte of the last frame (not the length prefix, so the
  // frame still parses and the CRC catches it).
  bytes[bytes.size() - 6] ^= 0x5a;
  WriteRaw(path, bytes);
  auto scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->crc_failures, 1u);
  EXPECT_TRUE(scan->torn);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "good");
}

// A full disk must surface as an error, never as a commit: a batch the OS
// refused would otherwise inflate records_committed() and, through it,
// the record counts that snapshot files are numbered by.
TEST(JournalTest, FullDiskFailsOpenAndFlushWithoutCommitting) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  {
    JournalWriter w;
    EXPECT_FALSE(w.Open("/dev/full").ok());  // the header flush fails
    EXPECT_FALSE(w.is_open());
  }
  JournalWriter w;
  ASSERT_TRUE(w.Open("/dev/full", /*existing_bytes=*/8).ok());
  w.Append(RecordType::kFireEnd, "lost");
  EXPECT_FALSE(w.Flush().ok());
  EXPECT_EQ(w.records_committed(), 0u);
  EXPECT_EQ(w.commits(), 0u);
  EXPECT_EQ(w.buffered_records(), 1u);
  EXPECT_FALSE(w.Close().ok());
}

TEST(JournalTest, MissingFileIsNotFoundAndGarbageHeaderRejected) {
  EXPECT_EQ(ReadJournal(TestPath("journal_nope.wal")).status().code(),
            StatusCode::kNotFound);
  std::string path = TestPath("journal_garbage.wal");
  WriteRaw(path, "this is not a journal header at all");
  EXPECT_FALSE(ReadJournal(path).ok());
}

}  // namespace
}  // namespace hcm::storage
