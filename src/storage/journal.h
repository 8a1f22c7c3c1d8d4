#ifndef HCM_STORAGE_JOURNAL_H_
#define HCM_STORAGE_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace hcm::storage {

// Table-based CRC-32 (IEEE 802.3 polynomial, the zlib convention) over a
// byte run. `seed` chains multi-buffer checksums.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// Record types of the per-site write-ahead journal. Payload layouts are
// specified in docs/STORAGE_FORMAT.md; all string identity goes through
// kSymbolDef records (a journal-local dense id -> name table), never
// through process SymbolTable ids, which are not stable across runs.
enum class RecordType : uint8_t {
  kSymbolDef = 1,      // journal-local string id definition
  kLhsRule = 2,        // LHS rule installation (id, rhs site, rule text)
  kRhsRule = 3,        // RHS rule body installation (id, rule text)
  kPeriodicStart = 4,  // periodic timer started (rule id, period, next fire)
  kPeriodicFire = 5,   // periodic timer advanced (rule id, next fire)
  kPrivateWrite = 6,   // CM-private data write (item, value)
  kFireBegin = 7,      // rule firing accepted at the RHS shell
  kFireStep = 8,       // one RHS step completed
  kFireEnd = 9,        // firing's last step completed
  kSnapshotMark = 10,  // snapshot boundary note (sequence number)
};

const char* RecordTypeName(RecordType type);

struct JournalRecord {
  RecordType type = RecordType::kSymbolDef;
  std::string payload;
};

// Append-only binary journal writer with group commit.
//
// Frame layout: u32 payload length | u8 record type | payload | u32 CRC-32
// over (type byte + payload). Appends accumulate in memory; Flush() hands
// the batch to the OS (fwrite + fflush, no fsync), so a committed record
// survives a process crash but not an OS crash or power loss (ROADMAP
// "Storage whose durability claim is checked"). MaybeCommit(now)
// implements group commit on the *simulation* clock: the buffered batch is
// flushed once `commit_interval` of simulated time has passed since the
// previous commit, so commit cost is amortized over every record the site
// produced in the window. A crash that loses the buffered tail is exactly
// the durability gap the recovery protocol's failure classification
// charges for (see Shell::Recover).
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { Close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens (creating if absent) the journal for appending. `existing_bytes`
  // is the byte count of the valid prefix already in the file (0 for a
  // fresh journal); the file is truncated to that length first, discarding
  // any torn tail from a previous incarnation.
  Status Open(const std::string& path, uint64_t existing_bytes = 0);

  bool is_open() const { return file_ != nullptr; }

  void set_commit_interval(Duration d) { commit_interval_ = d; }

  // Buffers one record. Cheap: one frame encode into the pending batch.
  void Append(RecordType type, std::string payload);

  // Writes and flushes every buffered frame to the OS. Idempotent when
  // nothing is buffered. On a write or flush error the batch stays
  // buffered and is not counted as committed.
  Status Flush();

  // Drops the buffered (uncommitted) tail — the dirty-crash path.
  // Returns how many records were lost.
  size_t DropBuffered();

  // Group commit: flushes when `now` has moved at least commit_interval
  // past the last commit. Call after every Append with the simulation time.
  Status MaybeCommit(TimePoint now);

  Status Close();

  // Counters cover the current open-incarnation (reset by Open), with the
  // invariant appended = committed + buffered + dropped. Appended is
  // append history and is never rewound; DropBuffered only moves records
  // from buffered to dropped.
  uint64_t records_appended() const { return records_appended_; }
  uint64_t records_dropped() const { return records_dropped_; }
  uint64_t records_committed() const { return records_committed_; }
  uint64_t bytes_committed() const { return bytes_committed_; }
  uint64_t commits() const { return commits_; }
  size_t buffered_records() const { return buffered_records_; }

 private:
  std::FILE* file_ = nullptr;
  std::string pending_;
  size_t buffered_records_ = 0;
  Duration commit_interval_ = Duration::Millis(50);
  TimePoint last_commit_;
  uint64_t records_appended_ = 0;
  uint64_t records_dropped_ = 0;
  uint64_t records_committed_ = 0;
  uint64_t bytes_committed_ = 0;
  uint64_t commits_ = 0;
};

// Result of validating/reading a journal file front to back. The scan stops
// at the first frame that is incomplete (torn tail) or fails its CRC; every
// record before that point is returned and `valid_bytes` names the clean
// prefix a writer may safely append after (see JournalWriter::Open).
struct JournalScan {
  std::vector<JournalRecord> records;
  uint64_t valid_bytes = 0;  // header + clean frames
  uint64_t file_bytes = 0;
  bool torn = false;          // file extends beyond valid_bytes
  size_t crc_failures = 0;    // 1 when the scan stopped on a CRC mismatch
  std::string ToString() const;
};

// Reads and validates a journal file. NotFound when the file is missing;
// InvalidArgument when the header is not a journal header. A torn or
// CRC-failing tail is NOT an error: the scan reports it and returns the
// valid prefix.
Result<JournalScan> ReadJournal(const std::string& path);

}  // namespace hcm::storage

#endif  // HCM_STORAGE_JOURNAL_H_
