#ifndef HCM_STORAGE_SITE_STORE_H_
#define HCM_STORAGE_SITE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/rule/item.h"
#include "src/storage/journal.h"
#include "src/storage/snapshot.h"

namespace hcm::storage {

// Storage configuration for a deployment (SystemOptions::storage).
struct StorageOptions {
  // Root directory; empty = durability disabled (the default — simulation
  // runs owe nothing to the filesystem unless asked).
  std::string dir;
  // Group-commit window on the simulation clock.
  Duration commit_interval = Duration::Millis(50);
  // Automatic snapshot period (simulation clock); Zero = snapshots only on
  // request (System::CheckpointStorage).
  Duration snapshot_period = Duration::Zero();
  // Checkpoints are incremental deltas off the last base snapshot when
  // true; every checkpoint is a full base when false (the pre-delta
  // behavior, kept for equivalence testing and bisection).
  bool delta_snapshots = true;
  // Compaction bound: once a chain carries more than this many deltas the
  // next delta checkpoint folds the chain into a new base, so recovery
  // never applies more than max_chain_length + 1 chain files.
  int max_chain_length = 8;
  // Retention: bases older than the newest `keep_snapshots` (and their
  // delta files) are deleted by the post-compaction GC. Minimum 1.
  int keep_snapshots = 2;

  bool enabled() const { return !dir.empty(); }
};

// What Recover() hands back: the merged chain+journal state plus how it
// got there, for failure classification and operator reporting.
struct RecoveredState {
  Snapshot state;  // a base record
  bool snapshot_found = false;
  uint64_t snapshot_records = 0;  // journal prefix the chain tip covered
  uint64_t chain_deltas = 0;      // delta links applied over the base
  uint64_t replayed_records = 0;  // journal tail applied on top
  // Journal damage observed by the scan (drives the metric-vs-logical
  // classification together with the outage duration).
  bool torn_tail = false;
  uint64_t truncated_bytes = 0;  // bytes discarded past the valid prefix
  size_t crc_failures = 0;

  bool lost_records() const { return torn_tail || crc_failures > 0; }
  std::string ToString() const;
};

// Durable state for one site: an append-only write-ahead journal plus a
// snapshot chain under `<dir>/<site>/` — numbered base snapshots
// (`snapshot-<records>.snap`) extended by incremental delta files
// (`delta-<records>.snap`) linked through `parent_records`. The file names
// are the whole chain index: recovery resolves the chain by scanning the
// directory, so a checkpoint writes one chain file and no index. The typed
// append helpers encode records (routing repeated strings through a
// journal-local name dictionary emitted as kSymbolDef records) and
// group-commit on the simulation clock.
// Single-writer: under ParallelExecutor only the site's execution lane
// touches its store, mirroring the recorder sharding rule.
class SiteStore {
 public:
  static Result<std::unique_ptr<SiteStore>> Open(const StorageOptions& options,
                                                 const std::string& site);

  const std::string& site() const { return site_; }
  const std::string& dir() const { return dir_; }
  JournalWriter& journal() { return journal_; }

  // --- Typed journal appends (each group-commits via MaybeCommit(now)) ---
  void LogLhsRule(int64_t rule_id, const std::string& rhs_site,
                  const std::string& text, TimePoint now);
  void LogRhsRule(int64_t rule_id, const std::string& text, TimePoint now);
  void LogPeriodicStart(int64_t rule_id, Duration period, TimePoint next_fire,
                        TimePoint now);
  void LogPeriodicFire(int64_t rule_id, TimePoint next_fire, TimePoint now);
  void LogPrivateWrite(const rule::ItemId& item, const Value& value,
                       TimePoint now);
  // Returns the firing's journal sequence number, threaded through the
  // step/end records so recovery can resume half-done chains.
  uint64_t LogFireBegin(int64_t rule_id, int64_t trigger_event_id,
                        TimePoint trigger_time,
                        const std::vector<std::pair<std::string, Value>>&
                            binding,
                        TimePoint now);
  void LogFireStep(uint64_t seq, uint32_t step, TimePoint now);
  void LogFireEnd(uint64_t seq, TimePoint now);

  // Flushes the journal and appends `record` to the chain, stamped with
  // journal_records = the committed record count. A base (no parent)
  // starts a fresh chain and garbage-collects superseded files. A delta is
  // linked to the current tip (whatever parent_records the caller put
  // there is replaced), fails with FailedPrecondition while needs_base()
  // is true, and triggers compaction once the chain exceeds
  // max_chain_length. Returns false without writing a delta when there is
  // nothing to persist (the journal did not advance past the tip, or the
  // delta carries no entries) — the caller keeps its dirty state for the
  // next period.
  Result<bool> WriteSnapshot(Snapshot record);

  // Folds the current base + deltas into a new base at the chain tip and
  // garbage-collects files older than the retention horizon. No-op for a
  // delta-less chain.
  Status Compact();

  // True when the next checkpoint must be a full base: nothing durable
  // yet, or the store just recovered (dirty tracking cannot cover the
  // replayed gap, so the first post-recovery checkpoint re-bases).
  bool needs_base() const { return chain_.empty() || needs_base_; }

  // Deletes dead-future and .tmp chain files, resolves the chain from a
  // directory scan (the newest base whose file loads as a base and covers
  // the record count in its name, extended by each delta that does the same
  // and links to the tip by parent_records), folds base + deltas, replays
  // the journal tail over it, truncates any torn tail, and re-opens the
  // journal for appending after the valid prefix. Safe to call on an
  // empty/missing store (fresh state).
  Result<RecoveredState> Recover();

  // --- Storage stats (surfaced via System::DescribeStorageStats) ---
  uint64_t snapshots_written() const { return snapshots_written_; }
  uint64_t deltas_written() const { return deltas_written_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t snapshot_files_deleted() const { return snapshot_files_deleted_; }
  // Delta links in the live chain (0 right after a base or compaction).
  size_t chain_length() const {
    return chain_.empty() ? 0 : chain_.size() - 1;
  }

 private:
  // One link of the live chain; `records` is the journal record count the
  // element covers (also its file name number).
  struct ChainEntry {
    uint64_t records = 0;
    bool is_base = false;
  };

  SiteStore(std::string site, std::string dir, const StorageOptions& options)
      : site_(std::move(site)),
        dir_(std::move(dir)),
        max_chain_length_(options.max_chain_length < 1
                              ? 1
                              : options.max_chain_length),
        keep_snapshots_(options.keep_snapshots < 1 ? 1
                                                   : options.keep_snapshots) {}

  std::string JournalPath() const { return dir_ + "/journal.wal"; }
  // `snapshot-<records>.snap` for a base, `delta-<records>.snap` else.
  std::string ChainPath(const ChainEntry& entry) const;
  Result<Snapshot> ReadChainFile(const ChainEntry& entry) const;
  // Deletes snapshot/delta files older than the keep_snapshots-th newest
  // base (plus stale .tmp leftovers), counting each removal.
  void RetentionGc();

  // Journal-local name dictionary (see RecordType::kSymbolDef).
  uint32_t DictId(const std::string& name);
  void PutItem(class ByteWriter* w, const rule::ItemId& item);
  void Emit(RecordType type, std::string payload, TimePoint now);

  std::string site_;
  std::string dir_;
  int max_chain_length_;
  int keep_snapshots_;
  JournalWriter journal_;
  std::map<std::string, uint32_t> dict_;
  uint64_t next_fire_seq_ = 1;
  uint64_t snapshots_written_ = 0;
  uint64_t deltas_written_ = 0;
  uint64_t compactions_ = 0;
  uint64_t snapshot_files_deleted_ = 0;
  // Records that predate the current writer incarnation (set by Recover);
  // total on-disk record count = base_records_ + journal_.records_committed().
  uint64_t base_records_ = 0;
  // Live chain, base first. Empty until the first base snapshot.
  std::vector<ChainEntry> chain_;
  bool needs_base_ = false;
};

// Offline inspection of one site's journal directory (`<root>/<site>`),
// without opening a SiteStore: scans and decodes the journal, inventories
// the snapshot and delta files, and reports any damage. Used by
// trace_inspector --journal and by tests that assert on-disk layout.
struct JournalInspection {
  std::string dir;
  uint64_t records = 0;
  uint64_t valid_bytes = 0;
  uint64_t file_bytes = 0;
  bool torn = false;
  size_t crc_failures = 0;
  // Record counts by type name, in RecordType order.
  std::vector<std::pair<std::string, uint64_t>> by_type;
  // Decoded kPrivateWrite records in journal order — the site's durable
  // write stream, diffable against the W events of a recorded trace.
  std::vector<std::pair<rule::ItemId, Value>> private_writes;
  // Snapshot files found: (journal records covered, loadable?), where
  // loadable means the file loads as its kind and covers the record count
  // its name says, as recovery requires of a chain link.
  std::vector<std::pair<uint64_t, bool>> snapshots;
  // Delta files found: (records covered, parent records, loadable?).
  struct DeltaFile {
    uint64_t records = 0;
    uint64_t parent_records = 0;
    bool loadable = false;
  };
  std::vector<DeltaFile> deltas;

  std::string ToString() const;
};

Result<JournalInspection> InspectJournalDir(const std::string& site_dir);

}  // namespace hcm::storage

#endif  // HCM_STORAGE_SITE_STORE_H_
