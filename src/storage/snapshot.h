#ifndef HCM_STORAGE_SNAPSHOT_H_
#define HCM_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/rule/item.h"

namespace hcm::storage {

// The pieces of a shell's recoverable state, as captured by
// Shell::BuildSnapshot and replayed by Shell::Recover. Everything is keyed
// by NAME (rule text, item base strings, slot-variable names): process
// SymbolTable ids are dense per-run and not stable across restarts, so the
// on-disk form re-interns by name at load and ids come out right by
// construction (the "name-keyed dictionary" contract of DESIGN.md §4e).
struct LhsRuleInstall {
  int64_t rule_id = -1;
  std::string rhs_site;
  std::string text;  // Rule::ToString — round-trips through the parser
};

struct RhsRuleInstall {
  int64_t rule_id = -1;
  std::string text;
};

struct PeriodicTimer {
  int64_t rule_id = -1;
  int64_t period_ms = 0;
  int64_t next_fire_ms = 0;  // absolute simulation time of the next P event
};

// A rule firing whose RHS chain had begun but not completed: recovery
// resumes it at `next_step` with the journaled binding.
struct OutstandingFire {
  uint64_t seq = 0;  // journal-assigned firing sequence number
  int64_t rule_id = -1;
  int64_t trigger_event_id = -1;
  int64_t trigger_time_ms = 0;
  uint32_t next_step = 0;
  // Slot-variable name -> bound value ("now" excluded; rebound on resume).
  std::vector<std::pair<std::string, Value>> binding;
};

// Guarantee validity involving this site, as known at snapshot time.
struct GuaranteeStatus {
  std::string key;
  bool valid = true;
};

// One link of a snapshot chain (DESIGN.md §4h). A *base* has no parent
// and lists the whole state; a *delta* extends the chain element captured
// at journal record count `parent_records` and lists only the entries that
// changed since then, plus tombstones for removals (completed firing
// chains today; the private-item tombstone section is format headroom for
// item deletion). Folding a base and its deltas in chain order
// reconstructs the exact state at `journal_records`, so recovery replays
// only the journal past the chain tip.
struct Snapshot {
  std::string site;
  int64_t taken_at_ms = 0;
  std::optional<uint64_t> parent_records;  // absent = base
  // Journal records already folded into this record; recovery replays
  // only records at index >= journal_records.
  uint64_t journal_records = 0;
  std::vector<LhsRuleInstall> lhs_rules;
  std::vector<RhsRuleInstall> rhs_rules;
  std::vector<PeriodicTimer> periodic;
  // Upserts in a delta; ItemId order.
  std::vector<std::pair<rule::ItemId, Value>> private_data;
  std::vector<rule::ItemId> private_tombstones;
  std::vector<OutstandingFire> fires;  // seq order
  std::vector<uint64_t> ended_fires;   // completed (tombstones)
  // Whole-section replacements: an absent section leaves the parent's
  // value untouched (a base without one starts from the defaults).
  // Translator cursor: the write-serialization point (millis, -1 = none).
  std::optional<int64_t> translator_write_cursor_ms;
  std::optional<std::vector<GuaranteeStatus>> guarantees;

  bool is_base() const { return !parent_records.has_value(); }
  // True when no keyed section carries an entry (a quiet site's delta).
  bool empty() const {
    return lhs_rules.empty() && rhs_rules.empty() && periodic.empty() &&
           private_data.empty() && private_tombstones.empty() &&
           fires.empty() && ended_fires.empty();
  }
};

// Map-keyed mutable fold of a snapshot chain: apply the base and each
// delta in chain order, then replay the journal tail into the same maps.
// Shared by SiteStore::Recover and chain compaction so both resolve a
// chain with identical semantics.
struct FoldState {
  std::map<int64_t, LhsRuleInstall> lhs;
  std::map<int64_t, RhsRuleInstall> rhs;
  std::map<int64_t, PeriodicTimer> periodic;
  std::map<rule::ItemId, Value> private_data;
  std::map<uint64_t, OutstandingFire> fires;
  int64_t taken_at_ms = 0;
  int64_t translator_write_cursor_ms = -1;
  std::vector<GuaranteeStatus> guarantees;

  // Applying a base first resets the fold to empty.
  void Apply(const Snapshot& record);
  // Flattens back to a base record covering `journal_records` records.
  Snapshot ToState(const std::string& site, uint64_t journal_records) const;
};

// Serializes/parses the record body (dictionary + sections; see
// docs/STORAGE_FORMAT.md). The file wrapper adds magic and a whole-body
// CRC so a torn file is detected and skipped in favor of an older one.
std::string EncodeSnapshot(const Snapshot& record);
Result<Snapshot> DecodeSnapshot(const std::string& body);

// File layout: 8-byte magic, u32 body length, body, u32 CRC-32(body).
// Writes are crash-atomic: the bytes go to "<path>.tmp" first and rename
// into place, so a crash mid-write can never leave a torn file under the
// final name (the .tmp leftover is ignored by recovery and GC'd). The
// reader rejects a record that is not of the expected `kind` as
// Corruption, so a chain never takes a delta for a base or the reverse.
enum class SnapshotKind { kBase, kDelta };
Status WriteSnapshotFile(const std::string& path, const Snapshot& record);
Result<Snapshot> ReadSnapshotFile(const std::string& path, SnapshotKind kind);

}  // namespace hcm::storage

#endif  // HCM_STORAGE_SNAPSHOT_H_
