#include "src/storage/site_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/storage/codec.h"

namespace hcm::storage {

namespace {

// Journal-record payload decode helpers share the journal-local name
// dictionary accumulated from kSymbolDef records.
std::string DictName(const std::vector<std::string>& dict, uint32_t id) {
  return id < dict.size() ? dict[id] : std::string();
}

rule::ItemId ReadItem(ByteReader* r, const std::vector<std::string>& dict) {
  rule::ItemId item;
  item.base = DictName(dict, r->U32());
  uint32_t n = r->U32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) item.args.push_back(r->Val());
  return item;
}

// File name of a chain link: `snapshot-<records>.snap` for a base,
// `delta-<records>.snap` for a delta, the count zero-padded to 20 digits.
std::string ChainFileName(uint64_t records, bool is_base) {
  return StrFormat(is_base ? "snapshot-%020llu.snap" : "delta-%020llu.snap",
                   static_cast<unsigned long long>(records));
}

// Directory inventory of snapshot-chain files: base and delta files keyed
// by the journal record count in their names, plus stale .tmp leftovers
// from interrupted atomic writes.
struct ChainFiles {
  std::map<uint64_t, std::string> bases;
  std::map<uint64_t, std::string> deltas;
  std::vector<std::string> tmps;
};

ChainFiles ListChainFiles(const std::string& dir) {
  ChainFiles out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    std::string name = entry.path().filename().string();
    const bool tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (tmp) name.resize(name.size() - 4);
    // sscanf ignores trailing characters, so a name counts only when it is
    // exactly what ChainFileName writes, or that plus the `.tmp` of an
    // interrupted atomic write: an operator's `.bak` copy or `notes.tmp`
    // is not a chain file.
    unsigned long long seq = 0;
    const bool base = std::sscanf(name.c_str(), "snapshot-%llu", &seq) == 1 &&
                      name == ChainFileName(seq, true);
    const bool delta = !base &&
                       std::sscanf(name.c_str(), "delta-%llu", &seq) == 1 &&
                       name == ChainFileName(seq, false);
    if (tmp && (base || delta)) {
      out.tmps.push_back(path);
    } else if (base) {
      out.bases.emplace(seq, path);
    } else if (delta) {
      out.deltas.emplace(seq, path);
    }
  }
  return out;
}

// Loads one chain link, which must be of the kind its name says and cover
// exactly the journal record count its name says.
Result<Snapshot> LoadLink(const std::string& path, SnapshotKind kind,
                          uint64_t records) {
  HCM_ASSIGN_OR_RETURN(Snapshot record, ReadSnapshotFile(path, kind));
  if (record.journal_records != records) {
    return Status::Corruption(StrFormat(
        "%s covers %llu journal records, not the %llu its name says",
        path.c_str(), static_cast<unsigned long long>(record.journal_records),
        static_cast<unsigned long long>(records)));
  }
  return record;
}

}  // namespace

std::string RecoveredState::ToString() const {
  std::string out = StrFormat(
      "recovered %s: snapshot %s (%llu records", state.site.c_str(),
      snapshot_found ? "loaded" : "none",
      static_cast<unsigned long long>(snapshot_records));
  if (chain_deltas > 0) {
    out += StrFormat(" via %llu deltas",
                     static_cast<unsigned long long>(chain_deltas));
  }
  out += StrFormat("), %llu replayed",
                   static_cast<unsigned long long>(replayed_records));
  if (crc_failures > 0) {
    out += StrFormat(", CRC failure (%llu bytes discarded)",
                     static_cast<unsigned long long>(truncated_bytes));
  } else if (torn_tail) {
    out += StrFormat(", torn tail (%llu bytes discarded)",
                     static_cast<unsigned long long>(truncated_bytes));
  }
  return out;
}

Result<std::unique_ptr<SiteStore>> SiteStore::Open(
    const StorageOptions& options, const std::string& site) {
  if (!options.enabled()) {
    return Status::InvalidArgument("storage directory not configured");
  }
  std::string dir = options.dir + "/" + site;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create storage dir " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<SiteStore> store(new SiteStore(site, dir, options));
  store->journal_.set_commit_interval(options.commit_interval);
  // A surviving journal must not be truncated by the fresh incarnation:
  // open positioned at its end and let Recover() (which a reopening caller
  // runs before appending) validate the prefix, drop any torn tail, and
  // set the base record count. Opening blind with 0 existing bytes would
  // destroy the file before recovery could read it.
  std::error_code size_ec;
  uint64_t existing =
      std::filesystem::file_size(store->JournalPath(), size_ec);
  if (size_ec) existing = 0;
  HCM_RETURN_IF_ERROR(store->journal_.Open(store->JournalPath(), existing));
  return store;
}

std::string SiteStore::ChainPath(const ChainEntry& entry) const {
  return dir_ + "/" + ChainFileName(entry.records, entry.is_base);
}

Result<Snapshot> SiteStore::ReadChainFile(const ChainEntry& entry) const {
  return ReadSnapshotFile(ChainPath(entry), entry.is_base
                                                ? SnapshotKind::kBase
                                                : SnapshotKind::kDelta);
}

uint32_t SiteStore::DictId(const std::string& name) {
  auto it = dict_.find(name);
  if (it != dict_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(dict_.size());
  dict_.emplace(name, id);
  ByteWriter w;
  w.U32(id);
  w.Str(name);
  journal_.Append(RecordType::kSymbolDef, w.Take());
  return id;
}

void SiteStore::PutItem(ByteWriter* w, const rule::ItemId& item) {
  w->U32(DictId(item.base));
  w->U32(static_cast<uint32_t>(item.args.size()));
  for (const auto& a : item.args) w->Val(a);
}

void SiteStore::Emit(RecordType type, std::string payload, TimePoint now) {
  journal_.Append(type, std::move(payload));
  Status s = journal_.MaybeCommit(now);
  if (!s.ok()) {
    HCM_LOG(Error) << "journal commit failed at " << site_ << ": "
                   << s.ToString();
  }
}

void SiteStore::LogLhsRule(int64_t rule_id, const std::string& rhs_site,
                           const std::string& text, TimePoint now) {
  ByteWriter w;
  w.I64(rule_id);
  w.U32(DictId(rhs_site));
  w.Str(text);
  Emit(RecordType::kLhsRule, w.Take(), now);
}

void SiteStore::LogRhsRule(int64_t rule_id, const std::string& text,
                           TimePoint now) {
  ByteWriter w;
  w.I64(rule_id);
  w.Str(text);
  Emit(RecordType::kRhsRule, w.Take(), now);
}

void SiteStore::LogPeriodicStart(int64_t rule_id, Duration period,
                                 TimePoint next_fire, TimePoint now) {
  ByteWriter w;
  w.I64(rule_id);
  w.I64(period.millis());
  w.I64(next_fire.millis());
  Emit(RecordType::kPeriodicStart, w.Take(), now);
}

void SiteStore::LogPeriodicFire(int64_t rule_id, TimePoint next_fire,
                                TimePoint now) {
  ByteWriter w;
  w.I64(rule_id);
  w.I64(next_fire.millis());
  Emit(RecordType::kPeriodicFire, w.Take(), now);
}

void SiteStore::LogPrivateWrite(const rule::ItemId& item, const Value& value,
                                TimePoint now) {
  ByteWriter w;
  PutItem(&w, item);
  w.Val(value);
  Emit(RecordType::kPrivateWrite, w.Take(), now);
}

uint64_t SiteStore::LogFireBegin(
    int64_t rule_id, int64_t trigger_event_id, TimePoint trigger_time,
    const std::vector<std::pair<std::string, Value>>& binding, TimePoint now) {
  uint64_t seq = next_fire_seq_++;
  ByteWriter w;
  w.U64(seq);
  w.I64(rule_id);
  w.I64(trigger_event_id);
  w.I64(trigger_time.millis());
  w.U32(static_cast<uint32_t>(binding.size()));
  for (const auto& [name, value] : binding) {
    w.U32(DictId(name));
    w.Val(value);
  }
  Emit(RecordType::kFireBegin, w.Take(), now);
  return seq;
}

void SiteStore::LogFireStep(uint64_t seq, uint32_t step, TimePoint now) {
  ByteWriter w;
  w.U64(seq);
  w.U32(step);
  Emit(RecordType::kFireStep, w.Take(), now);
}

void SiteStore::LogFireEnd(uint64_t seq, TimePoint now) {
  ByteWriter w;
  w.U64(seq);
  Emit(RecordType::kFireEnd, w.Take(), now);
}

void SiteStore::RetentionGc() {
  ChainFiles files = ListChainFiles(dir_);
  for (const std::string& path : files.tmps) {
    if (std::remove(path.c_str()) == 0) ++snapshot_files_deleted_;
  }
  if (files.bases.size() <= static_cast<size_t>(keep_snapshots_)) return;
  // Cutoff = record count of the keep_snapshots_-th newest base. Older
  // bases and any delta at or below the cutoff are superseded: deltas
  // above the cutoff still chain (parent linkage is by record count, and
  // the kept base covers exactly the cutoff prefix).
  auto it = files.bases.end();
  for (int i = 0; i < keep_snapshots_; ++i) --it;
  uint64_t cutoff = it->first;
  for (const auto& [seq, path] : files.bases) {
    if (seq < cutoff && std::remove(path.c_str()) == 0) {
      ++snapshot_files_deleted_;
    }
  }
  for (const auto& [seq, path] : files.deltas) {
    if (seq <= cutoff && std::remove(path.c_str()) == 0) {
      ++snapshot_files_deleted_;
    }
  }
}

Result<bool> SiteStore::WriteSnapshot(Snapshot record) {
  const bool base = record.is_base();
  if (!base && needs_base()) {
    return Status::FailedPrecondition(
        "site " + site_ + " needs a base snapshot before deltas");
  }
  HCM_RETURN_IF_ERROR(journal_.Flush());
  const ChainEntry entry{base_records_ + journal_.records_committed(), base};
  if (!base) {
    uint64_t tip = chain_.back().records;
    // Nothing to persist: the journal did not move past the chain tip
    // (every shell state change is journaled, so same count = same state)
    // or the dirty tracker found no changed entries (the only journal
    // advance was bookkeeping such as snapshot marks). The caller keeps
    // its dirty state.
    if (entry.records == tip || record.empty()) return false;
    record.parent_records = tip;
  }
  record.site = site_;
  record.journal_records = entry.records;
  HCM_RETURN_IF_ERROR(WriteSnapshotFile(ChainPath(entry), record));
  if (base) {
    ++snapshots_written_;
    chain_.clear();
    needs_base_ = false;
  } else {
    ++deltas_written_;
  }
  chain_.push_back(entry);
  if (base) {
    RetentionGc();
    ByteWriter w;
    w.U64(entry.records);
    journal_.Append(RecordType::kSnapshotMark, w.Take());
    HCM_RETURN_IF_ERROR(journal_.Flush());
  } else if (chain_.size() > static_cast<size_t>(max_chain_length_) + 1) {
    HCM_RETURN_IF_ERROR(Compact());
  }
  return true;
}

Status SiteStore::Compact() {
  if (chain_.size() < 2) return Status::OK();
  FoldState fold;
  for (const ChainEntry& entry : chain_) {
    HCM_ASSIGN_OR_RETURN(Snapshot record, ReadChainFile(entry));
    fold.Apply(record);
  }
  const ChainEntry tip{chain_.back().records, true};
  HCM_RETURN_IF_ERROR(
      WriteSnapshotFile(ChainPath(tip), fold.ToState(site_, tip.records)));
  ++compactions_;
  chain_.clear();
  chain_.push_back(tip);
  RetentionGc();
  return Status::OK();
}

Result<RecoveredState> SiteStore::Recover() {
  // The in-process writer may still be open (simulated crash); release the
  // handle before scanning so the scan sees exactly the committed bytes.
  HCM_RETURN_IF_ERROR(journal_.Close());

  RecoveredState out;
  JournalScan scan;
  auto scanned = ReadJournal(JournalPath());
  if (scanned.ok()) {
    scan = std::move(*scanned);
  } else if (scanned.status().code() != StatusCode::kNotFound) {
    return scanned.status();
  }
  out.torn_tail = scan.torn;
  out.crc_failures = scan.crc_failures;
  out.truncated_bytes = scan.file_bytes - scan.valid_bytes;
  const uint64_t records = scan.records.size();

  // Inventory the chain files. Dead-future files — record counts beyond
  // the surviving journal — reference state the journal can no longer
  // reproduce (a torn tail ate their prefix); they are useless forever and
  // deleted here. Stale .tmp leftovers from interrupted atomic writes go
  // the same way.
  ChainFiles files = ListChainFiles(dir_);
  for (const std::string& path : files.tmps) {
    if (std::remove(path.c_str()) == 0) ++snapshot_files_deleted_;
  }
  for (auto* kind : {&files.bases, &files.deltas}) {
    const auto dead = kind->upper_bound(records);
    for (auto it = dead; it != kind->end(); ++it) {
      if (std::remove(it->second.c_str()) == 0) ++snapshot_files_deleted_;
    }
    kind->erase(dead, kind->end());
  }

  // Resolve the chain from the directory alone: the newest base that
  // passes LoadLink, extended in ascending order by every delta that
  // passes LoadLink and names the current tip as its parent. A file that
  // fails a check is skipped: a base in favor of an older one (the journal
  // can always be replayed from further back), a delta as a member of
  // another (older or broken) chain. Each link folds in as it is found.
  FoldState fold;
  std::vector<ChainEntry> chain;
  for (auto it = files.bases.rbegin(); it != files.bases.rend(); ++it) {
    auto base = LoadLink(it->second, SnapshotKind::kBase, it->first);
    if (!base.ok()) {
      HCM_LOG(Warning) << "skipping snapshot " << it->second << ": "
                       << base.status().ToString();
      continue;
    }
    fold.Apply(*base);
    chain.push_back(ChainEntry{it->first, true});
    for (auto d = files.deltas.upper_bound(it->first); d != files.deltas.end();
         ++d) {
      auto delta = LoadLink(d->second, SnapshotKind::kDelta, d->first);
      if (!delta.ok() || delta->parent_records != chain.back().records) {
        continue;
      }
      fold.Apply(*delta);
      chain.push_back(ChainEntry{d->first, false});
    }
    break;
  }

  // Replay the journal tail over the fold.
  uint64_t max_fire_seq = 0;
  if (!chain.empty()) {
    out.snapshot_found = true;
    out.snapshot_records = chain.back().records;
    out.chain_deltas = chain.size() - 1;
  }
  for (const auto& [seq, f] : fold.fires) {
    max_fire_seq = std::max(max_fire_seq, seq);
  }

  // Records are id-keyed, so replay is idempotent over the chain-covered
  // prefix; kSymbolDef records from the whole file rebuild the name
  // dictionary.
  //
  // The writer-side map is rebuilt from the scan alone: after a dirty
  // crash, DropBuffered may have discarded buffered kSymbolDef records
  // whose names dict_ still maps, and a stale entry would stop DictId()
  // from ever re-emitting the definition — leaving every later reference
  // to that id undecodable. Committed defs are a dense id prefix (defs
  // are allocated and flushed in order), so dict_.size() stays the next
  // free id after the rebuild.
  dict_.clear();
  std::vector<std::string> dict;
  uint64_t start = out.snapshot_records;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const JournalRecord& rec = scan.records[i];
    ByteReader r(rec.payload);
    if (rec.type == RecordType::kSymbolDef) {
      uint32_t id = r.U32();
      std::string name = r.Str();
      if (id >= dict.size()) dict.resize(id + 1);
      dict[id] = name;
      dict_[name] = id;
      continue;
    }
    bool replay = i >= start;
    switch (rec.type) {
      case RecordType::kLhsRule: {
        LhsRuleInstall install;
        install.rule_id = r.I64();
        install.rhs_site = DictName(dict, r.U32());
        install.text = r.Str();
        if (replay) fold.lhs[install.rule_id] = std::move(install);
        break;
      }
      case RecordType::kRhsRule: {
        RhsRuleInstall install;
        install.rule_id = r.I64();
        install.text = r.Str();
        if (replay) fold.rhs[install.rule_id] = std::move(install);
        break;
      }
      case RecordType::kPeriodicStart: {
        PeriodicTimer p;
        p.rule_id = r.I64();
        p.period_ms = r.I64();
        p.next_fire_ms = r.I64();
        if (replay) fold.periodic[p.rule_id] = p;
        break;
      }
      case RecordType::kPeriodicFire: {
        int64_t rule_id = r.I64();
        int64_t next = r.I64();
        if (replay) {
          auto it = fold.periodic.find(rule_id);
          if (it != fold.periodic.end()) it->second.next_fire_ms = next;
        }
        break;
      }
      case RecordType::kPrivateWrite: {
        rule::ItemId item = ReadItem(&r, dict);
        Value value = r.Val();
        if (replay) fold.private_data[item] = std::move(value);
        break;
      }
      case RecordType::kFireBegin: {
        OutstandingFire f;
        f.seq = r.U64();
        f.rule_id = r.I64();
        f.trigger_event_id = r.I64();
        f.trigger_time_ms = r.I64();
        f.next_step = 0;
        uint32_t n = r.U32();
        for (uint32_t s = 0; s < n && r.ok(); ++s) {
          std::string var = DictName(dict, r.U32());
          Value value = r.Val();
          f.binding.emplace_back(std::move(var), std::move(value));
        }
        max_fire_seq = std::max(max_fire_seq, f.seq);
        if (replay) fold.fires[f.seq] = std::move(f);
        break;
      }
      case RecordType::kFireStep: {
        uint64_t seq = r.U64();
        uint32_t step = r.U32();
        auto it = fold.fires.find(seq);
        if (it != fold.fires.end()) it->second.next_step = step + 1;
        break;
      }
      case RecordType::kFireEnd: {
        fold.fires.erase(r.U64());
        break;
      }
      case RecordType::kSymbolDef:
      case RecordType::kSnapshotMark:
        break;
    }
    if (!r.ok()) {
      HCM_LOG(Warning) << "journal record " << i << " at " << site_
                       << " decoded short (" << RecordTypeName(rec.type)
                       << ")";
    }
    if (replay) ++out.replayed_records;
  }

  out.state = fold.ToState(site_, records);

  // Re-arm the writer after the valid prefix; lost tails are gone for good
  // (that is what the failure classification charges as a logical failure).
  next_fire_seq_ = max_fire_seq + 1;
  base_records_ = records;
  // The discovered chain stays usable for inspection, but the first
  // checkpoint of the new incarnation must re-base: dirty tracking in the
  // recovered shell cannot enumerate the replayed gap, and fire tombstones
  // from the lost pre-crash tail are unknown.
  chain_ = std::move(chain);
  needs_base_ = true;
  if (scan.valid_bytes > 0) {
    HCM_RETURN_IF_ERROR(journal_.Open(JournalPath(), scan.valid_bytes));
  } else {
    HCM_RETURN_IF_ERROR(journal_.Open(JournalPath()));
  }
  return out;
}

std::string JournalInspection::ToString() const {
  std::string out = StrFormat(
      "journal %s: %llu records, %llu/%llu bytes valid%s%s\n", dir.c_str(),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(valid_bytes),
      static_cast<unsigned long long>(file_bytes),
      torn ? ", TORN TAIL" : "",
      crc_failures > 0 ? ", CRC FAILURE" : "");
  out += "  by type:";
  for (const auto& [type, n] : by_type) {
    out += StrFormat(" %s=%llu", type.c_str(),
                     static_cast<unsigned long long>(n));
  }
  out += StrFormat("\n  private writes: %zu\n", private_writes.size());
  for (const auto& [covered, loadable] : snapshots) {
    out += StrFormat("  snapshot @%llu records: %s\n",
                     static_cast<unsigned long long>(covered),
                     loadable ? "ok" : "UNREADABLE");
  }
  for (const DeltaFile& d : deltas) {
    out += StrFormat("  delta @%llu records (parent %llu): %s\n",
                     static_cast<unsigned long long>(d.records),
                     static_cast<unsigned long long>(d.parent_records),
                     d.loadable ? "ok" : "UNREADABLE");
  }
  return out;
}

Result<JournalInspection> InspectJournalDir(const std::string& site_dir) {
  JournalInspection out;
  out.dir = site_dir;
  auto scanned = ReadJournal(site_dir + "/journal.wal");
  if (!scanned.ok() && scanned.status().code() != StatusCode::kNotFound) {
    return scanned.status();
  }
  if (scanned.ok()) {
    const JournalScan& scan = *scanned;
    out.records = scan.records.size();
    out.valid_bytes = scan.valid_bytes;
    out.file_bytes = scan.file_bytes;
    out.torn = scan.torn;
    out.crc_failures = scan.crc_failures;
    std::map<uint8_t, uint64_t> counts;
    std::vector<std::string> dict;
    for (const JournalRecord& rec : scan.records) {
      ++counts[static_cast<uint8_t>(rec.type)];
      ByteReader r(rec.payload);
      if (rec.type == RecordType::kSymbolDef) {
        uint32_t id = r.U32();
        std::string name = r.Str();
        if (id >= dict.size()) dict.resize(id + 1);
        dict[id] = name;
      } else if (rec.type == RecordType::kPrivateWrite) {
        rule::ItemId item = ReadItem(&r, dict);
        Value value = r.Val();
        if (r.ok()) out.private_writes.emplace_back(std::move(item),
                                                    std::move(value));
      }
    }
    for (const auto& [type, n] : counts) {
      out.by_type.emplace_back(RecordTypeName(static_cast<RecordType>(type)),
                               n);
    }
  }
  ChainFiles files = ListChainFiles(site_dir);
  for (const auto& [seq, path] : files.bases) {
    out.snapshots.emplace_back(
        seq, LoadLink(path, SnapshotKind::kBase, seq).ok());
  }
  for (const auto& [seq, path] : files.deltas) {
    JournalInspection::DeltaFile d;
    d.records = seq;
    auto loaded = LoadLink(path, SnapshotKind::kDelta, seq);
    d.loadable = loaded.ok();
    if (loaded.ok()) d.parent_records = *loaded->parent_records;
    out.deltas.push_back(d);
  }
  return out;
}

}  // namespace hcm::storage
