#include "src/storage/snapshot.h"

#include <cstdio>
#include <cstring>

#include "src/storage/codec.h"
#include "src/storage/journal.h"

namespace hcm::storage {

namespace {

constexpr char kSnapshotMagic[8] = {'H', 'C', 'M', 'S', 'N', 'P', '1', '\n'};
constexpr size_t kMagicSize = sizeof(kSnapshotMagic);
// Version 1 kept bases and deltas in two body layouts under two magics;
// version 2 is the one record layout for both.
constexpr uint32_t kFormatVersion = 2;

// Name dictionary local to one snapshot: strings used repeatedly (rule
// texts excepted — those are one-shot) are written once in the dictionary
// table and referenced by dense id everywhere else.
class DictWriter {
 public:
  uint32_t IdOf(const std::string& s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(names_.size());
    ids_.emplace(s, id);
    names_.push_back(s);
    return id;
  }

  void EmitTable(ByteWriter* w) const {
    w->U32(static_cast<uint32_t>(names_.size()));
    for (const auto& n : names_) w->Str(n);
  }

 private:
  std::map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
};

void PutItem(ByteWriter* w, DictWriter* dict, const rule::ItemId& item) {
  w->U32(dict->IdOf(item.base));
  w->U32(static_cast<uint32_t>(item.args.size()));
  for (const auto& a : item.args) w->Val(a);
}

rule::ItemId GetItem(ByteReader* r, const std::vector<std::string>& dict) {
  rule::ItemId item;
  uint32_t base = r->U32();
  if (base < dict.size()) item.base = dict[base];
  uint32_t n = r->U32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) item.args.push_back(r->Val());
  return item;
}

void PutFire(ByteWriter* w, DictWriter* dict, const OutstandingFire& f) {
  w->U64(f.seq);
  w->I64(f.rule_id);
  w->I64(f.trigger_event_id);
  w->I64(f.trigger_time_ms);
  w->U32(f.next_step);
  w->U32(static_cast<uint32_t>(f.binding.size()));
  for (const auto& [name, value] : f.binding) {
    w->U32(dict->IdOf(name));
    w->Val(value);
  }
}

OutstandingFire GetFire(ByteReader* r, const std::vector<std::string>& dict) {
  OutstandingFire f;
  f.seq = r->U64();
  f.rule_id = r->I64();
  f.trigger_event_id = r->I64();
  f.trigger_time_ms = r->I64();
  f.next_step = r->U32();
  uint32_t slots = r->U32();
  for (uint32_t s = 0; s < slots && r->ok(); ++s) {
    uint32_t var = r->U32();
    Value value = r->Val();
    f.binding.emplace_back(var < dict.size() ? dict[var] : std::string(),
                           std::move(value));
  }
  return f;
}

}  // namespace

std::string EncodeSnapshot(const Snapshot& record) {
  DictWriter dict;
  ByteWriter body;
  body.U32(dict.IdOf(record.site));
  body.I64(record.taken_at_ms);
  body.U8(record.parent_records ? 1 : 0);
  if (record.parent_records) body.U64(*record.parent_records);
  body.U64(record.journal_records);

  body.U32(static_cast<uint32_t>(record.lhs_rules.size()));
  for (const auto& r : record.lhs_rules) {
    body.I64(r.rule_id);
    body.U32(dict.IdOf(r.rhs_site));
    body.Str(r.text);
  }
  body.U32(static_cast<uint32_t>(record.rhs_rules.size()));
  for (const auto& r : record.rhs_rules) {
    body.I64(r.rule_id);
    body.Str(r.text);
  }
  body.U32(static_cast<uint32_t>(record.periodic.size()));
  for (const auto& p : record.periodic) {
    body.I64(p.rule_id);
    body.I64(p.period_ms);
    body.I64(p.next_fire_ms);
  }
  body.U32(static_cast<uint32_t>(record.private_data.size()));
  for (const auto& [item, value] : record.private_data) {
    PutItem(&body, &dict, item);
    body.Val(value);
  }
  body.U32(static_cast<uint32_t>(record.private_tombstones.size()));
  for (const auto& item : record.private_tombstones) {
    PutItem(&body, &dict, item);
  }
  body.U32(static_cast<uint32_t>(record.fires.size()));
  for (const auto& f : record.fires) PutFire(&body, &dict, f);
  body.U32(static_cast<uint32_t>(record.ended_fires.size()));
  for (uint64_t seq : record.ended_fires) body.U64(seq);
  body.U8(record.translator_write_cursor_ms ? 1 : 0);
  if (record.translator_write_cursor_ms) {
    body.I64(*record.translator_write_cursor_ms);
  }
  body.U8(record.guarantees ? 1 : 0);
  if (record.guarantees) {
    body.U32(static_cast<uint32_t>(record.guarantees->size()));
    for (const auto& g : *record.guarantees) {
      body.Str(g.key);
      body.U8(g.valid ? 1 : 0);
    }
  }

  // Final layout: version, dictionary table, then the sections that
  // reference it.
  ByteWriter out;
  out.U32(kFormatVersion);
  dict.EmitTable(&out);
  return out.Take() + body.Take();
}

Result<Snapshot> DecodeSnapshot(const std::string& bytes) {
  ByteReader r(bytes);
  if (r.U32() != kFormatVersion) {
    return Status::Corruption("unsupported snapshot version");
  }
  std::vector<std::string> dict;
  uint32_t dict_size = r.U32();
  for (uint32_t i = 0; i < dict_size && r.ok(); ++i) dict.push_back(r.Str());
  auto name = [&dict](uint32_t id) -> std::string {
    return id < dict.size() ? dict[id] : std::string();
  };

  Snapshot record;
  record.site = name(r.U32());
  record.taken_at_ms = r.I64();
  if (r.U8() != 0) record.parent_records = r.U64();
  record.journal_records = r.U64();

  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    LhsRuleInstall rule;
    rule.rule_id = r.I64();
    rule.rhs_site = name(r.U32());
    rule.text = r.Str();
    record.lhs_rules.push_back(std::move(rule));
  }
  n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    RhsRuleInstall rule;
    rule.rule_id = r.I64();
    rule.text = r.Str();
    record.rhs_rules.push_back(std::move(rule));
  }
  n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    PeriodicTimer p;
    p.rule_id = r.I64();
    p.period_ms = r.I64();
    p.next_fire_ms = r.I64();
    record.periodic.push_back(p);
  }
  n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    rule::ItemId item = GetItem(&r, dict);
    Value value = r.Val();
    record.private_data.emplace_back(std::move(item), std::move(value));
  }
  n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    record.private_tombstones.push_back(GetItem(&r, dict));
  }
  n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    record.fires.push_back(GetFire(&r, dict));
  }
  n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    record.ended_fires.push_back(r.U64());
  }
  if (r.U8() != 0) record.translator_write_cursor_ms = r.I64();
  if (r.U8() != 0) {
    record.guarantees.emplace();
    n = r.U32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      GuaranteeStatus g;
      g.key = r.Str();
      g.valid = r.U8() != 0;
      record.guarantees->push_back(std::move(g));
    }
  }
  if (!r.ok()) return Status::Corruption("snapshot body truncated");
  return record;
}

void FoldState::Apply(const Snapshot& record) {
  if (record.is_base()) *this = FoldState();
  taken_at_ms = record.taken_at_ms;
  for (const auto& r : record.lhs_rules) lhs[r.rule_id] = r;
  for (const auto& r : record.rhs_rules) rhs[r.rule_id] = r;
  for (const auto& p : record.periodic) periodic[p.rule_id] = p;
  for (const auto& [item, value] : record.private_data) {
    private_data[item] = value;
  }
  for (const auto& item : record.private_tombstones) private_data.erase(item);
  for (const auto& f : record.fires) fires[f.seq] = f;
  for (uint64_t seq : record.ended_fires) fires.erase(seq);
  if (record.translator_write_cursor_ms) {
    translator_write_cursor_ms = *record.translator_write_cursor_ms;
  }
  if (record.guarantees) guarantees = *record.guarantees;
}

Snapshot FoldState::ToState(const std::string& site,
                            uint64_t journal_records) const {
  Snapshot s;
  s.site = site;
  s.taken_at_ms = taken_at_ms;
  s.journal_records = journal_records;
  s.translator_write_cursor_ms = translator_write_cursor_ms;
  s.guarantees = guarantees;
  for (const auto& [id, r] : lhs) s.lhs_rules.push_back(r);
  for (const auto& [id, r] : rhs) s.rhs_rules.push_back(r);
  for (const auto& [id, p] : periodic) s.periodic.push_back(p);
  for (const auto& [item, value] : private_data) {
    s.private_data.emplace_back(item, value);
  }
  for (const auto& [seq, f] : fires) s.fires.push_back(f);
  return s;
}

// Crash-atomic: magic | u32 len | body | u32 crc is staged in
// "<path>.tmp" and renamed over the final name only once every byte has
// reached the OS. Recovery never sees a half-written file under a name it
// would load.
Status WriteSnapshotFile(const std::string& path, const Snapshot& record) {
  const std::string body = EncodeSnapshot(record);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot create " + tmp);
  uint32_t len = static_cast<uint32_t>(body.size());
  uint32_t crc = Crc32(body.data(), body.size());
  bool ok = std::fwrite(kSnapshotMagic, 1, kMagicSize, f) == kMagicSize &&
            std::fwrite(&len, 1, sizeof len, f) == sizeof len &&
            std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
            std::fwrite(&crc, 1, sizeof crc, f) == sizeof crc;
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " into place");
  }
  return Status::OK();
}

Result<Snapshot> ReadSnapshotFile(const std::string& path,
                                  SnapshotKind kind) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no snapshot at " + path);
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, got);
  std::fclose(f);
  if (data.size() < kMagicSize + 8 ||
      std::memcmp(data.data(), kSnapshotMagic, kMagicSize) != 0) {
    return Status::Corruption("not a snapshot file: " + path);
  }
  uint32_t len;
  std::memcpy(&len, data.data() + kMagicSize, sizeof len);
  if (data.size() < kMagicSize + 4 + len + 4) {
    return Status::Corruption("snapshot truncated: " + path);
  }
  const char* body = data.data() + kMagicSize + 4;
  uint32_t stored_crc;
  std::memcpy(&stored_crc, body + len, sizeof stored_crc);
  if (Crc32(body, len) != stored_crc) {
    return Status::Corruption("snapshot CRC mismatch: " + path);
  }
  HCM_ASSIGN_OR_RETURN(Snapshot record,
                       DecodeSnapshot(std::string(body, len)));
  if (record.is_base() != (kind == SnapshotKind::kBase)) {
    return Status::Corruption(
        std::string(record.is_base() ? "a base" : "a delta") + " where " +
        (record.is_base() ? "a delta" : "a base") + " was expected: " + path);
  }
  return record;
}

}  // namespace hcm::storage
