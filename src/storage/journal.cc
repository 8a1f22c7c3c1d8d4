#include "src/storage/journal.h"

#include <array>
#include <cstring>

#include "src/common/string_util.h"
#include "src/storage/codec.h"

namespace hcm::storage {

namespace {

constexpr char kJournalMagic[8] = {'H', 'C', 'M', 'W', 'A', 'L', '1', '\n'};
constexpr size_t kMagicSize = sizeof(kJournalMagic);
// u32 length + u8 type + u32 crc.
constexpr size_t kFrameOverhead = 4 + 1 + 4;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kSymbolDef: return "symbol-def";
    case RecordType::kLhsRule: return "lhs-rule";
    case RecordType::kRhsRule: return "rhs-rule";
    case RecordType::kPeriodicStart: return "periodic-start";
    case RecordType::kPeriodicFire: return "periodic-fire";
    case RecordType::kPrivateWrite: return "private-write";
    case RecordType::kFireBegin: return "fire-begin";
    case RecordType::kFireStep: return "fire-step";
    case RecordType::kFireEnd: return "fire-end";
    case RecordType::kSnapshotMark: return "snapshot-mark";
  }
  return "unknown";
}

Status JournalWriter::Open(const std::string& path, uint64_t existing_bytes) {
  if (file_ != nullptr) return Status::FailedPrecondition("journal open");
  // Counters are per-open-incarnation. A reopen after recovery must start
  // them fresh: SiteStore accounts the surviving file as base_records_, so
  // a records_committed() carried over from the previous incarnation would
  // double-count the pre-crash records and inflate snapshot sequence
  // numbers past the on-disk record count.
  records_appended_ = 0;
  records_dropped_ = 0;
  records_committed_ = 0;
  commits_ = 0;
  bool fresh = existing_bytes == 0;
  if (fresh) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
      return Status::Internal("cannot create journal: " + path);
    }
    if (std::fwrite(kJournalMagic, 1, kMagicSize, file_) != kMagicSize ||
        std::fflush(file_) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::Internal("cannot write journal header: " + path);
    }
    bytes_committed_ = kMagicSize;
  } else {
    // Reopen after recovery: keep the valid prefix, discard any torn tail.
    file_ = std::fopen(path.c_str(), "rb+");
    if (file_ == nullptr) {
      return Status::Internal("cannot reopen journal: " + path);
    }
    std::fseek(file_, 0, SEEK_END);
    long size = std::ftell(file_);
    if (size >= 0 && static_cast<uint64_t>(size) > existing_bytes) {
      std::fclose(file_);
      file_ = nullptr;
      // C has no portable in-place truncate; rewrite via rename-free
      // read-truncate (the prefix was just validated by the scanner).
      std::FILE* in = std::fopen(path.c_str(), "rb");
      if (in == nullptr) return Status::Internal("cannot read " + path);
      std::string prefix(existing_bytes, '\0');
      size_t got = std::fread(prefix.data(), 1, existing_bytes, in);
      std::fclose(in);
      if (got != existing_bytes) {
        return Status::Internal("journal shrank during truncation: " + path);
      }
      file_ = std::fopen(path.c_str(), "wb");
      if (file_ == nullptr) return Status::Internal("cannot rewrite " + path);
      if (std::fwrite(prefix.data(), 1, prefix.size(), file_) !=
              prefix.size() ||
          std::fflush(file_) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        return Status::Internal("cannot restore journal prefix: " + path);
      }
    } else {
      std::fseek(file_, 0, SEEK_END);
    }
    bytes_committed_ = existing_bytes;
  }
  return Status::OK();
}

void JournalWriter::Append(RecordType type, std::string payload) {
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U8(static_cast<uint8_t>(type));
  // CRC over the type byte + payload, so a frame whose length field was
  // itself corrupted still fails validation.
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body.append(payload);
  pending_ += frame.str();
  pending_ += payload;
  uint32_t crc = Crc32(body.data(), body.size());
  pending_.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  ++buffered_records_;
  ++records_appended_;
}

Status JournalWriter::Flush() {
  if (pending_.empty()) return Status::OK();
  if (file_ == nullptr) return Status::FailedPrecondition("journal closed");
  // A batch counts as committed only once the OS has accepted every byte;
  // on failure it stays buffered, so snapshot sequence numbers never
  // count records that did not reach the file.
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
          pending_.size() ||
      std::fflush(file_) != 0) {
    return Status::Internal("journal write failed");
  }
  bytes_committed_ += pending_.size();
  records_committed_ += buffered_records_;
  ++commits_;
  pending_.clear();
  buffered_records_ = 0;
  return Status::OK();
}

size_t JournalWriter::DropBuffered() {
  size_t lost = buffered_records_;
  pending_.clear();
  buffered_records_ = 0;
  records_dropped_ += lost;
  return lost;
}

Status JournalWriter::MaybeCommit(TimePoint now) {
  if (pending_.empty()) {
    last_commit_ = now;
    return Status::OK();
  }
  if (now - last_commit_ < commit_interval_) return Status::OK();
  last_commit_ = now;
  return Flush();
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = Flush();
  if (std::fclose(file_) != 0 && s.ok()) {
    s = Status::Internal("journal close failed");
  }
  file_ = nullptr;
  return s;
}

std::string JournalScan::ToString() const {
  std::string out = StrFormat(
      "%zu records, %llu/%llu bytes valid", records.size(),
      static_cast<unsigned long long>(valid_bytes),
      static_cast<unsigned long long>(file_bytes));
  if (crc_failures > 0) {
    out += StrFormat(", CRC failure at offset %llu",
                     static_cast<unsigned long long>(valid_bytes));
  } else if (torn) {
    out += StrFormat(", torn tail at offset %llu",
                     static_cast<unsigned long long>(valid_bytes));
  }
  return out;
}

Result<JournalScan> ReadJournal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no journal at " + path);
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, got);
  std::fclose(f);

  JournalScan scan;
  scan.file_bytes = data.size();
  if (data.size() < kMagicSize ||
      std::memcmp(data.data(), kJournalMagic, kMagicSize) != 0) {
    return Status::InvalidArgument("not a journal file: " + path);
  }
  size_t pos = kMagicSize;
  scan.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameOverhead) {
      scan.torn = true;
      break;
    }
    uint32_t len;
    std::memcpy(&len, data.data() + pos, sizeof len);
    if (data.size() - pos < kFrameOverhead + len) {
      scan.torn = true;
      break;
    }
    const char* body = data.data() + pos + 4;  // type byte + payload
    uint32_t stored_crc;
    std::memcpy(&stored_crc, body + 1 + len, sizeof stored_crc);
    if (Crc32(body, 1 + len) != stored_crc) {
      scan.torn = true;
      scan.crc_failures = 1;
      break;
    }
    JournalRecord rec;
    rec.type = static_cast<RecordType>(static_cast<uint8_t>(body[0]));
    rec.payload.assign(body + 1, len);
    scan.records.push_back(std::move(rec));
    pos += kFrameOverhead + len;
    scan.valid_bytes = pos;
  }
  return scan;
}

}  // namespace hcm::storage
