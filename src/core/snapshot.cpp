#include "core/snapshot.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/atomic_file.hpp"
#include "core/faultinject.hpp"

namespace omv::snap {

void fail(const std::string& origin, std::size_t offset,
          const std::string& what) {
  std::ostringstream os;
  os << origin << ": byte " << offset << ": " << what;
  throw SnapshotError(os.str());
}

const char* field_type_name(FieldType t) noexcept {
  switch (t) {
    case FieldType::kU64:
      return "u64";
    case FieldType::kF64:
      return "f64";
    case FieldType::kBool:
      return "bool";
    case FieldType::kStr:
      return "str";
    case FieldType::kVecF64:
      return "vec<f64>";
    case FieldType::kVecU64:
      return "vec<u64>";
    case FieldType::kBytes:
      return "bytes";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

SnapshotWriter::SnapshotWriter() {
  buf_.append(kMagic.data(), kMagic.size());
  put_u32(kFormatVersion);
}

void SnapshotWriter::put_u8(std::uint8_t v) {
  buf_.push_back(static_cast<char>(v));
}

void SnapshotWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void SnapshotWriter::begin_field(std::string_view name, FieldType t) {
  put_u8(static_cast<std::uint8_t>(t));
  put_u32(static_cast<std::uint32_t>(name.size()));
  buf_.append(name.data(), name.size());
}

void SnapshotWriter::field_u64(std::string_view name, std::uint64_t v) {
  begin_field(name, FieldType::kU64);
  put_u64(v);
}

void SnapshotWriter::field_f64(std::string_view name, double v) {
  begin_field(name, FieldType::kF64);
  put_f64(v);
}

void SnapshotWriter::field_bool(std::string_view name, bool v) {
  begin_field(name, FieldType::kBool);
  put_u8(v ? 1 : 0);
}

void SnapshotWriter::field_str(std::string_view name, std::string_view v) {
  begin_field(name, FieldType::kStr);
  put_u32(static_cast<std::uint32_t>(v.size()));
  buf_.append(v.data(), v.size());
}

void SnapshotWriter::field_vec_f64(std::string_view name,
                                   const std::vector<double>& v) {
  begin_field(name, FieldType::kVecF64);
  put_u64(v.size());
  for (double x : v) put_f64(x);
}

void SnapshotWriter::field_vec_u64(std::string_view name,
                                   const std::vector<std::uint64_t>& v) {
  begin_field(name, FieldType::kVecU64);
  put_u64(v.size());
  for (std::uint64_t x : v) put_u64(x);
}

void SnapshotWriter::field_bytes(std::string_view name, std::string_view v) {
  begin_field(name, FieldType::kBytes);
  put_u64(v.size());
  buf_.append(v.data(), v.size());
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

SnapshotReader::SnapshotReader(std::string_view bytes, std::string origin)
    : bytes_(bytes), origin_(std::move(origin)) {
  if (bytes_.size() < kMagic.size() ||
      bytes_.substr(0, kMagic.size()) != kMagic) {
    fail(origin_, 0, "bad magic: not an omnivar snapshot");
  }
  pos_ = kMagic.size();
  const std::size_t ver_off = pos_;
  const std::uint32_t ver = get_u32("format version");
  if (ver != kFormatVersion) {
    std::ostringstream os;
    os << "snapshot format version " << ver << " unsupported (engine reads "
       << kFormatVersion << ")";
    fail(origin_, ver_off, os.str());
  }
}

void SnapshotReader::fail_here(std::size_t offset,
                               const std::string& what) const {
  fail(origin_, offset, what);
}

std::string_view SnapshotReader::get_raw(std::size_t n, std::string_view what) {
  if (bytes_.size() - pos_ < n) {
    std::ostringstream os;
    os << "truncated snapshot: need " << n << " bytes for " << what << ", have "
       << (bytes_.size() - pos_);
    fail(origin_, pos_, os.str());
  }
  std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t SnapshotReader::get_u8(std::string_view what) {
  return static_cast<std::uint8_t>(get_raw(1, what)[0]);
}

std::uint32_t SnapshotReader::get_u32(std::string_view what) {
  std::string_view raw = get_raw(4, what);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(raw[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t SnapshotReader::get_u64(std::string_view what) {
  std::string_view raw = get_raw(8, what);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(raw[i]))
         << (8 * i);
  }
  return v;
}

double SnapshotReader::get_f64(std::string_view what) {
  return std::bit_cast<double>(get_u64(what));
}

std::size_t SnapshotReader::begin_field(std::string_view name, FieldType t) {
  const std::size_t start = pos_;
  const auto code = get_u8("field type");
  const std::uint32_t name_len = get_u32("field name length");
  std::string_view got_name = get_raw(name_len, "field name");
  if (got_name != name) {
    std::ostringstream os;
    os << "expected field '" << name << "', found '" << std::string(got_name)
       << "'";
    fail(origin_, start, os.str());
  }
  if (code != static_cast<std::uint8_t>(t)) {
    std::ostringstream os;
    os << "field '" << name << "': expected type " << field_type_name(t)
       << ", found type code " << static_cast<unsigned>(code);
    fail(origin_, start, os.str());
  }
  return start;
}

std::uint64_t SnapshotReader::field_u64(std::string_view name) {
  begin_field(name, FieldType::kU64);
  return get_u64(name);
}

double SnapshotReader::field_f64(std::string_view name) {
  begin_field(name, FieldType::kF64);
  return get_f64(name);
}

bool SnapshotReader::field_bool(std::string_view name) {
  const std::size_t start = begin_field(name, FieldType::kBool);
  const auto v = get_u8(name);
  if (v > 1) {
    std::ostringstream os;
    os << "field '" << name << "': bool byte must be 0 or 1, found "
       << static_cast<unsigned>(v);
    fail(origin_, start, os.str());
  }
  return v == 1;
}

std::string SnapshotReader::field_str(std::string_view name) {
  begin_field(name, FieldType::kStr);
  const std::uint32_t len = get_u32(name);
  return std::string(get_raw(len, name));
}

std::uint64_t SnapshotReader::get_count(std::string_view what) {
  const std::size_t off = pos_;
  const std::uint64_t n = get_u64(what);
  const std::size_t have = bytes_.size() - pos_;
  if (n > have / 8) {
    std::ostringstream os;
    os << "truncated snapshot: count " << n << " for " << what
       << " needs 8 bytes per element, have " << have;
    fail(origin_, off, os.str());
  }
  return n;
}

std::vector<double> SnapshotReader::field_vec_f64(std::string_view name) {
  begin_field(name, FieldType::kVecF64);
  const std::uint64_t n = get_count(name);
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get_f64(name));
  return out;
}

std::vector<std::uint64_t> SnapshotReader::field_vec_u64(
    std::string_view name) {
  begin_field(name, FieldType::kVecU64);
  const std::uint64_t n = get_count(name);
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get_u64(name));
  return out;
}

std::string SnapshotReader::field_bytes(std::string_view name) {
  begin_field(name, FieldType::kBytes);
  const std::uint64_t len = get_u64(name);
  return std::string(get_raw(len, name));
}

void SnapshotReader::expect_u64(std::string_view name, std::uint64_t want,
                                std::string_view what) {
  const std::size_t start = pos_;
  const std::uint64_t got = field_u64(name);
  if (got != want) {
    std::ostringstream os;
    os << what << " mismatch: snapshot has " << got << ", this process has "
       << want;
    fail(origin_, start, os.str());
  }
}

void SnapshotReader::expect_end() {
  if (pos_ != bytes_.size()) {
    std::ostringstream os;
    os << "trailing bytes after final field (" << (bytes_.size() - pos_)
       << " unread)";
    fail(origin_, pos_, os.str());
  }
}

// ---------------------------------------------------------------------------
// Stamp
// ---------------------------------------------------------------------------

void write_stamp(SnapshotWriter& w, const SnapshotStamp& s) {
  w.field_str("stamp.engine", s.engine);
  w.field_str("stamp.scenario", s.scenario);
  w.field_str("stamp.cell", s.cell);
  w.field_u64("stamp.run", s.run);
  w.field_u64("stamp.rep", s.rep);
}

namespace {
void check_stamp_field(SnapshotReader& r, std::size_t offset,
                       std::string_view what, const std::string& got,
                       const std::string& want) {
  if (got != want) {
    std::ostringstream os;
    os << what << " mismatch: snapshot was taken by '" << got
       << "', this process is '" << want << "'";
    r.fail_here(offset, os.str());
  }
}
}  // namespace

SnapshotStamp read_stamp(SnapshotReader& r, const SnapshotStamp* want) {
  SnapshotStamp s;
  std::size_t off = r.offset();
  s.engine = r.field_str("stamp.engine");
  if (want) check_stamp_field(r, off, "engine version", s.engine, want->engine);
  off = r.offset();
  s.scenario = r.field_str("stamp.scenario");
  if (want) {
    check_stamp_field(r, off, "scenario fingerprint", s.scenario,
                      want->scenario);
  }
  off = r.offset();
  s.cell = r.field_str("stamp.cell");
  if (want) check_stamp_field(r, off, "campaign cell", s.cell, want->cell);
  s.run = r.field_u64("stamp.run");
  s.rep = r.field_u64("stamp.rep");
  return s;
}

std::optional<SnapshotStamp> try_peek_stamp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  const std::string bytes = os.str();
  try {
    SnapshotReader r(bytes, path);
    return read_stamp(r);
  } catch (const SnapshotError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

void save_snapshot_file(const std::string& path, const std::string& bytes) {
  // The shared atomic commit (tmp + rename) with the "snapshot" fault
  // site. Injected faults keep their taxonomy; plain I/O failures keep
  // this module's SnapshotError contract.
  try {
    core::atomic_write_file(path, bytes, "snapshot");
  } catch (const fault::InjectedFault&) {
    throw;
  } catch (const std::exception& e) {
    fail(path, 0, e.what());
  }
}

std::string load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, 0, "cannot open snapshot file");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Visitor helpers for composite containers
// ---------------------------------------------------------------------------

void Capture::field(std::string_view name, std::vector<bool>& v) {
  std::vector<std::uint64_t> tmp(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) tmp[i] = v[i] ? 1 : 0;
  w_.field_vec_u64(prefix_.full(name), tmp);
}

void Restore::field(std::string_view name, std::vector<bool>& v) {
  const std::string full = prefix_.full(name);
  const std::size_t start = r_.offset();
  const auto tmp = r_.field_vec_u64(full);
  v.assign(tmp.size(), false);
  for (std::size_t i = 0; i < tmp.size(); ++i) {
    if (tmp[i] > 1) {
      r_.fail_here(start, "field '" + full + "': bool element must be 0 or 1");
    }
    v[i] = tmp[i] == 1;
  }
}

void Capture::field(std::string_view name, std::vector<std::vector<double>>& v) {
  const std::string full = prefix_.full(name);
  w_.field_u64(full + ".n", v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    w_.field_vec_f64(full + "." + std::to_string(i), v[i]);
  }
}

void Restore::field(std::string_view name, std::vector<std::vector<double>>& v) {
  const std::string full = prefix_.full(name);
  // The count is not sized up front: each element record must be present
  // before it is appended, so a forged ".n" runs out of bytes, not memory.
  const std::uint64_t n = r_.field_u64(full + ".n");
  v.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    v.push_back(r_.field_vec_f64(full + "." + std::to_string(i)));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint write counter
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_checkpoint_writes{0};
}

std::size_t checkpoint_writes() noexcept {
  return g_checkpoint_writes.load(std::memory_order_relaxed);
}

void note_checkpoint_write() noexcept {
  g_checkpoint_writes.fetch_add(1, std::memory_order_relaxed);
}

void reset_checkpoint_writes() noexcept {
  g_checkpoint_writes.store(0, std::memory_order_relaxed);
}

}  // namespace omv::snap
