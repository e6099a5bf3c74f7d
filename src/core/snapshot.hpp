#pragma once
// Versioned, endian-explicit binary snapshots of simulator run state.
//
// A snapshot is a flat sequence of named, typed field records behind a fixed
// header (magic + format version). Writers emit every multi-byte quantity in
// little-endian byte order regardless of host endianness; readers decode the
// same way, so snapshot files are portable across machines. Readers are
// strict: any mismatch — wrong magic, version skew, unexpected field name or
// type, truncated payload — raises `SnapshotError` with the byte offset of
// the offending record, mirroring the scenario parser's `origin:line`
// diagnostics.
//
// Stateful components implement a single private `snapshot_fields(V&)`
// template enumerating their fields once; the `Capture` and `Restore`
// visitors drive it for writing and reading respectively, so the two
// directions (and the field naming that versions the format) can't disagree.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace omv::snap {

/// 12-byte magic prefix of every snapshot buffer (no trailing NUL on disk).
inline constexpr std::string_view kMagic = "omnivar-snap";
/// Format version following the magic; bump on any layout change.
inline constexpr std::uint32_t kFormatVersion = 1;
/// Human-readable format tag, reported by `omnivar --version`.
inline constexpr const char* kSnapshotFormat = "omnivar-snap-v1";

/// Strict snapshot failure. Messages are byte-offset-numbered:
///   `<origin>: byte <offset>: <what>`
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws SnapshotError with the canonical `<origin>: byte <off>: ...` text.
[[noreturn]] void fail(const std::string& origin, std::size_t offset,
                       const std::string& what);

/// On-wire type codes for field records.
enum class FieldType : std::uint8_t {
  kU64 = 1,
  kF64 = 2,
  kBool = 3,
  kStr = 4,
  kVecF64 = 5,
  kVecU64 = 6,
  kBytes = 7,
};

/// Name of a field type for diagnostics.
const char* field_type_name(FieldType t) noexcept;

/// Serializes named, typed fields into a little-endian byte buffer. The
/// header (magic + version) is emitted by the constructor.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void field_u64(std::string_view name, std::uint64_t v);
  void field_f64(std::string_view name, double v);
  void field_bool(std::string_view name, bool v);
  void field_str(std::string_view name, std::string_view v);
  void field_vec_f64(std::string_view name, const std::vector<double>& v);
  void field_vec_u64(std::string_view name,
                     const std::vector<std::uint64_t>& v);
  void field_bytes(std::string_view name, std::string_view v);

  /// The serialized buffer so far.
  const std::string& buffer() const noexcept { return buf_; }
  /// Moves the buffer out; the writer must not be reused afterwards.
  std::string take() noexcept { return std::move(buf_); }

 private:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void begin_field(std::string_view name, FieldType t);

  std::string buf_;
};

/// Decodes a snapshot buffer produced by SnapshotWriter. The constructor
/// validates the header; every field accessor validates name and type before
/// decoding the payload. All failures throw SnapshotError with the byte
/// offset of the offending record.
class SnapshotReader {
 public:
  SnapshotReader(std::string_view bytes, std::string origin);

  std::uint64_t field_u64(std::string_view name);
  double field_f64(std::string_view name);
  bool field_bool(std::string_view name);
  std::string field_str(std::string_view name);
  std::vector<double> field_vec_f64(std::string_view name);
  std::vector<std::uint64_t> field_vec_u64(std::string_view name);
  std::string field_bytes(std::string_view name);

  /// Reads a u64 field and requires it to equal `want`; used for geometry
  /// guards (thread/core/NUMA counts) so cross-machine restores fail loudly.
  void expect_u64(std::string_view name, std::uint64_t want,
                  std::string_view what);

  /// Requires the buffer to be fully consumed.
  void expect_end();

  std::size_t offset() const noexcept { return pos_; }
  const std::string& origin() const noexcept { return origin_; }

  [[noreturn]] void fail_here(std::size_t offset, const std::string& what) const;

 private:
  std::uint8_t get_u8(std::string_view what);
  std::uint32_t get_u32(std::string_view what);
  std::uint64_t get_u64(std::string_view what);
  double get_f64(std::string_view what);
  std::string_view get_raw(std::size_t n, std::string_view what);
  /// Reads a vector's u64 element count and rejects one that the remaining
  /// bytes cannot hold at 8 bytes per element, at the count's offset.
  std::uint64_t get_count(std::string_view what);
  /// Reads the record header and validates name + type; returns the record's
  /// start offset (for payload diagnostics).
  std::size_t begin_field(std::string_view name, FieldType t);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  std::string origin_;
};

/// Identity stamp embedded in every snapshot: which engine + scenario + cell
/// produced it, and where the protocol cursor stood (run/rep) when it was
/// taken. Restores reject any mismatch strictly.
struct SnapshotStamp {
  std::string engine;    ///< cli engine version string
  std::string scenario;  ///< scenario fingerprint ("" when none)
  std::string cell;      ///< campaign cell hash ("" for standalone snapshots)
  std::uint64_t run = 0;
  std::uint64_t rep = 0;
};

/// Writes the stamp fields right after the header.
void write_stamp(SnapshotWriter& w, const SnapshotStamp& s);

/// Reads the stamp. When `want` is non-null, each identity field (engine,
/// scenario, cell) must equal the corresponding field of `*want` exactly;
/// a mismatch throws SnapshotError at that field's byte offset.
SnapshotStamp read_stamp(SnapshotReader& r, const SnapshotStamp* want = nullptr);

/// Loads just the stamp from a snapshot file, or nullopt if the file is
/// missing/unreadable/not a valid snapshot. Used by `--resume <path>` to
/// decide which campaign cell a snapshot belongs to.
std::optional<SnapshotStamp> try_peek_stamp(const std::string& path);

/// Atomically writes `bytes` to `path` (tmp file + rename).
void save_snapshot_file(const std::string& path, const std::string& bytes);

/// Reads a whole snapshot file; throws SnapshotError on I/O failure.
std::string load_snapshot_file(const std::string& path);

// ---------------------------------------------------------------------------
// Field visitors
// ---------------------------------------------------------------------------

namespace detail {
/// Shared prefix-stack bookkeeping: nested objects contribute dotted name
/// segments, so NoiseModel's daemon RNG cursor serializes as
/// "noise.daemon_rng.state".
class PrefixStack {
 public:
  void push(std::string_view seg) { stack_.emplace_back(seg); }
  void pop() { stack_.pop_back(); }
  std::string full(std::string_view name) const {
    std::string out;
    for (const auto& seg : stack_) {
      out += seg;
      out += '.';
    }
    out += name;
    return out;
  }

 private:
  std::vector<std::string> stack_;
};
}  // namespace detail

/// Writing visitor: `snapshot_fields(Capture&)` serializes each field.
class Capture {
 public:
  explicit Capture(SnapshotWriter& w) : w_(w) {}

  void field(std::string_view name, std::uint64_t& v) {
    w_.field_u64(prefix_.full(name), v);
  }
  void field(std::string_view name, double& v) {
    w_.field_f64(prefix_.full(name), v);
  }
  void field(std::string_view name, bool& v) {
    w_.field_bool(prefix_.full(name), v);
  }
  void field(std::string_view name, std::vector<double>& v) {
    w_.field_vec_f64(prefix_.full(name), v);
  }
  void field(std::string_view name, std::vector<std::uint64_t>& v) {
    w_.field_vec_u64(prefix_.full(name), v);
  }
  void field(std::string_view name, std::vector<bool>& v);
  void field(std::string_view name, std::vector<std::vector<double>>& v);

  /// Recurses into a nested stateful object under a dotted name segment.
  template <typename T>
  void object(std::string_view name, T& obj) {
    prefix_.push(name);
    obj.snapshot_fields(*this);
    prefix_.pop();
  }

  static constexpr bool is_restore = false;

 private:
  SnapshotWriter& w_;
  detail::PrefixStack prefix_;
};

/// Reading visitor: the same `snapshot_fields` drives strict decode-in-order.
class Restore {
 public:
  explicit Restore(SnapshotReader& r) : r_(r) {}

  void field(std::string_view name, std::uint64_t& v) {
    v = r_.field_u64(prefix_.full(name));
  }
  void field(std::string_view name, double& v) {
    v = r_.field_f64(prefix_.full(name));
  }
  void field(std::string_view name, bool& v) {
    v = r_.field_bool(prefix_.full(name));
  }
  void field(std::string_view name, std::vector<double>& v) {
    v = r_.field_vec_f64(prefix_.full(name));
  }
  void field(std::string_view name, std::vector<std::uint64_t>& v) {
    v = r_.field_vec_u64(prefix_.full(name));
  }
  void field(std::string_view name, std::vector<bool>& v);
  void field(std::string_view name, std::vector<std::vector<double>>& v);

  template <typename T>
  void object(std::string_view name, T& obj) {
    prefix_.push(name);
    obj.snapshot_fields(*this);
    prefix_.pop();
  }

  SnapshotReader& reader() noexcept { return r_; }

  static constexpr bool is_restore = true;

 private:
  SnapshotReader& r_;
  detail::PrefixStack prefix_;
};

// ---------------------------------------------------------------------------
// Checkpoint policy (threaded from the CLI through the protocol loop)
// ---------------------------------------------------------------------------

/// Where and how often the protocol loop checkpoints, and where it resumes
/// from. `stamp` carries the identity fields (engine/scenario/cell); the
/// run/rep cursor is filled per write.
struct CheckpointPolicy {
  std::string path;         ///< write destination ("" = never write)
  std::string resume_from;  ///< read source ("" = fresh start)
  std::size_t every_reps = 0;
  SnapshotStamp stamp;
  std::size_t stop_after = 0;  ///< test hook: abort after N writes (0 = off)

  bool engaged() const noexcept {
    return every_reps > 0 || !resume_from.empty();
  }
};

/// Thrown by the protocol loop when `CheckpointPolicy::stop_after` trips;
/// lets tests and the CI round-trip lane kill a run right after a
/// checkpoint lands, then resume it in a fresh process.
class CheckpointStop : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide count of checkpoint writes (for stop_after and tests).
std::size_t checkpoint_writes() noexcept;
void note_checkpoint_write() noexcept;
void reset_checkpoint_writes() noexcept;

}  // namespace omv::snap
