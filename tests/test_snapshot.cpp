// Unit tests for core/snapshot: the versioned binary format, its strict
// byte-offset-numbered error paths, the Capture/Restore field visitors,
// and snapshot round-trips of the stateful simulator components.

#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_suite/checkpoint.hpp"
#include "core/rng.hpp"
#include "omp_model/team.hpp"
#include "scenario/registry.hpp"
#include "sim/noise.hpp"
#include "sim/simulator.hpp"
#include "topo/proc_bind.hpp"

namespace omv::snap {
namespace {

/// Runs `f` and returns the SnapshotError message it must throw.
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const SnapshotError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SnapshotError, none thrown";
  return {};
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(SnapshotFormat, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.field_u64("u", 0xdeadbeefcafef00dULL);
  w.field_f64("f", -0.1);
  w.field_bool("b", true);
  w.field_str("s", "hello");
  w.field_vec_f64("vf", {1.5, -2.5, 0.0});
  w.field_vec_u64("vu", {7, 8, 9});
  w.field_bytes("raw", std::string("\x00\x01\xff", 3));

  SnapshotReader r(w.buffer(), "test");
  EXPECT_EQ(r.field_u64("u"), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.field_f64("f"), -0.1);
  EXPECT_TRUE(r.field_bool("b"));
  EXPECT_EQ(r.field_str("s"), "hello");
  EXPECT_EQ(r.field_vec_f64("vf"), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.field_vec_u64("vu"), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(r.field_bytes("raw"), std::string("\x00\x01\xff", 3));
  r.expect_end();
}

TEST(SnapshotFormat, Float64RoundTripIsBitExact) {
  // f64 travels as a bit_cast u64, so NaN payloads, -0.0 and subnormals
  // survive exactly.
  SnapshotWriter w;
  w.field_f64("nz", -0.0);
  w.field_f64("sub", 5e-324);
  SnapshotReader r(w.buffer(), "test");
  const double nz = r.field_f64("nz");
  EXPECT_EQ(std::signbit(nz), true);
  EXPECT_EQ(r.field_f64("sub"), 5e-324);
}

TEST(SnapshotFormat, WrongMagicFailsAtByteZero) {
  SnapshotWriter w;
  w.field_u64("x", 1);
  std::string bytes = w.take();
  bytes[0] = 'X';
  const std::string msg =
      error_of([&] { SnapshotReader r(bytes, "corrupt.snap"); });
  EXPECT_TRUE(contains(msg, "corrupt.snap: byte 0:")) << msg;
  EXPECT_TRUE(contains(msg, "bad magic")) << msg;
}

TEST(SnapshotFormat, VersionSkewFailsAtVersionOffset) {
  SnapshotWriter w;
  w.field_u64("x", 1);
  std::string bytes = w.take();
  bytes[kMagic.size()] = 99;  // little-endian low byte of the version word
  const std::string msg =
      error_of([&] { SnapshotReader r(bytes, "old.snap"); });
  EXPECT_TRUE(contains(msg, "old.snap: byte 12:")) << msg;
  EXPECT_TRUE(contains(msg, "format version 99 unsupported")) << msg;
}

TEST(SnapshotFormat, TruncationReportsNeedAndHave) {
  SnapshotWriter w;
  w.field_vec_f64("v", {1.0, 2.0, 3.0});
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 10);
  SnapshotReader r(bytes, "short.snap");
  const std::string msg = error_of([&] { (void)r.field_vec_f64("v"); });
  EXPECT_TRUE(contains(msg, "short.snap: byte ")) << msg;
  EXPECT_TRUE(contains(msg, "truncated snapshot")) << msg;
}

TEST(SnapshotFormat, TruncatedHeaderFails) {
  const std::string msg = error_of([&] {
    SnapshotReader r(std::string(kMagic.substr(0, 5)), "stub.snap");
  });
  EXPECT_TRUE(contains(msg, "stub.snap: byte 0:")) << msg;
}

TEST(SnapshotFormat, WrongFieldNameFailsAtRecordOffset) {
  SnapshotWriter w;
  w.field_u64("actual", 1);
  SnapshotReader r(w.buffer(), "test");
  const std::string msg = error_of([&] { (void)r.field_u64("expected"); });
  // The header is 12 magic + 4 version bytes; the record starts at 16.
  EXPECT_TRUE(contains(msg, "test: byte 16:")) << msg;
  EXPECT_TRUE(contains(msg, "expected field 'expected', found 'actual'"))
      << msg;
}

TEST(SnapshotFormat, WrongFieldTypeFails) {
  SnapshotWriter w;
  w.field_u64("x", 1);
  SnapshotReader r(w.buffer(), "test");
  const std::string msg = error_of([&] { (void)r.field_f64("x"); });
  EXPECT_TRUE(contains(msg, "expected type f64")) << msg;
}

TEST(SnapshotFormat, BoolPayloadMustBeZeroOrOne) {
  SnapshotWriter w;
  w.field_bool("flag", true);
  std::string bytes = w.take();
  bytes.back() = 2;
  SnapshotReader r(bytes, "test");
  const std::string msg = error_of([&] { (void)r.field_bool("flag"); });
  EXPECT_TRUE(contains(msg, "bool byte must be 0 or 1")) << msg;
}

TEST(SnapshotFormat, ExpectEndRejectsTrailingBytes) {
  SnapshotWriter w;
  w.field_u64("x", 1);
  w.field_u64("extra", 2);
  SnapshotReader r(w.buffer(), "test");
  (void)r.field_u64("x");
  const std::string msg = error_of([&] { r.expect_end(); });
  EXPECT_TRUE(contains(msg, "trailing bytes")) << msg;
}

TEST(SnapshotFormat, ExpectU64GuardsGeometry) {
  SnapshotWriter w;
  w.field_u64("sim.n_threads", 256);
  SnapshotReader r(w.buffer(), "other-machine.snap");
  const std::string msg = error_of(
      [&] { r.expect_u64("sim.n_threads", 32, "machine geometry"); });
  EXPECT_TRUE(contains(msg, "machine geometry mismatch")) << msg;
  EXPECT_TRUE(contains(msg, "snapshot has 256, this process has 32")) << msg;
}

/// Overwrites the little-endian u64 at `offset` of a snapshot buffer.
void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(SnapshotFormat, ForgedCountsFailBeforeAllocating) {
  // Element counts come from disk. Each forged one must surface as a
  // SnapshotError naming a byte offset, never as std::length_error or
  // std::bad_alloc from sizing a container by the count. Offsets: 16
  // header bytes, then 1 type + 4 name-length + name bytes per record.
  {
    SnapshotWriter w;
    w.field_vec_f64("v", {1.0, 2.0});
    std::string bytes = w.take();
    patch_u64(bytes, 22, std::uint64_t{1} << 62);
    SnapshotReader r(bytes, "f64.snap");
    const std::string msg = error_of([&] { (void)r.field_vec_f64("v"); });
    EXPECT_TRUE(contains(msg, "f64.snap: byte 22:")) << msg;
    EXPECT_TRUE(contains(msg, "needs 8 bytes per element, have 16")) << msg;
  }
  {
    SnapshotWriter w;
    w.field_vec_u64("v", {7, 8, 9});
    std::string bytes = w.take();
    patch_u64(bytes, 22, 4);  // one element more than the payload holds
    SnapshotReader r(bytes, "u64.snap");
    const std::string msg = error_of([&] { (void)r.field_vec_u64("v"); });
    EXPECT_TRUE(contains(msg, "u64.snap: byte 22:")) << msg;
  }
  {
    std::vector<std::vector<double>> rows{{1.0}, {2.0, 3.0}};
    SnapshotWriter w;
    Capture cap(w);
    cap.field("rows", rows);
    std::string bytes = w.take();
    patch_u64(bytes, 27, std::uint64_t{1} << 40);  // the "rows.n" value
    SnapshotReader r(bytes, "rows.snap");
    Restore res(r);
    std::vector<std::vector<double>> out;
    const std::string msg = error_of([&] { res.field("rows", out); });
    EXPECT_TRUE(contains(msg, "rows.snap: byte " +
                                  std::to_string(bytes.size()) + ":"))
        << msg;
  }
  {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "omv-snap-forged";
    std::filesystem::create_directories(dir);
    CheckpointPolicy pol;
    pol.resume_from = (dir / "cell.snap").string();
    SnapshotWriter w;
    write_stamp(w, pol.stamp);
    w.field_u64("completed_runs", std::uint64_t{1} << 62);
    const std::string bytes = w.take();
    save_snapshot_file(pol.resume_from, bytes);
    const std::string msg =
        error_of([&] { (void)bench::load_cell_checkpoint(pol); });
    EXPECT_TRUE(contains(msg, pol.resume_from + ": byte " +
                                  std::to_string(bytes.size()) + ":"))
        << msg;
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Stamp
// ---------------------------------------------------------------------------

SnapshotStamp test_stamp() {
  SnapshotStamp s;
  s.engine = "engine-A";
  s.scenario = "fp-1";
  s.cell = "cell-1";
  s.run = 3;
  s.rep = 14;
  return s;
}

TEST(SnapshotStamp, RoundTrips) {
  SnapshotWriter w;
  write_stamp(w, test_stamp());
  SnapshotReader r(w.buffer(), "test");
  const SnapshotStamp want = test_stamp();
  const SnapshotStamp got = read_stamp(r, &want);
  EXPECT_EQ(got.engine, "engine-A");
  EXPECT_EQ(got.scenario, "fp-1");
  EXPECT_EQ(got.cell, "cell-1");
  EXPECT_EQ(got.run, 3u);
  EXPECT_EQ(got.rep, 14u);
  r.expect_end();
}

TEST(SnapshotStamp, EngineVersionMismatchIsStrict) {
  SnapshotWriter w;
  write_stamp(w, test_stamp());
  SnapshotReader r(w.buffer(), "test");
  SnapshotStamp want = test_stamp();
  want.engine = "engine-B";
  const std::string msg = error_of([&] { read_stamp(r, &want); });
  EXPECT_TRUE(contains(msg, "engine version mismatch")) << msg;
  EXPECT_TRUE(contains(msg, "'engine-A'")) << msg;
  EXPECT_TRUE(contains(msg, "'engine-B'")) << msg;
}

TEST(SnapshotStamp, ScenarioFingerprintMismatchIsStrict) {
  SnapshotWriter w;
  write_stamp(w, test_stamp());
  SnapshotReader r(w.buffer(), "test");
  SnapshotStamp want = test_stamp();
  want.scenario = "";  // scenario-less process must reject a stamped file
  const std::string msg = error_of([&] { read_stamp(r, &want); });
  EXPECT_TRUE(contains(msg, "scenario fingerprint mismatch")) << msg;
}

TEST(SnapshotStamp, CellMismatchIsStrict) {
  SnapshotWriter w;
  write_stamp(w, test_stamp());
  SnapshotReader r(w.buffer(), "test");
  SnapshotStamp want = test_stamp();
  want.cell = "cell-2";
  const std::string msg = error_of([&] { read_stamp(r, &want); });
  EXPECT_TRUE(contains(msg, "campaign cell mismatch")) << msg;
}

TEST(SnapshotStamp, PeekReturnsNulloptOnGarbage) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "omv-snap-test").string();
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(try_peek_stamp(dir + "/absent.snap").has_value());

  save_snapshot_file(dir + "/garbage.snap", "this is not a snapshot");
  EXPECT_FALSE(try_peek_stamp(dir + "/garbage.snap").has_value());

  SnapshotWriter w;
  write_stamp(w, test_stamp());
  save_snapshot_file(dir + "/good.snap", w.take());
  const auto st = try_peek_stamp(dir + "/good.snap");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->cell, "cell-1");
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFile, SaveIsAtomicAndLoadRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "omv-snap-file").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cell.snap";
  SnapshotWriter w;
  w.field_u64("x", 42);
  const std::string bytes = w.take();
  save_snapshot_file(path, bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(load_snapshot_file(path), bytes);
  const std::string msg =
      error_of([&] { (void)load_snapshot_file(dir + "/absent.snap"); });
  EXPECT_TRUE(contains(msg, "cannot open snapshot file")) << msg;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Component round-trips
// ---------------------------------------------------------------------------

TEST(SnapshotVisitors, RngRoundTripPreservesStream) {
  Rng rng(1234);
  for (int i = 0; i < 7; ++i) (void)rng.next_u64();
  // Draw one normal so the Box–Muller spare cache is populated: the
  // snapshot must carry it or the restored stream would skew by one draw.
  (void)rng.normal(0.0, 1.0);

  SnapshotWriter w;
  Capture cap(w);
  cap.object("rng", rng);

  Rng restored(0);
  SnapshotReader r(w.buffer(), "test");
  Restore res(r);
  res.object("rng", restored);
  r.expect_end();

  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.normal(1.0, 2.0), rng.normal(1.0, 2.0)) << i;
    EXPECT_EQ(restored.next_u64(), rng.next_u64()) << i;
  }
}

TEST(SnapshotVisitors, VectorBoolRejectsNonBinaryElements) {
  std::vector<std::uint64_t> raw{0, 1, 2};
  SnapshotWriter w;
  w.field_vec_u64("flags", raw);
  SnapshotReader r(w.buffer(), "test");
  Restore res(r);
  std::vector<bool> out;
  const std::string msg = error_of([&] { res.field("flags", out); });
  EXPECT_TRUE(contains(msg, "bool element must be 0 or 1")) << msg;
}

ompsim::TeamConfig team_cfg(std::size_t threads) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

/// Advances a team through a few phases, forcing noise + frequency +
/// placement state to materialize.
void advance(ompsim::SimTeam& team, int phases) {
  for (int i = 0; i < phases; ++i) {
    team.begin_rep();
    team.fork();
    team.compute(5e-4);
    team.barrier();
    team.compute(1e-4);
    team.join();
  }
}

std::vector<double> clocks_after(ompsim::SimTeam& team, int phases) {
  advance(team, phases);
  return {team.clocks().begin(), team.clocks().end()};
}

TEST(SnapshotComponents, TeamRestoreContinuesBitIdentically) {
  const auto spec = scenario::ScenarioRegistry::instance().get("noisy-cloud");
  const topo::Machine machine = spec.machine.build();
  const auto cfg = team_cfg(8);

  // Straight line: begin a run, advance, keep going.
  sim::Simulator sim_a(machine, spec.sim);
  ompsim::SimTeam team_a(sim_a, cfg, 1);
  team_a.begin_run(99);
  advance(team_a, 3);

  // Capture mid-run, then restore into freshly built objects.
  const std::string blob = bench::capture_run_state(team_a);
  sim::Simulator sim_b(machine, spec.sim);
  ompsim::SimTeam team_b(sim_b, cfg, 1);
  bench::restore_run_state(blob, "mid-run blob", team_b);

  const auto want = clocks_after(team_a, 4);
  const auto got = clocks_after(team_b, 4);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "clock " << i;
  }
}

TEST(SnapshotComponents, GeometryMismatchIsRejected) {
  const auto& reg = scenario::ScenarioRegistry::instance();
  const auto small = reg.get("noisy-cloud");
  const auto big = reg.get("dardel");
  const topo::Machine m_small = small.machine.build();
  const topo::Machine m_big = big.machine.build();
  ASSERT_NE(m_small.n_threads(), m_big.n_threads());

  sim::Simulator sim_a(m_small, small.sim);
  ompsim::SimTeam team_a(sim_a, team_cfg(4), 1);
  team_a.begin_run(7);
  const std::string blob = bench::capture_run_state(team_a);

  sim::Simulator sim_b(m_big, big.sim);
  ompsim::SimTeam team_b(sim_b, team_cfg(4), 1);
  const std::string msg = error_of(
      [&] { bench::restore_run_state(blob, "cross-machine", team_b); });
  EXPECT_TRUE(contains(msg, "cross-machine: byte ")) << msg;
  EXPECT_TRUE(contains(msg, "machine geometry")) << msg;
}

TEST(SnapshotComponents, TeamSizeMismatchIsRejected) {
  const auto spec = scenario::ScenarioRegistry::instance().get("vera");
  const topo::Machine machine = spec.machine.build();

  sim::Simulator sim_a(machine, spec.sim);
  ompsim::SimTeam team_a(sim_a, team_cfg(8), 1);
  team_a.begin_run(7);
  const std::string blob = bench::capture_run_state(team_a);

  sim::Simulator sim_b(machine, spec.sim);
  ompsim::SimTeam team_b(sim_b, team_cfg(16), 1);
  const std::string msg = error_of(
      [&] { bench::restore_run_state(blob, "resized", team_b); });
  EXPECT_TRUE(contains(msg, "team size mismatch")) << msg;
}

TEST(SnapshotCheckpoint, PolicyEngagement) {
  CheckpointPolicy p;
  EXPECT_FALSE(p.engaged());
  p.every_reps = 5;
  EXPECT_TRUE(p.engaged());
  p.every_reps = 0;
  p.resume_from = "x.snap";
  EXPECT_TRUE(p.engaged());
}

}  // namespace
}  // namespace omv::snap
