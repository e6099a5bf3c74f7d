#include "scenario/scenario.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/json_writer.hpp"
#include "scenario/registry.hpp"

namespace omv::scenario {

namespace {

/// Enumerates every numeric field of a ScenarioSpec in the fixed canonical
/// order. One visitor drives the fingerprint, the serializer and the
/// parser, so the three can never disagree about the field set. `f` is
/// called as f(name, ref) with ref being std::size_t& or double& (const
/// when SpecT is const).
template <typename FreqT, typename F>
void freq_fields(const std::string& prefix, FreqT& c, F&& f) {
  f(prefix + "episode_rate", c.episode_rate);
  f(prefix + "episode_mean", c.episode_mean);
  f(prefix + "episode_sigma_log", c.episode_sigma_log);
  f(prefix + "depth_lo", c.depth_lo);
  f(prefix + "depth_hi", c.depth_hi);
  f(prefix + "jitter", c.jitter);
  f(prefix + "run_cap_prob", c.run_cap_prob);
  f(prefix + "run_cap_depth", c.run_cap_depth);
  f(prefix + "cap_load_threshold", c.cap_load_threshold);
  f(prefix + "cross_numa_rate_mult", c.cross_numa_rate_mult);
}

template <typename SpecT, typename F>
void for_each_field(SpecT& s, F&& f) {
  f(std::string("machine.sockets"), s.machine.sockets);
  f(std::string("machine.numa_per_socket"), s.machine.numa_per_socket);
  f(std::string("machine.cores_per_numa"), s.machine.cores_per_numa);
  f(std::string("machine.smt"), s.machine.smt);
  f(std::string("machine.base_ghz"), s.machine.base_ghz);
  f(std::string("machine.max_ghz"), s.machine.max_ghz);

  f(std::string("noise.tick_period"), s.sim.noise.tick_period);
  f(std::string("noise.tick_duration"), s.sim.noise.tick_duration);
  f(std::string("noise.daemon_rate"), s.sim.noise.daemon_rate);
  f(std::string("noise.daemon_mean"), s.sim.noise.daemon_mean);
  f(std::string("noise.daemon_sigma_log"), s.sim.noise.daemon_sigma_log);
  f(std::string("noise.kworker_rate_per_cpu"),
    s.sim.noise.kworker_rate_per_cpu);
  f(std::string("noise.kworker_mean"), s.sim.noise.kworker_mean);
  f(std::string("noise.kworker_sigma_log"), s.sim.noise.kworker_sigma_log);
  f(std::string("noise.irq_rate"), s.sim.noise.irq_rate);
  f(std::string("noise.irq_xm"), s.sim.noise.irq_xm);
  f(std::string("noise.irq_alpha"), s.sim.noise.irq_alpha);
  f(std::string("noise.irq_cpus"), s.sim.noise.irq_cpus);
  f(std::string("noise.degrade_prob"), s.sim.noise.degrade_prob);
  f(std::string("noise.degrade_rate_mult"), s.sim.noise.degrade_rate_mult);
  f(std::string("noise.daemon_miss_factor"), s.sim.noise.daemon_miss_factor);
  f(std::string("noise.smt_absorb_factor"), s.sim.noise.smt_absorb_factor);

  freq_fields("freq.", s.sim.freq, f);
  freq_fields("freq_session.", s.freq_session, f);

  f(std::string("mem.domain_gbps"), s.sim.mem.domain_gbps);
  f(std::string("mem.per_core_gbps"), s.sim.mem.per_core_gbps);
  f(std::string("mem.remote_numa_factor"), s.sim.mem.remote_numa_factor);
  f(std::string("mem.remote_socket_factor"),
    s.sim.mem.remote_socket_factor);
  f(std::string("mem.jitter_sigma_log"), s.sim.mem.jitter_sigma_log);

  f(std::string("costs.fork_base"), s.sim.costs.fork_base);
  f(std::string("costs.fork_per_thread"), s.sim.costs.fork_per_thread);
  f(std::string("costs.barrier_base"), s.sim.costs.barrier_base);
  f(std::string("costs.barrier_per_level"), s.sim.costs.barrier_per_level);
  f(std::string("costs.barrier_numa_step"), s.sim.costs.barrier_numa_step);
  f(std::string("costs.barrier_socket_step"),
    s.sim.costs.barrier_socket_step);
  f(std::string("costs.barrier_central_per_thread"),
    s.sim.costs.barrier_central_per_thread);
  f(std::string("costs.reduction_per_level"),
    s.sim.costs.reduction_per_level);
  f(std::string("costs.critical_enter"), s.sim.costs.critical_enter);
  f(std::string("costs.lock_op"), s.sim.costs.lock_op);
  f(std::string("costs.atomic_op"), s.sim.costs.atomic_op);
  f(std::string("costs.atomic_contention"), s.sim.costs.atomic_contention);
  f(std::string("costs.static_setup"), s.sim.costs.static_setup);
  f(std::string("costs.sched_grab_base"), s.sim.costs.sched_grab_base);
  f(std::string("costs.sched_grab_contention"),
    s.sim.costs.sched_grab_contention);
  f(std::string("costs.ordered_wait"), s.sim.costs.ordered_wait);
  f(std::string("costs.single_arbitration"),
    s.sim.costs.single_arbitration);
  f(std::string("costs.migration_cost"), s.sim.costs.migration_cost);
  f(std::string("costs.oversub_stall_mean"),
    s.sim.costs.oversub_stall_mean);
  f(std::string("costs.oversub_stall_sigma"),
    s.sim.costs.oversub_stall_sigma);
  f(std::string("costs.work_scale"), s.sim.costs.work_scale);
  f(std::string("costs.smt_throughput"), s.sim.costs.smt_throughput);
  f(std::string("costs.smt_jitter"), s.sim.costs.smt_jitter);
  f(std::string("costs.smt_sync_overhead"), s.sim.costs.smt_sync_overhead);
  f(std::string("costs.smt_sync_jitter"), s.sim.costs.smt_sync_jitter);
}

/// The value domain of a global numeric key: `text` names it in a load
/// diagnostic.
struct Domain {
  bool zero_ok;
  double max;
  const char* text;
};

/// Every numeric key is a count, a rate, a duration, a frequency, a
/// bandwidth, a factor or a spread: a negative or non-finite one would run
/// team clocks backwards or into NaN, and an infinite event rate draws
/// zero gaps, so episode generation never reaches its horizon. Two kinds
/// are narrower. A probability lies in [0, 1]. A depth is the fraction of
/// the boost clock that a frequency dip or a run cap leaves, so it lies in
/// (0, 1]: at 0 a capped run's clock stops.
Domain domain_of(const std::string& key) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const char* k : {"noise.degrade_prob", "freq.run_cap_prob",
                        "freq_session.run_cap_prob"}) {
    if (key == k) return {true, 1.0, "in [0, 1]"};
  }
  for (const char* k :
       {"freq.depth_lo", "freq.depth_hi", "freq.run_cap_depth",
        "freq_session.depth_lo", "freq_session.depth_hi",
        "freq_session.run_cap_depth"}) {
    if (key == k) return {false, 1.0, "in (0, 1]"};
  }
  return {true, kInf, ">= 0"};
}

/// The per-group fields of the v2 [group <name>] stanza, minus the two
/// special cases (`socket` pins are optional and mutually exclusive with
/// `sockets`; the name lives in the stanza header). Shared by the
/// fingerprint, the serializer and the parser like for_each_field.
template <typename GroupT, typename F>
void group_fields(const std::string& prefix, GroupT& g, F&& f) {
  f(prefix + "sockets", g.sockets);
  f(prefix + "numa", g.numa);
  f(prefix + "cores", g.cores);
  f(prefix + "smt", g.smt);
  f(prefix + "base_ghz", g.base_ghz);
  f(prefix + "max_ghz", g.max_ghz);
  f(prefix + "work_rate", g.work_rate);
}

/// True for the uniform machine geometry keys that cannot be mixed with
/// [group ...] stanzas (machine.label is identity, not geometry).
bool is_uniform_geometry_key(const std::string& key) {
  return key.rfind("machine.", 0) == 0 && key != "machine.label";
}

/// True when `key` is a known top-level scenario key (identity keys or a
/// for_each_field name) — distinguishes "misplaced global key inside a
/// stanza" from "no such key at all" in parser diagnostics.
bool is_global_key(const std::string& key) {
  if (key == "base" || key == "name" || key == "display" ||
      key == "description" || key == "machine.label") {
    return true;
  }
  bool found = false;
  ScenarioSpec probe;
  for_each_field(probe, [&](const std::string& n, auto&) {
    if (n == key) found = true;
  });
  return found;
}

/// Functor overload set for the field visitor (lambdas can't overload).
template <typename UintF, typename DoubleF>
struct FieldVisitor {
  UintF on_uint;
  DoubleF on_double;
  void operator()(const std::string& n, std::size_t& v) { on_uint(n, v); }
  void operator()(const std::string& n, const std::size_t& v) {
    on_uint(n, const_cast<std::size_t&>(v));
  }
  void operator()(const std::string& n, double& v) { on_double(n, v); }
  void operator()(const std::string& n, const double& v) {
    on_double(n, const_cast<double&>(v));
  }
};

template <typename UintF, typename DoubleF>
FieldVisitor<UintF, DoubleF> field_visitor(UintF u, DoubleF d) {
  return {std::move(u), std::move(d)};
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void parse_fail(const std::string& origin, std::size_t line,
                             const std::string& what) {
  throw std::runtime_error("scenario " + origin + ":" +
                           std::to_string(line) + ": " + what);
}

bool parse_double_strict(std::string_view text, double& out) {
  const std::string buf(text);
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_size_strict(std::string_view text, std::size_t& out) {
  const std::string buf(text);
  if (buf.empty()) return false;
  for (const char c : buf) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

[[noreturn]] void spec_fail(const std::string& what) {
  throw std::invalid_argument("MachineSpec: " + what);
}

[[noreturn]] void too_many_threads(const std::string& what) {
  spec_fail(what + " exceeds " +
            std::to_string(MachineSpec::kMaxHwThreads) + " HW threads");
}

/// The product of `dims` (a HW-thread count), failing as soon as a partial
/// product passes MachineSpec::kMaxHwThreads, so none can wrap. A zero
/// dimension yields 0 and is left to the zero-size checks.
std::size_t bounded_threads(std::initializer_list<std::size_t> dims,
                            const std::string& what) {
  std::size_t n = 1;
  for (const std::size_t d : dims) {
    if (d != 0 && n > MachineSpec::kMaxHwThreads / d) too_many_threads(what);
    n *= d;
  }
  return n;
}

}  // namespace

topo::Machine MachineSpec::build() const {
  if (groups.empty()) {
    (void)bounded_threads({sockets, numa_per_socket, cores_per_numa, smt},
                          "sockets x numa_per_socket x cores_per_numa x smt");
    return topo::Machine::uniform(label, sockets, numa_per_socket,
                                  cores_per_numa, smt, base_ghz, max_ghz);
  }

  std::vector<topo::CoreClass> classes;
  classes.reserve(groups.size());
  struct CoreRec {
    std::size_t numa;
    std::size_t socket;
    std::size_t cls;
    std::size_t smt;
  };
  std::vector<CoreRec> core_recs;
  std::size_t next_socket = 0;
  std::size_t next_numa = 0;
  std::size_t max_smt = 0;
  std::size_t n_threads = 0;
  std::set<std::string> names;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const NodeGroupSpec& g = groups[gi];
    if (g.name.empty()) spec_fail("group name must not be empty");
    if (!names.insert(g.name).second) {
      spec_fail("duplicate group name '" + g.name + "'");
    }
    if (g.numa == 0 || g.cores == 0 || g.smt == 0 ||
        (!g.socket_pinned() && g.sockets == 0)) {
      spec_fail("zero-sized dimension in group '" + g.name + "'");
    }
    if (!(g.work_rate > 0.0)) {
      spec_fail("work_rate of group '" + g.name + "' must be positive");
    }
    classes.push_back({g.name, g.base_ghz, g.max_ghz});
    std::size_t first_socket = 0;
    std::size_t socket_count = 1;
    if (g.socket_pinned()) {
      if (g.sockets != 1) {
        spec_fail("group '" + g.name +
                  "' pins an existing socket and cannot also span " +
                  std::to_string(g.sockets) + " fresh sockets");
      }
      if (g.socket >= next_socket) {
        spec_fail("group '" + g.name + "' pins socket " +
                  std::to_string(g.socket) + " but only " +
                  std::to_string(next_socket) +
                  " socket(s) exist before it (pins must reference an "
                  "earlier group's socket)");
      }
      first_socket = g.socket;
    } else {
      first_socket = next_socket;
      socket_count = g.sockets;
      next_socket += g.sockets;
    }
    n_threads += bounded_threads({socket_count, g.numa, g.cores, g.smt},
                                 "group '" + g.name + "'");
    if (n_threads > kMaxHwThreads) too_many_threads("the groups together");
    max_smt = std::max(max_smt, g.smt);
    for (std::size_t s = 0; s < socket_count; ++s) {
      for (std::size_t d = 0; d < g.numa; ++d) {
        const std::size_t numa_id = next_numa++;
        for (std::size_t c = 0; c < g.cores; ++c) {
          core_recs.push_back({numa_id, first_socket + s, gi, g.smt});
        }
      }
    }
  }

  // Linux-convention numbering generalized to mixed SMT: os ids walk all
  // first siblings in core order, then the second siblings of every core
  // that has one, and so on — on symmetric machines this is exactly the
  // uniform() numbering.
  std::vector<topo::HwThread> threads;
  threads.reserve(core_recs.size() * max_smt);
  std::size_t os_id = 0;
  for (std::size_t s = 0; s < max_smt; ++s) {
    for (std::size_t core = 0; core < core_recs.size(); ++core) {
      const CoreRec& rec = core_recs[core];
      if (s >= rec.smt) continue;
      topo::HwThread t;
      t.os_id = os_id++;
      t.core = core;
      t.numa = rec.numa;
      t.socket = rec.socket;
      t.smt_index = s;
      t.cls = rec.cls;
      threads.push_back(t);
    }
  }
  return topo::Machine(label, std::move(threads), std::move(classes));
}

std::vector<double> MachineSpec::class_work_rates() const {
  std::vector<double> rates;
  rates.reserve(groups.size());
  for (const auto& g : groups) rates.push_back(g.work_rate);
  return rates;
}

SpecKey ScenarioSpec::key() const {
  SpecKey k;
  k.add("scenario", name);
  k.add("display", display);
  k.add("machine.label", machine.label);
  for_each_field(
      *this, field_visitor(
                 [&k](const std::string& n, std::size_t& v) { k.add(n, v); },
                 [&k](const std::string& n, double& v) { k.add(n, v); }));
  // v2 node groups (absent on symmetric scenarios, whose fingerprints must
  // not move just because the group axis exists).
  if (!machine.groups.empty()) {
    k.add("machine.n_groups", machine.groups.size());
    for (std::size_t i = 0; i < machine.groups.size(); ++i) {
      const NodeGroupSpec& g = machine.groups[i];
      const std::string prefix = "group." + std::to_string(i) + ".";
      k.add(prefix + "name", g.name);
      if (g.socket_pinned()) k.add(prefix + "socket", g.socket);
      group_fields(
          prefix, g,
          field_visitor(
              [&k](const std::string& n, std::size_t& v) { k.add(n, v); },
              [&k](const std::string& n, double& v) { k.add(n, v); }));
    }
  }
  // Derived per-class calibration (populated from group work_rate keys;
  // folded in separately so a spec mutated in code cannot keep a stale
  // fingerprint).
  if (!sim.class_work_rate.empty()) {
    for (std::size_t i = 0; i < sim.class_work_rate.size(); ++i) {
      k.add("sim.class_work_rate." + std::to_string(i),
            sim.class_work_rate[i]);
    }
  }
  return k;
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream os;
  const bool v2 = !machine.groups.empty();
  os << "# omnivar scenario: " << name << "\n";
  os << "name = " << name << "\n";
  os << "display = " << display << "\n";
  if (!description.empty()) os << "description = " << description << "\n";
  os << "machine.label = " << machine.label << "\n";
  for_each_field(
      *this,
      field_visitor(
          [&os, v2](const std::string& n, std::size_t& v) {
            if (v2 && is_uniform_geometry_key(n)) return;
            os << n << " = " << v << "\n";
          },
          [&os, v2](const std::string& n, double& v) {
            if (v2 && is_uniform_geometry_key(n)) return;
            os << n << " = " << json::number(v) << "\n";
          }));
  // Group stanzas last: every global key must precede them (the parser
  // enforces this, so serialize-then-parse is always well-formed).
  for (const auto& g : machine.groups) {
    os << "[group " << g.name << "]\n";
    if (g.socket_pinned()) os << "socket = " << g.socket << "\n";
    group_fields(
        "", const_cast<NodeGroupSpec&>(g),
        field_visitor(
            [&os, &g](const std::string& n, std::size_t& v) {
              if (n == "sockets" && g.socket_pinned()) return;
              os << n << " = " << v << "\n";
            },
            [&os](const std::string& n, double& v) {
              os << n << " = " << json::number(v) << "\n";
            }));
  }
  return os.str();
}

std::string ScenarioSpec::geometry_summary() const {
  std::ostringstream os;
  if (machine.groups.empty()) {
    os << machine.sockets << (machine.sockets == 1 ? " socket" : " sockets")
       << " x " << machine.numa_per_socket << " NUMA x "
       << machine.cores_per_numa << " cores x SMT-" << machine.smt << ", "
       << machine.base_ghz << "-" << machine.max_ghz << " GHz";
    return os.str();
  }
  for (std::size_t i = 0; i < machine.groups.size(); ++i) {
    const NodeGroupSpec& g = machine.groups[i];
    if (i != 0) os << " + ";
    os << "[" << g.name << "] ";
    if (g.socket_pinned()) {
      os << "socket " << g.socket;
    } else {
      os << g.sockets << (g.sockets == 1 ? " socket" : " sockets");
    }
    os << " x " << g.numa << " NUMA x " << g.cores << " cores x SMT-"
       << g.smt << ", " << g.base_ghz << "-" << g.max_ghz << " GHz";
    if (g.work_rate != 1.0) os << " @" << g.work_rate << "x";
  }
  return os.str();
}

ScenarioSpec parse_text(const std::string& text, const std::string& origin) {
  ScenarioSpec spec;
  bool any_field = false;
  bool name_set = false;
  bool display_set = false;
  bool uniform_geom_in_file = false;
  bool groups_in_file = false;
  std::string base_name;
  std::set<std::string> seen;
  std::istringstream is(text);
  std::string raw;
  std::size_t line_no = 0;
  // Index of the [group ...] stanza currently open; npos outside stanzas.
  constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
  std::size_t cur_group = kNoGroup;
  // Which of the mutually exclusive sockets/socket keys each group used.
  std::vector<bool> group_set_sockets;
  std::vector<bool> group_set_socket;

  while (std::getline(is, raw)) {
    ++line_no;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    if (line.front() == '[') {
      // v2 stanza header: [group <name>].
      if (line.back() != ']') {
        parse_fail(origin, line_no,
                   "malformed stanza '" + std::string(line) +
                       "' (expected '[group <name>]')");
      }
      const std::string_view inner = trim(line.substr(1, line.size() - 2));
      constexpr std::string_view kGroup = "group";
      if (inner.substr(0, kGroup.size()) != kGroup ||
          (inner.size() > kGroup.size() && inner[kGroup.size()] != ' ' &&
           inner[kGroup.size()] != '\t')) {
        parse_fail(origin, line_no,
                   "unknown stanza '" + std::string(line) +
                       "' (only '[group <name>]' is supported)");
      }
      const std::string gname{trim(inner.substr(kGroup.size()))};
      if (gname.empty()) {
        parse_fail(origin, line_no, "empty group name in '[group ...]'");
      }
      if (uniform_geom_in_file) {
        parse_fail(origin, line_no,
                   "cannot mix machine.* geometry keys with [group ...] "
                   "stanzas in one file");
      }
      if (!groups_in_file) {
        // The first stanza starts a fresh geometry definition: uniform
        // fields return to their struct defaults (the residual values are
        // still fingerprinted, so this reset must match MachineSpec{}
        // exactly — hence the default-constructed assignment, not
        // re-stated literals) and any groups inherited via `base` are
        // discarded (the calibration bundle is kept).
        groups_in_file = true;
        const std::string keep_label = spec.machine.label;
        spec.machine = MachineSpec{};
        spec.machine.label = keep_label;
        spec.sim.class_work_rate.clear();
      }
      for (const auto& g : spec.machine.groups) {
        if (g.name == gname) {
          parse_fail(origin, line_no,
                     "duplicate group name '" + gname + "'");
        }
      }
      NodeGroupSpec g;
      g.name = gname;
      spec.machine.groups.push_back(std::move(g));
      group_set_sockets.push_back(false);
      group_set_socket.push_back(false);
      cur_group = spec.machine.groups.size() - 1;
      any_field = true;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      parse_fail(origin, line_no,
                 "expected 'key = value', got '" + std::string(line) + "'");
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) parse_fail(origin, line_no, "empty key");

    if (cur_group != kNoGroup) {
      // Inside a [group ...] stanza: only the per-group keys are valid.
      NodeGroupSpec& g = spec.machine.groups[cur_group];
      if (!seen.insert("group:" + g.name + ":" + key).second) {
        parse_fail(origin, line_no,
                   "duplicate assignment of '" + key + "' in group '" +
                       g.name + "'");
      }
      bool matched = false;
      bool ok = true;
      if (key == "socket") {
        matched = true;
        group_set_socket[cur_group] = true;
        if (group_set_sockets[cur_group]) {
          parse_fail(origin, line_no,
                     "group '" + g.name +
                         "' cannot set both 'sockets' and 'socket'");
        }
        ok = parse_size_strict(value, g.socket);
      } else {
        group_fields(
            "", g,
            field_visitor(
                [&](const std::string& n, std::size_t& v) {
                  if (n != key) return;
                  matched = true;
                  ok = parse_size_strict(value, v);
                },
                [&](const std::string& n, double& v) {
                  if (n != key) return;
                  matched = true;
                  ok = parse_double_strict(value, v);
                }));
        if (matched && key == "sockets") {
          group_set_sockets[cur_group] = true;
          if (group_set_socket[cur_group]) {
            parse_fail(origin, line_no,
                       "group '" + g.name +
                           "' cannot set both 'sockets' and 'socket'");
          }
        }
      }
      if (!matched) {
        if (is_global_key(key)) {
          parse_fail(origin, line_no,
                     "global key '" + key +
                         "' must precede every [group ...] stanza");
        }
        parse_fail(origin, line_no,
                   "unknown key '" + key + "' in group '" + g.name +
                       "' (valid: sockets, socket, numa, cores, smt, "
                       "base_ghz, max_ghz, work_rate)");
      }
      if (!ok) {
        parse_fail(origin, line_no,
                   "malformed value '" + std::string(value) + "' for '" +
                       key + "'");
      }
      continue;
    }

    // NOTE: once a stanza has opened, cur_group stays set for the rest of
    // the file, so every later key=value line is handled above — global
    // keys after a stanza get the "must precede" diagnostic there.
    if (!seen.insert(key).second) {
      parse_fail(origin, line_no, "duplicate assignment of '" + key + "'");
    }

    if (key == "base") {
      if (any_field) {
        parse_fail(origin, line_no,
                   "'base' must precede every overridden field");
      }
      const ScenarioSpec* preset =
          ScenarioRegistry::instance().find(std::string(value));
      if (preset == nullptr) {
        parse_fail(origin, line_no,
                   "unknown base preset '" + std::string(value) + "'");
      }
      const std::string keep_name = spec.name;
      const std::string keep_display = spec.display;
      const std::string keep_desc = spec.description;
      spec = *preset;
      base_name = std::string(value);
      if (!keep_name.empty()) spec.name = keep_name;
      if (!keep_display.empty()) spec.display = keep_display;
      if (!keep_desc.empty()) spec.description = keep_desc;
      continue;
    }
    if (key == "name") {
      spec.name = std::string(value);
      name_set = true;
      continue;
    }
    if (key == "display") {
      spec.display = std::string(value);
      display_set = true;
      continue;
    }
    if (key == "description") {
      spec.description = std::string(value);
      continue;
    }
    if (key == "machine.label") {
      spec.machine.label = std::string(value);
      any_field = true;
      continue;
    }

    if (is_uniform_geometry_key(key) && spec.machine.asymmetric()) {
      // groups_in_file is false here, so the groups came from `base`.
      parse_fail(origin, line_no,
                 "base preset '" + base_name +
                     "' defines node groups; its geometry is overridden "
                     "with [group ...] stanzas, not machine.* keys");
    }

    bool matched = false;
    bool ok = true;
    double number = 0.0;
    for_each_field(
        spec,
        field_visitor(
            [&](const std::string& n, std::size_t& v) {
              if (n != key) return;
              matched = true;
              ok = parse_size_strict(value, v);
            },
            [&](const std::string& n, double& v) {
              if (n != key) return;
              matched = true;
              ok = parse_double_strict(value, v);
              number = v;
            }));
    if (!matched) parse_fail(origin, line_no, "unknown key '" + key + "'");
    if (!ok) {
      parse_fail(origin, line_no,
                 "malformed value '" + std::string(value) + "' for '" + key +
                     "'");
    }
    const Domain domain = domain_of(key);
    if (!(std::isfinite(number) && number >= 0.0 && number <= domain.max &&
          (number > 0.0 || domain.zero_ok))) {
      parse_fail(origin, line_no,
                 "'" + key + "' must be finite and " + domain.text +
                     ", not '" + std::string(value) + "'");
    }
    if (is_uniform_geometry_key(key)) uniform_geom_in_file = true;
    any_field = true;
  }

  if (spec.name.empty()) {
    throw std::runtime_error("scenario " + origin +
                             ": missing required 'name'");
  }
  // A renamed derivation must not masquerade as its base: when the file
  // sets a fresh name without a display, the name is the display.
  if (!display_set && (name_set || spec.display.empty())) {
    spec.display = spec.name;
  }
  if (spec.machine.label == "machine") spec.machine.label = spec.name;
  // The per-class calibration is derived state: re-derive it whenever this
  // file defined (or inherited) groups so it can never drift from them.
  if (spec.machine.asymmetric()) {
    spec.sim.class_work_rate = spec.machine.class_work_rates();
  }
  // Surface geometry errors (zero dimensions, max_ghz < base_ghz, bad
  // socket pins, inconsistent groups) at load time, not deep inside the
  // first harness that builds the machine. Machine's and MachineSpec's
  // validation throws std::invalid_argument; rewrap so every
  // scenario-load failure is one exception type naming the origin.
  try {
    (void)spec.machine.build();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("scenario " + origin + ": invalid machine (" +
                             e.what() + ")");
  }
  return spec;
}

}  // namespace omv::scenario
