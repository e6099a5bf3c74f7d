#include "cli/supervisor.hpp"

#include <cstdio>
#include <thread>

#include "core/deadline.hpp"
#include "core/faultinject.hpp"
#include "core/spec_hash.hpp"

namespace omv::cli {

std::string classify_current_exception() {
  try {
    throw;
  } catch (const core::CellTimeout&) {
    return "timeout";
  } catch (const fault::InjectedFault& e) {
    return e.taxonomy();
  } catch (const std::ios_base::failure&) {
    return "io";
  } catch (const std::exception&) {
    return "exception";
  } catch (...) {
    return "exception";
  }
}

std::chrono::milliseconds backoff_delay(std::uint64_t seed,
                                        std::size_t attempt) {
  // Base 25ms doubling per attempt, capped at 2s, with ±25% jitter from a
  // splitmix-style scramble of (seed, attempt) — fully deterministic for a
  // given cell, different across cells so a herd of retries desynchronizes.
  constexpr std::uint64_t kBaseMs = 25;
  constexpr std::uint64_t kCapMs = 2000;
  std::uint64_t ms = kBaseMs;
  for (std::size_t i = 1; i < attempt && ms < kCapMs; ++i) ms *= 2;
  if (ms > kCapMs) ms = kCapMs;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (attempt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t jitter = z % (ms / 2 + 1);  // 0 .. 50% of base
  return std::chrono::milliseconds(3 * ms / 4 + jitter);  // 75% .. 125%
}

RunMatrix supervise_cell(const SupervisorConfig& cfg,
                         const std::string& label, const std::string& hash,
                         const std::function<RunMatrix()>& body) {
  // Backoff seed: FNV over the hash (or the label when caching is off) so
  // the retry schedule is a pure function of cell identity.
  const std::uint64_t backoff_seed =
      fnv1a64(hash.empty() ? label : hash);

  const std::size_t attempts = cfg.retries + 1;
  for (std::size_t attempt = 1;; ++attempt) {
    core::arm_cell_deadline(cfg.timeout);
    struct DisarmDeadline {
      ~DisarmDeadline() { core::clear_cell_deadline(); }
    } disarm;
    try {
      // Injected faults fire inside the supervised (and thus retried)
      // region: a cell_throw raises here; a slow_cell stall burns budget
      // against the armed deadline before the compute starts.
      const auto stall = fault::active_plan().on_cell_attempt(label);
      if (stall.count() > 0) core::interruptible_stall(stall);
      return body();
    } catch (const CellQuarantined&) {
      throw;  // no nested supervision
    } catch (const std::exception& e) {
      const std::string taxonomy = classify_current_exception();
      if (attempt < attempts) {
        std::fprintf(stderr,
                     "[omnivar] cell '%s' attempt %zu/%zu failed (%s): %s; "
                     "retrying\n",
                     label.c_str(), attempt, attempts, taxonomy.c_str(),
                     e.what());
        std::this_thread::sleep_for(backoff_delay(backoff_seed, attempt));
        continue;
      }
      CellFailure f;
      f.label = label;
      f.hash = hash;
      f.taxonomy = taxonomy;
      f.error = e.what();
      f.attempts = attempt;
      throw CellQuarantined(std::move(f));
    }
  }
}

}  // namespace omv::cli
