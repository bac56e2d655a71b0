#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>

// Deterministic fault-injection framework (the robustness layer's test
// harness). Code under test declares named fault points; a configured
// injector decides per visit whether the fault fires, drawing from a
// seeded per-site RNG so that every failure scenario is reproducible:
// the same seed and spec always produce the same fire/no-fire sequence
// at each site, independent of how other sites interleave.
//
// Sites are armed programmatically (tests, CLI) or through the
// environment:
//
//   SWRAMAN_FAULT_POINTS="sunway.dma.fail:p=0.01;sunway.cpe.death:at=1"
//   SWRAMAN_FAULT_SEED=42
//
// Spec grammar per site: `name:key=value[,key=value...]` joined by `;`.
// Keys: `p` (per-visit firing probability), `at` (fire exactly on the
// N-th visit, 1-based), `max` (cap on total fires; `at` implies max=1
// unless overridden). An unarmed injector short-circuits to a single
// relaxed atomic load, so dormant sites cost nothing on hot paths.

namespace swraman::fault {

// Canonical site names. Sites are open-ended — any string works — but the
// stack's built-in injection points live here so tests and docs agree.
inline constexpr const char* kCommSendDrop = "comm.send.drop";
inline constexpr const char* kCommRecvDelay = "comm.recv.delay";
inline constexpr const char* kCommStall = "comm.stall";
inline constexpr const char* kDmaFail = "sunway.dma.fail";
inline constexpr const char* kRmaDrop = "sunway.rma.drop";
inline constexpr const char* kCpeDeath = "sunway.cpe.death";
inline constexpr const char* kScfDiverge = "scf.diverge";
inline constexpr const char* kScfPoisonDensityMatrix =
    "scf.density_matrix.poison";
inline constexpr const char* kDfptDiverge = "dfpt.diverge";
inline constexpr const char* kRamanKill = "raman.kill";
inline constexpr const char* kBecKill = "raman.bec.kill";

struct FaultSpec {
  double probability = 0.0;  // per-visit firing probability
  long long fire_at = -1;    // fire exactly on this visit (1-based); -1 off
  long long max_fires = -1;  // total-fire cap; -1 = unlimited
};

struct SiteStats {
  std::uint64_t visits = 0;
  std::uint64_t fires = 0;
};

class FaultInjector {
 public:
  // Process-wide injector; reads the SWRAMAN_FAULT_* environment on first
  // use.
  static FaultInjector& instance();

  // Arms `site` with the given trigger. Resets the site's visit/fire
  // counters and reseeds its RNG from the current seed.
  void configure(const std::string& site, const FaultSpec& spec);

  // Parses the `name:key=value,...;name2:...` grammar described above.
  // Throws Error on malformed input.
  void configure_from_string(const std::string& config);

  // Reseeds every armed site (counters reset too): after set_seed the
  // injector replays from the beginning of each site's sequence.
  void set_seed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t seed() const;

  // Disarms every site and clears all statistics.
  void clear();

  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  // Records a visit to `site`; returns true if the fault fires. Unarmed
  // injectors return false without taking the lock.
  bool should_fire(const std::string& site);

  [[nodiscard]] SiteStats stats(const std::string& site) const;

  // Throws FaultInjected with the site name (for sites that model hard,
  // unrecoverable failures).
  [[noreturn]] static void raise(const std::string& site);

 private:
  FaultInjector();

  struct Site {
    FaultSpec spec;
    SiteStats stats;
    std::mt19937_64 rng;
  };

  void reseed_locked(Site& site, const std::string& name);

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  std::uint64_t seed_ = 12345;
  std::map<std::string, Site> sites_;
};

// Convenience wrappers over the process-wide injector.
inline bool should_fire(const char* site) {
  FaultInjector& inj = FaultInjector::instance();
  if (!inj.armed()) return false;
  return inj.should_fire(site);
}

inline void reset() { FaultInjector::instance().clear(); }

// RAII guard for tests: clears the injector on entry and exit so armed
// sites never leak across test cases.
class ScopedFaults {
 public:
  ScopedFaults() { reset(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
  ~ScopedFaults() { reset(); }
};

}  // namespace swraman::fault
