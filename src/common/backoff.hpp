#pragma once

#include <algorithm>
#include <cstdint>

// Shared retry-backoff schedule (DESIGN.md S12). Two modes over one
// deterministic splitmix64 stream:
//
//   exponential    delay_k = min(cap, base * multiplier^k) — the classic
//                  doubling schedule of the comm retransmit path.
//   decorrelated   delay_k = min(cap, uniform(base, prev * 3)) — the
//                  "decorrelated jitter" schedule; retries of independent
//                  actors spread out instead of synchronizing into
//                  retransmit storms, while staying fully reproducible
//                  for a fixed seed.
//
// The helper owns no clock and never sleeps; callers decide what to do
// with the returned delay. Determinism contract: a fixed (options, seed)
// yields a fixed delay sequence, so fault-injection tests replay byte-
// identical retry timelines.

namespace swraman {

struct BackoffOptions {
  double base_s = 1e-4;     // first retry delay (and jitter floor)
  double cap_s = 0.05;      // delay ceiling
  double multiplier = 2.0;  // exponential growth factor
  bool decorrelated = false;  // true: decorrelated jitter mode
  std::uint64_t seed = 0;     // jitter stream seed (decorrelated only)
};

class Backoff {
 public:
  explicit Backoff(BackoffOptions options = {})
      : options_(options), prev_s_(options.base_s), rng_(options.seed) {}

  // Delay before the next retry attempt; advances the schedule.
  double next() {
    ++attempt_;
    if (!options_.decorrelated) {
      double d = options_.base_s;
      for (int k = 1; k < attempt_; ++k) {
        d *= options_.multiplier;
        if (d >= options_.cap_s) break;
      }
      return std::min(d, options_.cap_s);
    }
    const double hi = std::max(options_.base_s, prev_s_ * 3.0);
    const double d =
        std::min(options_.cap_s,
                 options_.base_s + uniform01() * (hi - options_.base_s));
    prev_s_ = d;
    return d;
  }

  // Restarts the schedule (attempt counter, jitter state and RNG stream),
  // as after a successful probe of a recovered peer.
  void reset() {
    attempt_ = 0;
    prev_s_ = options_.base_s;
    rng_ = options_.seed;
  }

  [[nodiscard]] int attempt() const { return attempt_; }
  [[nodiscard]] const BackoffOptions& options() const { return options_; }

 private:
  // splitmix64 — same generator the modeled serve engine uses; no <random>
  // distribution so the stream is identical across standard libraries.
  double uniform01() {
    rng_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = rng_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  BackoffOptions options_;
  double prev_s_ = 0.0;
  int attempt_ = 0;
  std::uint64_t rng_ = 0;
};

}  // namespace swraman
