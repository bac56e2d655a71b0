#pragma once

#include <cstdint>
#include <vector>

#include "common/backoff.hpp"
#include "serve/job.hpp"

// Shard router of the durable serve tier (DESIGN.md S12). Jobs are
// hashed by tenant + content key and placed by rendezvous (highest-
// random-weight) hashing over the *live* shards:
//
//   route(key) = argmax_{s live} mix(key, salt_s)
//
// Rendezvous hashing gives deterministic minimal movement — when a shard
// dies, only the keys it owned move (each to the survivor with the next-
// highest score), and when it recovers they all come home; keys owned by
// healthy shards never migrate. That is the failover protocol: no ring
// state, no token exchange, every participant computes the same placement
// from (key, liveness bitmap) alone.
//
// Health tracking is driven by the sharded service: submissions that
// throw (wedged WAL, injected shard kill) mark the shard dead; recovery
// marks it alive. Each shard carries a deterministic decorrelated-jitter
// Backoff whose schedule spaces recovery probes and supplies the
// retry_after_s hint for submissions that cannot be placed — a rejection
// caused by a dead shard hints the dead shard's next-probe estimate
// instead of 0.0 (the retry_after fix of ISSUE 6).

namespace swraman::serve {

struct RouterOptions {
  std::size_t n_shards = 1;
  std::uint64_t seed = 2026;  // salts the score mix + probe jitter
  BackoffOptions probe;       // recovery-probe spacing per dead shard
  RouterOptions() {
    probe.base_s = 0.05;
    probe.cap_s = 2.0;
    probe.decorrelated = true;
  }
};

class ShardRouter {
 public:
  // Sentinel returned by route() when no shard is live.
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  explicit ShardRouter(RouterOptions options);

  // Stable routing key of a job: tenant id + content fingerprint (the
  // settings fingerprint plus, for Real jobs, the geometry image), so a
  // tenant's resubmissions of one system always land on one shard and
  // its displacement dedup stays shard-local on the common path.
  static std::uint64_t job_key(const JobSpec& spec);

  [[nodiscard]] std::size_t n_shards() const { return alive_.size(); }
  [[nodiscard]] std::size_t n_live() const;
  [[nodiscard]] bool alive(std::size_t shard) const;

  // Owner of `key` among live shards (kNoShard when none live).
  [[nodiscard]] std::size_t route(std::uint64_t key) const;

  // Owner ignoring liveness — the key's home shard.
  [[nodiscard]] std::size_t home(std::uint64_t key) const;

  void mark_dead(std::size_t shard);
  void mark_alive(std::size_t shard);

  // Seconds until the dead shard's next recovery probe — the
  // retry_after_s hint for submissions that could not be placed.
  // Advances the shard's deterministic backoff schedule.
  [[nodiscard]] double retry_after_hint(std::size_t shard);

  [[nodiscard]] std::uint64_t deaths() const { return deaths_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

  // The rendezvous score itself — public and static so callers can rank
  // shards for a key without a router instance.
  [[nodiscard]] static std::uint64_t score(std::uint64_t key,
                                           std::size_t shard,
                                           std::uint64_t seed);

 private:
  [[nodiscard]] std::uint64_t score(std::uint64_t key,
                                    std::size_t shard) const;

  RouterOptions options_;
  std::vector<bool> alive_;
  std::vector<Backoff> probe_;
  std::uint64_t deaths_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace swraman::serve
