#pragma once

#include <cstddef>
#include <functional>
#include <thread>

// The repo's host-thread helpers outside the serve worker pool. Every
// short-lived thread that is not a pool worker starts here: the SPMD rank
// threads of parallel::run_spmd, the logical-CPE dispatch threads of
// sunway::CpeCluster::run, and the communication thread of one in-flight
// parallel::iallreduce. Nothing here detaches; every thread is joined
// before its owner goes away.

namespace swraman::threads {

// Host threads worth running at once: std::thread::hardware_concurrency,
// at least 1 (the standard allows 0 for "unknown").
[[nodiscard]] std::size_t hardware_threads();

// Fork-join: runs body(0), ..., body(n - 1), each on its own new thread,
// and returns once every thread has joined. If any call threw, the
// exception of the lowest index that threw is rethrown on the caller,
// after the join. n == 0 runs nothing.
void fork_join(std::size_t n, const std::function<void(std::size_t)>& body);

// One background thread, started at construction and joined by join() or,
// as a backstop, by the destructor or by assigning over it.
class Joinable {
 public:
  Joinable() = default;
  explicit Joinable(std::function<void()> fn);
  Joinable(Joinable&&) noexcept = default;
  Joinable& operator=(Joinable&& other) noexcept;
  Joinable(const Joinable&) = delete;
  Joinable& operator=(const Joinable&) = delete;
  ~Joinable();

  // Waits for the thread; a no-op when none runs or it was joined.
  void join();

 private:
  std::thread thread_;
};

}  // namespace swraman::threads
