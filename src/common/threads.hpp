#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <thread>

// The repo's host-thread helpers outside the serve worker pool. Every
// short-lived thread that is not a pool worker starts here: the SPMD rank
// threads of parallel::run_spmd, the logical-CPE dispatch threads of
// sunway::CpeCluster::run, the displaced-geometry solves of the Raman
// pipeline (level 1), the batches of the SCF engine's grid passes, and
// the communication thread of one in-flight parallel::iallreduce. Nothing
// here detaches; every thread is joined before its owner goes away.
//
// One thread budget: a thread started by fork_join, run_dedicated,
// claim_each or claim_each_ordered (and the caller while it works through
// a claim loop) runs as a task. A fork_join or claim loop called from
// inside a task runs inline on that thread, so the outermost parallel
// level takes the cores and the levels below it go serial; nested
// launches never multiply the thread count.

namespace swraman::threads {

// Host threads worth running at once: std::thread::hardware_concurrency,
// at least 1 (the standard allows 0 for "unknown").
[[nodiscard]] std::size_t hardware_threads();

// True while the calling thread runs a fork_join, run_dedicated or claim
// loop task.
[[nodiscard]] bool in_task();

// Fork-join: runs body(0), ..., body(n - 1), each on its own new thread,
// and returns once every thread has joined. Called from inside a task it
// runs every index inline, in order, on the calling thread. Either way, if
// any call threw, the exception of the lowest index that threw is
// rethrown on the caller after every call has finished. n == 0 runs
// nothing.
void fork_join(std::size_t n, const std::function<void(std::size_t)>& body);

// fork_join with one real thread per index even inside a task, for bodies
// that block on each other (the SPMD ranks of parallel::run_spmd).
void run_dedicated(std::size_t n,
                   const std::function<void(std::size_t)>& body);

// Claim-next loop: runs body(0), ..., body(n - 1) on up to max_threads
// threads, the caller included (it starts max_threads - 1 new ones). Each
// thread claims the next unrun index in increasing order, so an index is
// claimed only after every lower one. After a call throws no further index
// is claimed; the calls in flight finish, every thread joins, and then the
// exception of the lowest index that threw is rethrown. Hence the error is
// the one a serial loop over the indices would have stopped at. With
// max_threads <= 1, or from inside a task, the loop runs serially on the
// caller and stops at the first throw.
void claim_each(std::size_t n, std::size_t max_threads,
                const std::function<void(std::size_t)>& body);

// Claim-next compute with an in-order commit, for loops whose results are
// reduced in index order (the grid passes' scatter-add). compute(i, slot)
// runs for every i in [0, n) as claim_each runs body(i); commit(i, slot)
// then runs for each computed i strictly in increasing index order, one
// at a time, on whichever thread completes the committed prefix. `slot`
// names the scratch that i owns from its compute until its commit
// returns: i % window. At most `window` (at least 1) indices are in
// flight, claimed but not yet committed; a thread that would claim past
// that waits for the commits to catch up. After a compute (or commit) throws, no further
// index is claimed and only the indices below the lowest failing one
// commit; once every thread has returned, that index's exception is
// rethrown. With max_threads <= 1, or from inside a task, it runs
// compute(i, 0) then commit(i, 0) for i ascending on the caller, with no
// lock, and stops at the first throw.
void claim_each_ordered(
    std::size_t n, std::size_t max_threads, std::size_t window,
    const std::function<void(std::size_t, std::size_t)>& compute,
    const std::function<void(std::size_t, std::size_t)>& commit);

// Trace-context hand-off to new threads. The obs layer installs these from
// a static registrar (src/obs/trace.cpp) so spans a task opens on a new
// thread nest under the span the forking thread had open, while this
// library stays below obs. Either pointer may be null.
struct ForkHooks {
  // Runs on the forking thread: the context to hand over ("" for none).
  std::string (*capture)() = nullptr;
  // Runs first on each new thread with a non-empty captured context.
  void (*adopt)(const std::string& context) = nullptr;
};
void install_fork_hooks(const ForkHooks& hooks);

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
