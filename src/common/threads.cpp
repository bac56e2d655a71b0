#include "common/threads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

namespace swraman::threads {

namespace {

thread_local bool t_in_task = false;

// Installed once from a static registrar before main; read-only after.
ForkHooks g_hooks;

// Marks the calling thread as running a task for the scope.
class TaskScope {
 public:
  TaskScope() : saved_(t_in_task) { t_in_task = true; }
  ~TaskScope() { t_in_task = saved_; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool saved_;
};

void rethrow_lowest(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Runs body(i) for every i in [0, n) as a task: index 0 on the caller when
// caller_first, every other index on a new thread that first adopts the
// caller's trace context. Returns each index's exception once every
// thread has joined.
std::vector<std::exception_ptr> spawn_join(
    std::size_t n, const std::function<void(std::size_t)>& body,
    bool caller_first) {
  std::vector<std::exception_ptr> errors(n);
  const std::string context =
      g_hooks.capture != nullptr ? g_hooks.capture() : std::string();
  const auto run = [&](std::size_t i) {
    const TaskScope task;
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (std::size_t i = caller_first ? 1 : 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        if (!context.empty() && g_hooks.adopt != nullptr) {
          g_hooks.adopt(context);
        }
        run(i);
      });
    }
  } catch (...) {
    // Thread creation failed: join the ones that started, then report it.
    for (std::thread& t : threads) t.join();
    throw;
  }
  if (caller_first && n > 0) run(0);
  for (std::thread& t : threads) t.join();
  return errors;
}

}  // namespace

std::size_t hardware_threads() {
  // Read once: the query may read a file on every call.
  static const std::size_t n = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? std::size_t{1} : static_cast<std::size_t>(hc);
  }();
  return n;
}

bool in_task() { return t_in_task; }

void fork_join(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (!t_in_task) {
    rethrow_lowest(spawn_join(n, body, false));
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
  rethrow_lowest(errors);
}

void run_dedicated(std::size_t n,
                   const std::function<void(std::size_t)>& body) {
  rethrow_lowest(spawn_join(n, body, false));
}

void claim_each(std::size_t n, std::size_t max_threads,
                const std::function<void(std::size_t)>& body) {
  const std::size_t width = t_in_task ? 1 : std::min(max_threads, n);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto claim = [&](std::size_t) {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed); k < n;
         k = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(k);
      } catch (...) {
        errors[k] = std::current_exception();
        next.store(n, std::memory_order_relaxed);
      }
    }
  };
  spawn_join(width, claim, true);  // claim itself never throws
  rethrow_lowest(errors);
}

void claim_each_ordered(
    std::size_t n, std::size_t max_threads, std::size_t window,
    const std::function<void(std::size_t, std::size_t)>& compute,
    const std::function<void(std::size_t, std::size_t)>& commit) {
  const std::size_t width = t_in_task ? 1 : std::min(max_threads, n);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      compute(i, 0);
      commit(i, 0);
    }
    return;
  }
  window = std::max<std::size_t>(window, 1);
  std::mutex mu;
  // Signalled when `committed` advances or `stop` drops.
  std::condition_variable room;
  std::size_t next = 0;       // the next index to claim
  std::size_t committed = 0;  // [0, committed) are committed
  std::size_t stop = n;       // the lowest failing index, n while none
  bool committing = false;    // a thread runs the commit loop
  std::vector<char> ready(window, 0);  // per slot: computed, not committed
  std::vector<std::exception_ptr> errors(n);
  // Under the lock: no index at or above i is claimed or committed.
  const auto fail = [&](std::size_t i, std::exception_ptr error) {
    errors[i] = std::move(error);
    stop = std::min(stop, i);
    room.notify_all();
  };
  const auto claim = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      room.wait(lock,
                [&] { return next >= stop || next < committed + window; });
      if (next >= stop) return;
      const std::size_t i = next++;
      lock.unlock();
      std::exception_ptr error;
      try {
        compute(i, i % window);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error) {
        fail(i, std::move(error));
        continue;
      }
      ready[i % window] = 1;
      // The thread running the commit loop re-checks `ready` under the
      // lock before it leaves, so it picks up this index if it can.
      if (committing) continue;
      committing = true;
      while (committed < stop && ready[committed % window] != 0) {
        const std::size_t k = committed;
        ready[k % window] = 0;
        lock.unlock();
        try {
          commit(k, k % window);
        } catch (...) {
          error = std::current_exception();
        }
        lock.lock();
        if (error) {
          fail(k, std::move(error));
          break;
        }
        ++committed;
        room.notify_all();
      }
      committing = false;
    }
  };
  spawn_join(width, claim, true);  // claim itself never throws
  rethrow_lowest(errors);
}

void install_fork_hooks(const ForkHooks& hooks) { g_hooks = hooks; }

Joinable::Joinable(std::function<void()> fn) : thread_(std::move(fn)) {}

Joinable& Joinable::operator=(Joinable&& other) noexcept {
  if (this != &other) {
    join();
    thread_ = std::move(other.thread_);
  }
  return *this;
}

Joinable::~Joinable() { join(); }

void Joinable::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace swraman::threads
