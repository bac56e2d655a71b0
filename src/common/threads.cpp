#include "common/threads.hpp"

#include <exception>
#include <utility>
#include <vector>

namespace swraman::threads {

std::size_t hardware_threads() {
  // Read once: the query may read a file on every call.
  static const std::size_t n = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? std::size_t{1} : static_cast<std::size_t>(hc);
  }();
  return n;
}

void fork_join(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(n);
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

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
