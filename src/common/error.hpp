#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

// Error handling: SWRAMAN_REQUIRE for precondition checks on public
// interfaces (always on), SWRAMAN_ASSERT for internal invariants (on unless
// NDEBUG). Both throw swraman::Error so callers can recover and tests can
// assert on failure.

namespace swraman {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Typed-error taxonomy for the fault-tolerance layer: callers catch the
// specific class they can recover from (a timed-out collective, a diverged
// SCF cycle, a damaged checkpoint, an unusable geometry, an injected test
// fault) and let anything else propagate as a plain Error.

// A blocking operation (recv, allreduce, DMA) exhausted its bounded
// retry/backoff budget without completing.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

// An iterative solver (SCF, DFPT response) failed to reach its tolerance
// after the configured recovery attempts.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

// A checkpoint file is missing required structure, carries an unsupported
// version, or does not match the run being resumed.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

// An input geometry the engines cannot represent: nuclei so close that
// their basis functions are linearly dependent and the Coulomb
// singularities coincide.
class GeometryError : public Error {
 public:
  explicit GeometryError(const std::string& what) : Error(what) {}
};

// Raised by an armed fault-injection site that models a hard component
// failure (killed process, dead CPE past redistribution, poisoned data).
class FaultInjected : public Error {
 public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

// Raised by the swcheck shadow-state checker (sunway/check) when a
// kernel violates the Sunway execution protocol it models — an LDM tile
// overrun, a read of an un-waited DMA transfer, an RMA mailbox left
// unconsumed. These are programming errors in the kernel under test,
// not recoverable runtime conditions; callers other than the checker's
// own tests should let them propagate.
class CheckViolation : public Error {
 public:
  CheckViolation(std::string rule, const std::string& what)
      : Error(what), rule_(std::move(rule)) {}

  // Canonical rule name (check::kRule*) that fired.
  [[nodiscard]] const std::string& rule() const { return rule_; }

 private:
  std::string rule_;
};

namespace detail {
[[noreturn]] inline void fail(const char* kind, const char* expr,
                              const char* file, int line,
                              const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace swraman

#define SWRAMAN_REQUIRE(cond, msg)                                       \
  do {                                                                   \
    if (!(cond))                                                         \
      ::swraman::detail::fail("precondition", #cond, __FILE__, __LINE__, \
                              (msg));                                    \
  } while (false)

#ifdef NDEBUG
#define SWRAMAN_ASSERT(cond, msg) \
  do {                            \
  } while (false)
#else
#define SWRAMAN_ASSERT(cond, msg)                                         \
  do {                                                                    \
    if (!(cond))                                                          \
      ::swraman::detail::fail("assertion", #cond, __FILE__, __LINE__,     \
                              (msg));                                     \
  } while (false)
#endif
