#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

// The three benchmark workloads behind one interface: set-up once, then
// repeatable operations that each check their own result.

namespace swbench {

struct OpResult {
  double wall_s = 0.0;               // the operation's end-to-end time
  std::vector<double> latencies_s;   // one per completed job
  std::size_t completed = 0;         // jobs completed
  std::size_t attempted = 0;         // correctness-checked operations
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> setup;  // set-up paid inside this op
  std::map<std::string, double> info;   // per-op numbers for the record

  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Set-up paid once per run; appends timing samples per set-up part.
  virtual void setup(std::map<std::string, std::vector<double>>& parts) = 0;
  virtual OpResult run_op() = 0;
  // Whether a traced operation is wrapped in one root span (false when the
  // calling thread mostly waits for workers).
  [[nodiscard]] virtual bool traced_root() const { return true; }
};

// nullptr for an unknown name. `golden` is the water golden snapshot path.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& golden);

// Every workload's generated inputs for `seed` as text.
std::string dump_inputs(std::uint64_t seed);

}  // namespace swbench
