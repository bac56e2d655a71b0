#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "obs/flight.hpp"

namespace swraman::obs {

namespace {
// Bottom finite bucket bound and the per-bucket growth (six buckets per
// decade). 63 finite buckets span [1e-6, ~3.16e4); the 64th saturates.
constexpr double kBucketLo = 1e-6;
constexpr double kBucketsPerDecade = 6.0;

// The check core lives in swraman_common, below this library, so it
// cannot reach the metrics registry or the flight recorder directly. Any
// binary linking obs installs these sinks from static init; violations
// then bump check.violations (bypassing the obs::count tracing gate — a
// checked run tallies whether or not tracing is on; the instant stays
// gated, it is trace data) and dump the flight rings before a throwing
// report unwinds.
struct CheckSinkInit {
  CheckSinkInit() {
    check::ObsSinks sinks;
    sinks.violation = [](const char* rule, const std::string&) {
      Registry::instance().counter("check.violations").add(1.0);
      obs::instant("check.violation", "rule", std::string(rule));
    };
    sinks.flight_dump = [](const char* reason) { flight::dump(reason); };
    check::install_obs_sinks(sinks);
  }
};
const CheckSinkInit g_check_sink_init;
}  // namespace

double Histogram::bucket_upper(std::size_t i) {
  if (i >= kBuckets - 1) i = kBuckets - 2;
  return kBucketLo *
         std::pow(10.0, static_cast<double>(i + 1) / kBucketsPerDecade);
}

std::size_t Histogram::bucket_index(double v) {
  if (!(v > bucket_upper(0))) return 0;  // <= bottom bound, incl. <=0 / NaN
  if (v > bucket_upper(kBuckets - 2)) return kBuckets - 1;  // saturation
  double est = std::ceil(std::log10(v / kBucketLo) * kBucketsPerDecade) - 1.0;
  std::size_t i = est < 0.0 ? 0 : static_cast<std::size_t>(est);
  if (i > kBuckets - 2) i = kBuckets - 2;
  // log10 rounding can land one off at a bucket boundary; walk to the
  // first bucket whose inclusive upper bound actually covers v.
  while (i < kBuckets - 2 && v > bucket_upper(i)) ++i;
  while (i > 0 && v <= bucket_upper(i - 1)) --i;
  return i;
}

void Histogram::observe(double v) {
  const lockcheck::CheckedLock lock(mutex_);
  if (s_.count == 0) {
    s_.min = v;
    s_.max = v;
  } else {
    if (v < s_.min) s_.min = v;
    if (v > s_.max) s_.max = v;
  }
  ++s_.count;
  s_.sum += v;
  ++s_.buckets[bucket_index(v)];
}

Histogram::Snapshot Histogram::snapshot() const {
  const lockcheck::CheckedLock lock(mutex_);
  return s_;
}

double Histogram::quantile(double q) const { return obs::quantile(snapshot(), q); }

std::uint64_t Histogram::count_below(double x) const {
  return obs::count_below(snapshot(), x);
}

double quantile(const Histogram::Snapshot& s, double q) {
  if (s.count == 0) return 0.0;
  if (s.count == 1 || q <= 0.0) return s.min;
  if (q >= 1.0) return s.max;
  // 0-based position in the sorted sample; walk the cumulative buckets.
  const double pos = q * static_cast<double>(s.count - 1);
  double cum = 0.0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const double n = static_cast<double>(s.buckets[i]);
    if (n == 0.0) continue;
    if (pos < cum + n) {
      if (i == Histogram::kBuckets - 1) return s.max;  // saturated bucket
      const double lower = i == 0 ? 0.0 : Histogram::bucket_upper(i - 1);
      const double upper = Histogram::bucket_upper(i);
      const double frac = std::clamp((pos - cum + 1.0) / n, 0.0, 1.0);
      return std::clamp(lower + frac * (upper - lower), s.min, s.max);
    }
    cum += n;
  }
  return s.max;
}

std::uint64_t count_below(const Histogram::Snapshot& s, double x) {
  if (s.count == 0 || x < s.min) return 0;
  if (x >= s.max) return s.count;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t n = s.buckets[i];
    if (n == 0) continue;
    const bool saturated = i == Histogram::kBuckets - 1;
    const double lower = i == 0 ? 0.0 : Histogram::bucket_upper(i - 1);
    const double upper = saturated ? s.max : Histogram::bucket_upper(i);
    if (x >= upper) {
      acc += n;
      continue;
    }
    if (x > lower && upper > lower) {
      const double frac = std::clamp((x - lower) / (upper - lower), 0.0, 1.0);
      acc += static_cast<std::uint64_t>(frac * static_cast<double>(n));
    }
    break;  // later buckets hold only samples above x
  }
  return std::min(acc, s.count);
}

Registry& Registry::instance() {
  // Leaked: exporters may run from atexit after other statics are gone.
  static Registry* r = new Registry;
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  const lockcheck::CheckedLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const lockcheck::CheckedLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const lockcheck::CheckedLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, double> Registry::counter_values() const {
  const lockcheck::CheckedLock lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, double> Registry::gauge_values() const {
  const lockcheck::CheckedLock lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, Histogram::Snapshot> Registry::histogram_values()
    const {
  const lockcheck::CheckedLock lock(mutex_);
  std::map<std::string, Histogram::Snapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h->snapshot();
  return out;
}

void Registry::reset_for_testing() {
  const lockcheck::CheckedLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace swraman::obs
