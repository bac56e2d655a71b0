#include "raman/evaluate.hpp"

#include <algorithm>
#include <mutex>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/threads.hpp"
#include "obs/obs.hpp"
#include "raman/vibrations.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {

GeometryRecord evaluate(std::vector<grid::AtomSite> geometry,
                        const scf::ScfOptions& options, const Wants& wants,
                        const linalg::Matrix* seed) {
  scf::ScfEngine engine(std::move(geometry), options);
  scf::GroundState gs = engine.solve(seed);
  if (!gs.converged) throw ConvergenceError("evaluate: SCF did not converge");
  GeometryRecord rec;
  rec.energy = gs.total_energy;
  for (int i = 0; i < 3; ++i) {
    rec.dipole[static_cast<std::size_t>(i)] = gs.dipole[i];
  }
  if (wants.alpha != nullptr) {
    dfpt::DfptEngine dfpt(engine, gs, *wants.alpha);
    const linalg::Matrix alpha = dfpt.polarizability();
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) rec.alpha[3 * i + j] = alpha(i, j);
    }
  }
  if (wants.forces) {
    rec.forces = wants.forces().forces(gs, options.electric_field);
  }
  if (wants.density != nullptr) *wants.density = std::move(gs.density);
  return rec;
}

namespace {

GeometryRecord compute_with_retry(
    const SlotKey& key, const FanOut& how,
    const std::function<GeometryRecord(const SlotKey&)>& compute) {
  SWRAMAN_TRACE_SPAN(span, how.span);
  if (span.active() && key.sign != 0) {
    span.attr("coord", static_cast<double>(key.index));
    span.attr("sign", static_cast<double>(key.sign));
  } else if (span.active()) {
    span.attr("field", static_cast<double>(key.index));
  }
  const int attempts = std::max(1, how.attempts);
  for (int attempt = 1;; ++attempt) {
    try {
      return compute(key);
    } catch (const FaultInjected&) {
      throw;  // a simulated hard failure (process kill) must propagate
    } catch (const Error& e) {
      if (attempt >= attempts) throw;
      log::warn(how.span, ": slot ", key.index,
                key.sign > 0 ? "+" : (key.sign < 0 ? "-" : ""),
                " failed on attempt ", attempt, "/", attempts, " (",
                e.what(), ") — retrying");
    }
  }
}

}  // namespace

std::vector<GeometryRecord> fan_out(
    const std::vector<SlotKey>& keys, Checkpoint& ckpt, const FanOut& how,
    const std::function<void()>& prepare,
    const std::function<GeometryRecord(const SlotKey&)>& compute) {
  std::vector<GeometryRecord> records(keys.size());
  std::vector<std::size_t> missing;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (const GeometryRecord* stored =
            ckpt.lookup(keys[k].index, keys[k].sign)) {
      records[k] = *stored;
      obs::count("checkpoint.hits");
    } else {
      missing.push_back(k);
    }
  }
  if (!missing.empty() && prepare) prepare();

  // Level 1: the missing slots are independent, so they run concurrently,
  // one per claim, in key order. Each record becomes durable as its slot
  // finishes; replay is keyed per slot, so the order records reach the
  // file does not matter.
  std::mutex ckpt_mutex;
  threads::claim_each(missing.size(), geometry_threads(), [&](std::size_t m) {
    const std::size_t k = missing[m];
    obs::count("checkpoint.misses");
    records[k] = compute_with_retry(keys[k], how, compute);
    {
      const std::scoped_lock lock(ckpt_mutex);
      ckpt.record(keys[k].index, keys[k].sign, records[k]);
    }
    // Simulated mid-loop process death: fires only on freshly computed
    // slots, after their checkpoint record is durable — exactly the crash
    // window restart is designed for. An armed injector keeps this loop
    // serial, so the kill lands where it would serially.
    if (fault::should_fire(how.kill_site)) {
      fault::FaultInjector::raise(how.kill_site);
    }
  });
  return records;
}

}  // namespace swraman::raman
