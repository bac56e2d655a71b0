#include "serve/wal.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"

namespace swraman::serve {

namespace {

constexpr const char* kHeaderTag = "swraman-wal-v2";

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string format_hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// FNV-1a over the record body — the same hash the cache keys use, so a
// single primitive covers content addressing and corruption detection.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Tenant/name strings are hex-encoded so record tokenization never
// depends on their content; "-" stands for the empty string.
std::string encode_string(const std::string& s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(2 * s.size());
  static const char* hex = "0123456789abcdef";
  for (const unsigned char c : s) {
    out.push_back(hex[c >> 4]);
    out.push_back(hex[c & 0xF]);
  }
  return out;
}

bool decode_string(const std::string& in, std::string* out) {
  out->clear();
  if (in == "-") return true;
  if (in.size() % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < in.size(); i += 2) {
    const int hi = nibble(in[i]);
    const int lo = nibble(in[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool parse_hex64(const std::string& s, std::uint64_t* out) {
  return std::sscanf(s.c_str(), "%" SCNx64, out) == 1;
}

// Job-record payload: every field settings_fingerprint() covers, so the
// replayed spec reproduces the fingerprint (and with it every cache key)
// exactly. Modeled specs round-trip completely; Real specs round-trip
// the geometry plus the result-determining options — auxiliary knobs not
// in the fingerprint (batching, DIIS depths, recovery attempts) revert
// to defaults, which by the fingerprint contract cannot change results.
std::string encode_spec(const JobSpec& spec) {
  std::ostringstream body;
  body << encode_string(spec.client) << " " << encode_string(spec.name)
       << " " << spec.priority << " " << format_double(spec.weight) << " "
       << (spec.engine == EngineKind::Modeled ? 'm' : 'r') << " "
       << spec.attempts << " " << (spec.with_modes ? 1 : 0) << " "
       << (spec.tier == Tier::Bec ? 'b' : 'd') << " "
       << format_double(spec.bec_field);
  if (spec.engine == EngineKind::Modeled) {
    const core::SystemScale& sc = spec.scale;
    body << " scale " << sc.n_atoms << " "
         << format_double(sc.points_per_atom) << " "
         << format_double(sc.basis_per_atom) << " "
         << format_double(sc.points_per_batch) << " "
         << format_double(sc.local_fns_per_batch) << " "
         << sc.multipole_lmax << " "
         << format_double(sc.radial_shells_per_atom);
    return body.str();
  }
  const raman::RamanOptions& o = spec.options;
  const scf::ScfOptions& scf = o.vibrations.scf;
  body << " opts " << format_double(o.alpha_displacement) << " "
       << format_double(o.mode_floor_cm) << " " << o.geometry_attempts << " "
       << format_double(o.vibrations.displacement) << " "
       << (o.vibrations.project_rigid_body ? 1 : 0) << " "
       << static_cast<int>(scf.functional) << " "
       << static_cast<int>(scf.grid.level) << " " << scf.multipole_lmax
       << " " << format_double(scf.density_tol) << " "
       << format_double(scf.energy_tol) << " " << scf.max_iterations << " "
       << format_double(scf.smearing) << " " << format_double(scf.mixing)
       << " " << format_double(o.dfpt.tol) << " " << o.dfpt.max_iterations
       << " " << static_cast<int>(scf.species.backend) << " "
       << static_cast<int>(scf.species.tier) << " "
       << (scf.species.pseudized ? 1 : 0) << " " << scf.grid.n_radial << " "
       << scf.grid.angular_order << " " << (scf.grid.prune ? 1 : 0) << " "
       << static_cast<int>(scf.grid.partition) << " "
       << static_cast<int>(scf.hartree_backend) << " " << scf.fmm.order
       << " " << format_double(scf.fmm.theta) << " "
       << scf.fmm.source_leaf_size << " " << scf.fmm.target_leaf_size;
  body << " atoms " << spec.atoms.size();
  for (const grid::AtomSite& a : spec.atoms) {
    body << " " << a.z;
    for (int k = 0; k < 3; ++k) body << " " << format_double(a.pos[k]);
  }
  return body.str();
}

bool decode_spec(std::istringstream& in, JobSpec* spec) {
  std::string client_hex;
  std::string name_hex;
  char engine_ch = 0;
  int with_modes = 0;
  char tier_ch = 0;
  if (!(in >> client_hex >> name_hex >> spec->priority >> spec->weight >>
        engine_ch >> spec->attempts >> with_modes >> tier_ch >>
        spec->bec_field)) {
    return false;
  }
  if (!decode_string(client_hex, &spec->client) ||
      !decode_string(name_hex, &spec->name)) {
    return false;
  }
  if (engine_ch != 'm' && engine_ch != 'r') return false;
  spec->engine = engine_ch == 'm' ? EngineKind::Modeled : EngineKind::Real;
  spec->with_modes = with_modes != 0;
  if (tier_ch != 'd' && tier_ch != 'b') return false;
  spec->tier = tier_ch == 'b' ? Tier::Bec : Tier::Dfpt;
  std::string section;
  if (!(in >> section)) return false;
  if (spec->engine == EngineKind::Modeled) {
    if (section != "scale") return false;
    core::SystemScale& sc = spec->scale;
    return static_cast<bool>(in >> sc.n_atoms >> sc.points_per_atom >>
                             sc.basis_per_atom >> sc.points_per_batch >>
                             sc.local_fns_per_batch >> sc.multipole_lmax >>
                             sc.radial_shells_per_atom);
  }
  if (section != "opts") return false;
  raman::RamanOptions& o = spec->options;
  scf::ScfOptions& scf = o.vibrations.scf;
  int project = 0;
  int functional = 0;
  int grid_level = 0;
  int species_backend = 0;
  int species_tier = 0;
  int pseudized = 0;
  int prune = 0;
  int partition = 0;
  int hartree = 0;
  if (!(in >> o.alpha_displacement >> o.mode_floor_cm >>
        o.geometry_attempts >> o.vibrations.displacement >> project >>
        functional >> grid_level >> scf.multipole_lmax >> scf.density_tol >>
        scf.energy_tol >> scf.max_iterations >> scf.smearing >> scf.mixing >>
        o.dfpt.tol >> o.dfpt.max_iterations >> species_backend >>
        species_tier >> pseudized >> scf.grid.n_radial >>
        scf.grid.angular_order >> prune >> partition >> hartree >>
        scf.fmm.order >> scf.fmm.theta >> scf.fmm.source_leaf_size >>
        scf.fmm.target_leaf_size)) {
    return false;
  }
  o.vibrations.project_rigid_body = project != 0;
  scf.functional = static_cast<xc::Functional>(functional);
  scf.grid.level = static_cast<decltype(scf.grid.level)>(grid_level);
  scf.species.backend = static_cast<basis::Backend>(species_backend);
  scf.species.tier = static_cast<basis::Tier>(species_tier);
  scf.species.pseudized = pseudized != 0;
  scf.grid.prune = prune != 0;
  scf.grid.partition = static_cast<grid::PartitionScheme>(partition);
  scf.hartree_backend = static_cast<fmm::HartreeBackend>(hartree);
  std::size_t n_atoms = 0;
  if (!(in >> section >> n_atoms) || section != "atoms") return false;
  spec->atoms.resize(n_atoms);
  for (grid::AtomSite& a : spec->atoms) {
    if (!(in >> a.z >> a.pos[0] >> a.pos[1] >> a.pos[2])) return false;
  }
  return true;
}

}  // namespace

JobLog::JobLog(std::string path, std::size_t shard)
    : path_(std::move(path)) {
  SWRAMAN_REQUIRE(!path_.empty(), "JobLog: empty path");
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) {
    throw CheckpointError("JobLog: cannot create " + path_);
  }
  const std::string header =
      std::string(kHeaderTag) + " " + std::to_string(shard) + "\n";
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    throw CheckpointError("JobLog: header write to " + path_ + " failed");
  }
  bytes_ += header.size();
  ++fsyncs_;
}

JobLog::~JobLog() {
  if (file_ != nullptr) std::fclose(file_);
}

bool JobLog::append_line(const std::string& body) {
  // Announce the fsync *before* taking our own (kAllowsBlocking) mutex:
  // the audit then sees exactly the caller-held locks, and an append
  // reached from under a strict service/obs lock is the
  // lock.blocking_under_lock hazard that feeds wal_fsync_p99_s.
  lockcheck::blocking_call("wal.append_fsync");
  const lockcheck::CheckedLock lock(mutex_);
  if (file_ == nullptr) return true;  // inactive log: appends are no-ops
  if (wedged_) {
    obs::count("serve.wal.lost_appends");
    return false;
  }
  const std::string line = body + " crc " + format_hex64(fnv1a(body)) + "\n";
  if (fault::should_fire(kFaultWalTornWrite)) {
    // A crash mid-write: half the record reaches the platter, then the
    // device is gone. Later appends are dropped — nothing this shard
    // acknowledges from here on is durable, so the sharded tier must
    // treat it as dead.
    const std::size_t torn = line.size() / 2;
    std::fwrite(line.data(), 1, torn, file_);
    std::fflush(file_);
    ::fsync(fileno(file_));
    wedged_ = true;
    obs::count("serve.wal.torn_writes");
    obs::instant("serve.wal.torn_write", "bytes",
                 static_cast<double>(torn));
    log::warn("wal: injected torn write on ", path_, " — log wedged");
    obs::flight::dump("wal.wedged");
    return false;
  }
  const std::uint64_t t0 = obs::now_ns();
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    wedged_ = true;
    obs::count("serve.wal.write_errors");
    log::warn("wal: write to ", path_, " failed — log wedged");
    obs::flight::dump("wal.wedged");
    return false;
  }
  ++records_;
  bytes_ += line.size();
  ++fsyncs_;
  obs::count("serve.wal.appends");
  obs::count("serve.wal.bytes", static_cast<double>(line.size()));
  // Fsync lag feeds the SLO monitor's wal_fsync_p99_s.
  obs::observe("serve.wal.fsync_s",
               static_cast<double>(obs::now_ns() - t0) * 1e-9);
  return true;
}

void JobLog::append_job(std::uint64_t gid, const JobSpec& spec) {
  std::ostringstream body;
  body << "job " << gid << " " << format_hex64(settings_fingerprint(spec))
       << " " << encode_spec(spec);
  if (!append_line(body.str())) {
    throw CheckpointError(
        "JobLog: " + path_ +
        " is wedged — job " + std::to_string(gid) +
        " cannot be made durable and must not be acknowledged");
  }
}

void JobLog::append_task(std::uint64_t gid, std::size_t coord, int sign,
                         const raman::GeometryRecord& rec) {
  std::ostringstream body;
  body << "task " << gid << " " << coord << " "
       << (sign > 0 ? '+' : sign < 0 ? '-' : '0');
  for (const double v : rec.alpha) body << " " << format_double(v);
  for (const double v : rec.dipole) body << " " << format_double(v);
  // Bec field-force records append their 3N force vector; displacement
  // records stay byte-identical to the v1 task layout.
  if (!rec.forces.empty()) {
    body << " f " << rec.forces.size();
    for (const double v : rec.forces) body << " " << format_double(v);
  }
  append_line(body.str());
}

void JobLog::append_done(std::uint64_t gid, JobStatus status) {
  std::ostringstream body;
  body << "done " << gid << " " << job_status_name(status);
  append_line(body.str());
}

void JobLog::append_trace(std::uint64_t gid, std::uint64_t root_span) {
  std::ostringstream body;
  body << "trace " << gid << " " << root_span;
  append_line(body.str());
}

WalReplay JobLog::replay(const std::string& path) {
  SWRAMAN_TRACE_SPAN(span, "serve.wal.replay");
  WalReplay out;
  std::ifstream in(path);
  if (!in) {
    // No log — nothing was ever acknowledged by this shard.
    return out;
  }
  std::string line;
  if (!std::getline(in, line)) return out;
  {
    std::istringstream header(line);
    std::string tag;
    std::size_t shard = 0;
    if (!(header >> tag >> shard) || tag != kHeaderTag) {
      throw CheckpointError("JobLog: " + path +
                            " is not a " + kHeaderTag + " shard log");
    }
  }

  std::map<std::uint64_t, std::size_t> index;  // gid -> jobs[] position
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Layout: <body> crc <hex16>. Validate the checksum before parsing;
    // the first bad line is the torn tail and ends the acknowledged
    // prefix (records after a torn record were never fsync-ordered).
    const std::size_t marker = line.rfind(" crc ");
    bool ok = marker != std::string::npos;
    std::uint64_t crc = 0;
    if (ok) ok = parse_hex64(line.substr(marker + 5), &crc);
    if (ok) ok = fnv1a(line.substr(0, marker)) == crc;
    if (ok) {
      std::istringstream rec(line.substr(0, marker));
      std::string kind;
      std::uint64_t gid = 0;
      ok = static_cast<bool>(rec >> kind >> gid);
      if (ok && kind == "job") {
        std::string fp_hex;
        LoggedJob job;
        job.gid = gid;
        ok = static_cast<bool>(rec >> fp_hex) &&
             parse_hex64(fp_hex, &job.settings_fp) &&
             decode_spec(rec, &job.spec);
        if (ok) {
          // A fingerprint mismatch is not a torn tail: the record is
          // checksum-intact but does not reproduce the logged settings —
          // a serialization/compatibility bug that must fail loudly
          // instead of silently recomputing under different settings.
          if (settings_fingerprint(job.spec) != job.settings_fp) {
            throw CheckpointError(
                "JobLog: " + path + " job " + std::to_string(gid) +
                " replays to a different settings fingerprint — "
                "incompatible spec serialization");
          }
          index[gid] = out.jobs.size();
          out.jobs.push_back(std::move(job));
        }
      } else if (ok && kind == "task") {
        std::size_t coord = 0;
        char sign_ch = 0;
        raman::GeometryRecord r;
        ok = static_cast<bool>(rec >> coord >> sign_ch) &&
             (sign_ch == '+' || sign_ch == '-' || sign_ch == '0');
        for (double& v : r.alpha) ok = ok && static_cast<bool>(rec >> v);
        for (double& v : r.dipole) ok = ok && static_cast<bool>(rec >> v);
        // Optional force tail (field-force records): " f <n> <F_0> ...".
        if (ok) {
          std::string tail;
          if (rec >> tail) {
            std::size_t n_forces = 0;
            ok = tail == "f" && static_cast<bool>(rec >> n_forces);
            if (ok) {
              r.forces.resize(n_forces);
              for (double& v : r.forces) {
                ok = ok && static_cast<bool>(rec >> v);
              }
            }
          }
        }
        const auto it = index.find(gid);
        ok = ok && it != index.end();
        if (ok) {
          const int sign = sign_ch == '+' ? +1 : sign_ch == '-' ? -1 : 0;
          out.jobs[it->second].tasks[{coord, sign}] = r;
          ++out.task_records;
        }
      } else if (ok && kind == "done") {
        std::string status;
        const auto it = index.find(gid);
        ok = static_cast<bool>(rec >> status) && it != index.end() &&
             (status == "completed" || status == "failed");
        if (ok) {
          out.jobs[it->second].finished = true;
          out.jobs[it->second].final_status = status == "completed"
                                                  ? JobStatus::Completed
                                                  : JobStatus::Failed;
        }
      } else if (ok && kind == "trace") {
        std::uint64_t root_span = 0;
        const auto it = index.find(gid);
        ok = static_cast<bool>(rec >> root_span) && it != index.end();
        if (ok) out.jobs[it->second].trace_root = root_span;
      } else {
        ok = false;
      }
    }
    if (!ok) {
      log::warn("wal: dropping torn tail of ", path, " (\"",
                line.substr(0, 40), "\")");
      out.torn_tail = true;
      obs::count("serve.wal.replay.torn_tails");
      break;
    }
    ++out.records;
  }
  obs::count("serve.wal.replay.records", static_cast<double>(out.records));
  obs::count("serve.wal.replay.jobs", static_cast<double>(out.jobs.size()));
  obs::count("serve.wal.replay.tasks",
             static_cast<double>(out.task_records));
  if (span.active()) {
    span.attr("records", static_cast<double>(out.records));
    span.attr("jobs", static_cast<double>(out.jobs.size()));
    span.attr("torn", out.torn_tail ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace swraman::serve
