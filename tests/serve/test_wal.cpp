#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/molecules.hpp"
#include "robustness/fault.hpp"
#include "serve/service.hpp"
#include "serve/wal.hpp"

namespace swraman::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

JobSpec modeled_spec(const std::string& client, std::size_t n_atoms) {
  JobSpec spec;
  spec.client = client;
  spec.name = client + " job";  // space: tokenization must not care
  spec.priority = 3;
  spec.weight = 1.5;
  spec.engine = EngineKind::Modeled;
  spec.scale.n_atoms = n_atoms;
  return spec;
}

raman::GeometryRecord make_record(double base) {
  raman::GeometryRecord rec;
  for (int k = 0; k < 9; ++k) {
    rec.alpha[static_cast<std::size_t>(k)] = base + 0.1 * k + 1e-13;
  }
  for (int k = 0; k < 3; ++k) {
    rec.dipole[static_cast<std::size_t>(k)] = -base + 0.01 * k;
  }
  return rec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Same FNV-1a the WAL writer uses — the forged-record test recomputes a
// valid checksum over a tampered body.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ServeWal, RoundTripsModeledJobTasksAndStatus) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_roundtrip.wal");
  const JobSpec spec = modeled_spec("alice", 5);
  const raman::GeometryRecord r0 = make_record(1.25);
  const raman::GeometryRecord r1 = make_record(-7.5e-3);
  {
    JobLog log(path, 2);
    log.append_job(41, spec);
    log.append_task(41, 3, -1, r0);
    log.append_task(41, 0, +1, r1);
    log.append_done(41, JobStatus::Completed);
    EXPECT_TRUE(log.active());
    EXPECT_FALSE(log.wedged());
    EXPECT_EQ(log.records(), 4u);
    EXPECT_GE(log.fsyncs(), 5u);  // header + every record
  }
  const WalReplay rep = JobLog::replay(path);
  EXPECT_FALSE(rep.torn_tail);
  EXPECT_EQ(rep.records, 4u);
  EXPECT_EQ(rep.task_records, 2u);
  ASSERT_EQ(rep.jobs.size(), 1u);
  const LoggedJob& job = rep.jobs[0];
  EXPECT_EQ(job.gid, 41u);
  EXPECT_TRUE(job.finished);
  EXPECT_EQ(job.final_status, JobStatus::Completed);
  EXPECT_EQ(job.spec.client, spec.client);
  EXPECT_EQ(job.spec.name, spec.name);
  EXPECT_EQ(job.spec.priority, spec.priority);
  EXPECT_EQ(job.spec.engine, EngineKind::Modeled);
  EXPECT_EQ(job.spec.scale.n_atoms, spec.scale.n_atoms);
  EXPECT_EQ(job.settings_fp, settings_fingerprint(spec));
  EXPECT_EQ(settings_fingerprint(job.spec), settings_fingerprint(spec));
  ASSERT_EQ(job.tasks.size(), 2u);
  const raman::GeometryRecord& back0 = job.tasks.at({3, -1});
  const raman::GeometryRecord& back1 = job.tasks.at({0, +1});
  // %.17g round trip: bitwise, not approximately.
  for (int k = 0; k < 9; ++k) {
    EXPECT_EQ(back0.alpha[static_cast<std::size_t>(k)],
              r0.alpha[static_cast<std::size_t>(k)]);
    EXPECT_EQ(back1.alpha[static_cast<std::size_t>(k)],
              r1.alpha[static_cast<std::size_t>(k)]);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(back0.dipole[static_cast<std::size_t>(k)],
              r0.dipole[static_cast<std::size_t>(k)]);
    EXPECT_EQ(back1.dipole[static_cast<std::size_t>(k)],
              r1.dipole[static_cast<std::size_t>(k)]);
  }
  std::remove(path.c_str());
}

TEST(ServeWal, RoundTripsRealSpecFingerprint) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_real.wal");
  JobSpec spec;
  spec.client = "bio-lab";
  spec.engine = EngineKind::Real;
  spec.atoms = molecules::water();
  spec.options.alpha_displacement = 0.007;
  spec.options.dfpt.max_iterations = 37;
  scf::ScfOptions& scf = spec.options.vibrations.scf;
  scf.density_tol = 3e-7;
  scf.species.backend = basis::Backend::Gto;
  scf.species.tier = basis::Tier::Minimal;
  scf.species.pseudized = true;
  scf.grid.n_radial = 40;
  scf.grid.angular_order = 11;
  scf.grid.prune = false;
  scf.grid.partition = grid::PartitionScheme::Hirshfeld;
  scf.hartree_backend = fmm::HartreeBackend::Fmm;
  scf.fmm.order = 6;
  scf.fmm.theta = 0.45;
  scf.fmm.source_leaf_size = 4;
  scf.fmm.target_leaf_size = 32;
  {
    JobLog log(path, 0);
    log.append_job(9, spec);
  }
  const WalReplay rep = JobLog::replay(path);
  ASSERT_EQ(rep.jobs.size(), 1u);
  const JobSpec& back = rep.jobs[0].spec;
  EXPECT_EQ(back.engine, EngineKind::Real);
  ASSERT_EQ(back.atoms.size(), spec.atoms.size());
  for (std::size_t a = 0; a < spec.atoms.size(); ++a) {
    EXPECT_EQ(back.atoms[a].z, spec.atoms[a].z);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(back.atoms[a].pos[k], spec.atoms[a].pos[k]);
    }
  }
  const scf::ScfOptions& bscf = back.options.vibrations.scf;
  EXPECT_EQ(bscf.species.backend, scf.species.backend);
  EXPECT_EQ(bscf.species.tier, scf.species.tier);
  EXPECT_EQ(bscf.species.pseudized, scf.species.pseudized);
  EXPECT_EQ(bscf.grid.n_radial, scf.grid.n_radial);
  EXPECT_EQ(bscf.grid.angular_order, scf.grid.angular_order);
  EXPECT_EQ(bscf.grid.prune, scf.grid.prune);
  EXPECT_EQ(bscf.grid.partition, scf.grid.partition);
  EXPECT_EQ(bscf.hartree_backend, scf.hartree_backend);
  EXPECT_EQ(bscf.fmm.order, scf.fmm.order);
  EXPECT_EQ(bscf.fmm.theta, scf.fmm.theta);
  EXPECT_EQ(bscf.fmm.source_leaf_size, scf.fmm.source_leaf_size);
  EXPECT_EQ(bscf.fmm.target_leaf_size, scf.fmm.target_leaf_size);
  // The contract: the replayed spec reproduces every cache key, i.e. the
  // settings fingerprint, exactly.
  EXPECT_EQ(settings_fingerprint(back), settings_fingerprint(spec));
  std::remove(path.c_str());
}

TEST(ServeWal, MissingFileReplaysEmpty) {
  const WalReplay rep = JobLog::replay(temp_path("wal_never_written.wal"));
  EXPECT_TRUE(rep.jobs.empty());
  EXPECT_EQ(rep.records, 0u);
  EXPECT_FALSE(rep.torn_tail);
}

TEST(ServeWal, ForeignHeaderThrows) {
  const std::string path = temp_path("wal_foreign.wal");
  write_file(path, "some-other-format 3\njob 1 ...\n");
  EXPECT_THROW(JobLog::replay(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(ServeWal, PreviousFormatHeaderThrows) {
  // A v1 job record lacks the engine-settings fields the fingerprint now
  // covers; replaying one must fail loudly rather than read as a torn
  // tail and silently drop acknowledged jobs.
  const std::string path = temp_path("wal_v1.wal");
  write_file(path, "swraman-wal-v1 0\n");
  try {
    JobLog::replay(path);
    ADD_FAILURE() << "a swraman-wal-v1 log replayed";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("swraman-wal-v2"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ServeWal, ChecksumRejectsCorruptedRecord) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_corrupt.wal");
  {
    JobLog log(path, 1);
    log.append_job(1, modeled_spec("alice", 3));
    log.append_task(1, 0, +1, make_record(2.0));
    log.append_task(1, 1, -1, make_record(3.0));
  }
  std::string bytes = read_file(path);
  // Flip one digit inside the *second* record (the first task line): the
  // acknowledged prefix is exactly the job record before it.
  const std::size_t second = bytes.find("\ntask");
  ASSERT_NE(second, std::string::npos);
  const std::size_t digit = bytes.find_first_of("0123456789", second + 6);
  ASSERT_NE(digit, std::string::npos);
  bytes[digit] = bytes[digit] == '9' ? '8' : '9';
  write_file(path, bytes);

  const WalReplay rep = JobLog::replay(path);
  EXPECT_TRUE(rep.torn_tail);
  EXPECT_EQ(rep.records, 1u);  // the job record only
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_TRUE(rep.jobs[0].tasks.empty());
  std::remove(path.c_str());
}

TEST(ServeWal, FingerprintMismatchThrowsLoudly) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_forged.wal");
  {
    JobLog log(path, 0);
    log.append_job(5, modeled_spec("alice", 4));
  }
  std::string bytes = read_file(path);
  const std::size_t nl = bytes.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const std::string header = bytes.substr(0, nl + 1);
  std::string line = bytes.substr(nl + 1);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  // Forge the logged fingerprint (token 3 of "job <gid> <fp-hex> ...")
  // and re-checksum the body: the record is checksum-intact but replays
  // to a different fingerprint — a compatibility bug that must throw, not
  // silently recompute under different settings.
  const std::size_t marker = line.rfind(" crc ");
  ASSERT_NE(marker, std::string::npos);
  std::string body = line.substr(0, marker);
  const std::size_t fp_begin = body.find(' ', body.find(' ') + 1) + 1;
  body[fp_begin] = body[fp_begin] == 'f' ? '0' : 'f';
  char crc[24];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(fnv1a(body)));
  write_file(path, header + body + " crc " + crc + "\n");
  EXPECT_THROW(JobLog::replay(path), CheckpointError);
  std::remove(path.c_str());
}

// The ISSUE-6 property test: a crash may truncate the log at *any* byte.
// For every truncation point after the header, replay must (a) not crash,
// (b) recover exactly the acknowledged prefix — every record whose full
// line made it to disk, nothing from the torn byte on — and (c) flag a
// torn tail iff the cut fell mid-record. (A cut inside the header is a
// different-format file by construction and out of scope: the shard never
// acknowledges anything before its header fsync succeeds.)
TEST(ServeWal, TruncationAtEveryByteRecoversAcknowledgedPrefix) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_property_full.wal");
  {
    JobLog log(path, 0);
    log.append_job(1, modeled_spec("alice", 2));
    log.append_task(1, 0, +1, make_record(0.5));
    log.append_task(1, 0, -1, make_record(1.5));
    log.append_job(2, modeled_spec("bob", 3));
    log.append_task(2, 4, -1, make_record(-2.25));
    log.append_done(1, JobStatus::Completed);
    log.append_done(2, JobStatus::Failed);
  }
  const std::string bytes = read_file(path);

  // Record-line boundaries (byte offsets one past each '\n') and the
  // expected cumulative state after each complete line.
  struct Expected {
    std::size_t records = 0;
    std::size_t tasks = 0;
    std::size_t jobs = 0;
  };
  std::vector<std::size_t> ends;
  std::vector<Expected> at_end;  // state once line i is complete
  Expected state;
  std::size_t start = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != '\n') continue;
    const std::string line = bytes.substr(start, i - start);
    if (!ends.empty()) {  // line 0 is the header
      ++state.records;
      if (line.rfind("task", 0) == 0) ++state.tasks;
      if (line.rfind("job", 0) == 0) ++state.jobs;
    }
    ends.push_back(i + 1);
    at_end.push_back(state);
    start = i + 1;
  }
  ASSERT_EQ(at_end.back().records, 7u);
  ASSERT_EQ(at_end.back().jobs, 2u);
  ASSERT_EQ(at_end.back().tasks, 3u);

  const std::string trunc = temp_path("wal_property_trunc.wal");
  for (std::size_t cut = ends[0]; cut <= bytes.size(); ++cut) {
    write_file(trunc, bytes.substr(0, cut));
    WalReplay rep;
    ASSERT_NO_THROW(rep = JobLog::replay(trunc)) << "cut at byte " << cut;
    // The last checksum-intact line decides the recovered prefix. A line
    // missing only its trailing '\n' is content-complete — its checksum
    // validates, so it is (correctly) part of the recovered prefix.
    Expected want;
    bool clean_tail = false;
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (ends[i] - 1 <= cut) want = at_end[i];
      if (ends[i] - 1 == cut || ends[i] == cut) clean_tail = true;
    }
    EXPECT_EQ(rep.records, want.records) << "cut at byte " << cut;
    EXPECT_EQ(rep.task_records, want.tasks) << "cut at byte " << cut;
    EXPECT_EQ(rep.jobs.size(), want.jobs) << "cut at byte " << cut;
    EXPECT_EQ(rep.torn_tail, !clean_tail) << "cut at byte " << cut;
  }
  std::remove(path.c_str());
  std::remove(trunc.c_str());
}

TEST(ServeWal, TornWriteFaultWedgesLogAndDropsLaterAppends) {
  fault::ScopedFaults guard;
  fault::FaultSpec torn;
  torn.fire_at = 2;  // the first task append tears mid-record
  fault::FaultInjector::instance().configure(kFaultWalTornWrite, torn);

  const std::string path = temp_path("wal_torn.wal");
  JobLog log(path, 0);
  log.append_job(11, modeled_spec("alice", 2));
  EXPECT_FALSE(log.wedged());
  log.append_task(11, 0, +1, make_record(4.0));  // torn — silently dropped
  EXPECT_TRUE(log.wedged());
  log.append_task(11, 0, -1, make_record(5.0));  // dropped (dead disk)
  log.append_done(11, JobStatus::Completed);     // dropped
  EXPECT_EQ(log.records(), 1u);
  // A wedged log cannot make durability promises: acknowledging a new job
  // must fail loudly so the tier fails the submission over.
  EXPECT_THROW(log.append_job(12, modeled_spec("bob", 2)), CheckpointError);

  const WalReplay rep = JobLog::replay(path);
  EXPECT_TRUE(rep.torn_tail);
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_EQ(rep.jobs[0].gid, 11u);
  EXPECT_TRUE(rep.jobs[0].tasks.empty());
  EXPECT_FALSE(rep.jobs[0].finished);
  std::remove(path.c_str());
}

// Replay feeds durable records back as the warm set; a fully warm job
// must re-execute zero displacement evaluations (no duplicate task
// execution) and assemble a bitwise-identical result.
TEST(ServeWal, WarmReplayExecutesNoDuplicateTasks) {
  fault::ScopedFaults guard;
  const JobSpec spec = modeled_spec("alice", 3);

  std::mutex mu;
  std::map<std::pair<std::size_t, int>, raman::GeometryRecord> durable;
  ServiceOptions first;
  first.n_workers = 2;
  first.modeled.iterations_per_modeled_second = 100.0;
  first.modeled.min_iterations = 50;
  first.modeled.max_iterations = 500;
  first.hooks.on_task_durable = [&](std::uint64_t, std::size_t coord,
                                    int sign,
                                    const raman::GeometryRecord& rec) {
    std::lock_guard<std::mutex> lock(mu);
    durable[{coord, sign}] = rec;
  };
  ServiceOptions second = first;
  second.hooks = {};

  JobResult cold;
  {
    RamanService service(first);
    const SubmitResult res = service.submit(spec);
    ASSERT_TRUE(res.accepted);
    cold = service.wait(res.job_id);
  }
  ASSERT_EQ(cold.status, JobStatus::Completed);
  // Every displacement node reported a durable own-frame record.
  EXPECT_EQ(durable.size(), 6 * spec.scale.n_atoms);

  RamanService replayed(second);
  SubmitOptions sub;
  sub.warm = &durable;
  const SubmitResult res = replayed.submit(spec, sub);
  ASSERT_TRUE(res.accepted);
  const JobResult warm = replayed.wait(res.job_id);
  ASSERT_EQ(warm.status, JobStatus::Completed);
  const ServiceStats stats = replayed.stats();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.warm_hits, durable.size());
  EXPECT_EQ(warm.tasks_executed, 0);
  ASSERT_EQ(warm.dalpha.rows(), cold.dalpha.rows());
  for (std::size_t i = 0; i < warm.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < warm.dalpha.cols(); ++j) {
      EXPECT_EQ(warm.dalpha(i, j), cold.dalpha(i, j));
    }
    for (std::size_t j = 0; j < warm.dmu.cols(); ++j) {
      EXPECT_EQ(warm.dmu(i, j), cold.dmu(i, j));
    }
  }
}

TEST(ServeWal, TraceRecordRoundTripsRootSpan) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_trace.wal");
  const JobSpec spec = modeled_spec("alice", 3);
  const raman::GeometryRecord r0 = make_record(0.5);
  {
    JobLog log(path, 0);
    log.append_job(17, spec);
    log.append_trace(17, 1);
    log.append_task(17, 0, +1, r0);
    log.append_done(17, JobStatus::Completed);
    EXPECT_EQ(log.records(), 4u);
  }
  const WalReplay rep = JobLog::replay(path);
  EXPECT_FALSE(rep.torn_tail);
  EXPECT_EQ(rep.records, 4u);
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_EQ(rep.jobs[0].trace_root, 1u);
  // The trace record rides between job and task records without
  // disturbing either.
  EXPECT_EQ(rep.jobs[0].tasks.size(), 1u);
  EXPECT_TRUE(rep.jobs[0].finished);
  std::remove(path.c_str());
}

TEST(ServeWal, TraceRecordDefaultsToZeroWhenAbsent) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_no_trace.wal");
  {
    JobLog log(path, 0);
    log.append_job(5, modeled_spec("bob", 2));
  }
  const WalReplay rep = JobLog::replay(path);
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_EQ(rep.jobs[0].trace_root, 0u);  // pre-tracing logs replay fine
  std::remove(path.c_str());
}

TEST(ServeWal, TraceRecordForUnknownGidIsTornTail) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("wal_orphan_trace.wal");
  const raman::GeometryRecord r0 = make_record(1.0);
  {
    JobLog log(path, 0);
    log.append_job(8, modeled_spec("carol", 2));
    log.append_task(8, 0, -1, r0);
    // A trace record naming a gid the log never admitted cannot be
    // attributed; replay must stop there like any other malformed tail
    // instead of guessing.
    log.append_trace(999, 1);
  }
  const WalReplay rep = JobLog::replay(path);
  EXPECT_TRUE(rep.torn_tail);
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_EQ(rep.jobs[0].gid, 8u);
  EXPECT_EQ(rep.jobs[0].tasks.size(), 1u);  // acknowledged prefix intact
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swraman::serve
