#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/lockcheck.hpp"
#include "raman/checkpoint.hpp"
#include "serve/job.hpp"

// Per-shard write-ahead job log (DESIGN.md S12). Every externally visible
// serve-tier transition is appended — and fsync'd — *before* it is
// acknowledged:
//
//   job   <gid> <spec...>         accepted submission (before the ack)
//   task  <gid> <coord> <sign> .. displacement result, durable before the
//                                 DAG sees the completion (the checkpoint
//                                 ordering of service.cpp, now shard-wide).
//                                 Bec field tasks use sign '0' with coord =
//                                 stencil index and append their 3N force
//                                 vector as " f <n> <F_0> ..."
//   done  <gid> <completed|failed> terminal job status
//   trace <gid> <root-span-id>    jobtrace root of the accepted job, so a
//                                 recovered shard re-attaches its replay
//                                 spans to the same cross-shard timeline
//
// File format (text, one record per line, same %.17g round-trip contract
// as raman::Checkpoint):
//
//   swraman-wal-v2 <shard>
//   <record...> crc <fnv1a-hex16>
//
// Every record line carries a trailing FNV-1a checksum over the bytes
// before " crc"; replay validates line by line and treats the first bad
// line (torn tail — the crash signature) as end-of-log, recovering
// exactly the acknowledged prefix. Replay never throws on torn/truncated
// tails; it throws CheckpointError only on header/fingerprint mismatch,
// i.e. a file that belongs to a different shard layout or format version.
//
// Failure model: the writer simulates a dying disk through the seeded
// fault site serve.wal.torn_write — a firing append writes a partial line
// and wedges the log (later appends are dropped and counted). A wedged
// log means the shard can no longer make durability promises; the sharded
// tier treats it as a crashed shard and fails submissions over.

namespace swraman::serve {

// Fault site: one WAL append is torn mid-record and the log wedges.
inline constexpr const char* kFaultWalTornWrite = "serve.wal.torn_write";

// One job reconstructed from a shard log.
struct LoggedJob {
  std::uint64_t gid = 0;  // durable global id (sharded tier's key space)
  JobSpec spec;
  std::uint64_t settings_fp = 0;  // fingerprint logged at submit
  // Durable displacement results keyed (coord, sign), in the job's own
  // frame — the warm-start set replay feeds back into submit(). Bec
  // field-force records are keyed (stencil index, 0).
  std::map<std::pair<std::size_t, int>, raman::GeometryRecord> tasks;
  bool finished = false;
  JobStatus final_status = JobStatus::Queued;
  // Jobtrace root span id from a "trace" record (0: job was not traced).
  std::uint64_t trace_root = 0;
};

struct WalReplay {
  std::vector<LoggedJob> jobs;  // submission order
  std::size_t records = 0;      // intact records parsed
  std::size_t task_records = 0;
  bool torn_tail = false;  // a trailing record failed its checksum/parse
};

class JobLog {
 public:
  // Inactive log: appends are no-ops (single-shard/testing convenience).
  JobLog() = default;

  // Truncates `path` and writes a fresh header: one JobLog instance is
  // one shard incarnation, and replay of the *previous* incarnation goes
  // through the static replay() below before the new log is opened.
  JobLog(std::string path, std::size_t shard);
  ~JobLog();
  JobLog(const JobLog&) = delete;
  JobLog& operator=(const JobLog&) = delete;

  // Tolerant read of a (possibly torn) shard log. Drops everything from
  // the first checksum/parse failure on and compacts nothing — the next
  // incarnation starts a fresh log and re-records the recovered state.
  static WalReplay replay(const std::string& path);

  [[nodiscard]] bool active() const { return file_ != nullptr; }

  // True once a torn write fired: the "disk" is gone, nothing appended
  // after that point is durable, and the shard must be treated as dead.
  [[nodiscard]] bool wedged() const {
    const lockcheck::CheckedLock lock(mutex_);
    return wedged_;
  }

  // Log-before-ack append of an accepted job. Throws CheckpointError when
  // the log is wedged or the write fails — the submission must then be
  // rejected/failed over, never acknowledged.
  void append_job(std::uint64_t gid, const JobSpec& spec);

  // Durable-before-visible append of a finished displacement (own-frame
  // record). Called from worker threads; never throws — on a wedged log
  // the append is dropped and counted (serve.wal.lost_appends), and the
  // loss only costs recomputation on replay, never an acknowledged job.
  void append_task(std::uint64_t gid, std::size_t coord, int sign,
                   const raman::GeometryRecord& rec);

  // Terminal status append; never throws (same contract as append_task).
  void append_done(std::uint64_t gid, JobStatus status);

  // Jobtrace root of an accepted job; never throws. Best-effort — losing
  // it only costs the stitched timeline a fresh root on replay, never
  // durability.
  void append_trace(std::uint64_t gid, std::uint64_t root_span);

  [[nodiscard]] std::uint64_t records() const {
    const lockcheck::CheckedLock lock(mutex_);
    return records_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    const lockcheck::CheckedLock lock(mutex_);
    return bytes_;
  }
  [[nodiscard]] std::uint64_t fsyncs() const {
    const lockcheck::CheckedLock lock(mutex_);
    return fsyncs_;
  }

 private:
  // Appends one checksummed line (fwrite + fflush + fsync) under the
  // internal mutex — worker threads and the submit path interleave here,
  // honouring the torn-write fault site. Returns false if the log is (or
  // became) wedged.
  bool append_line(const std::string& body);

  // kAllowsBlocking: the fsync happens *under* this mutex by design —
  // it is the WAL's own serialization point, not a foreign lock held
  // across I/O. The blocking audit instead polices the callers: nobody
  // may reach append_line while holding a strict serve/obs lock.
  mutable lockcheck::CheckedMutex mutex_{
      "serve.wal", lockcheck::CheckedMutex::kAllowsBlocking};
  std::string path_;
  std::FILE* file_ = nullptr;
  bool wedged_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
};

}  // namespace swraman::serve
