// Process-supervised sharded campaign runner.
//
// MotBatchRunner isolates faults from each other with a catch-all, but all
// its worker lanes share one address space: a segfault, OOM kill, or runaway
// allocation in a single fault's MOT expansion still takes down the entire
// campaign. SupervisedMotRunner is the next isolation ring — it forks N
// worker *processes* (or admits N TCP workers), assigns fault-group shards
// over the frame protocol of faultsim/shard.hpp, and supervises them. Every
// worker runs the one WorkerSession of faultsim/remote.hpp and joins its
// slot through the same Hello/Welcome admission; a forked worker speaks it
// over a pipe pair:
//
//  * death detection     channel EOF, waitpid status (SIGSEGV/SIGKILL/exit
//                        code), heartbeat timeout (hung worker), and
//                        per-shard deadline (livelocked worker) all converge
//                        on the same recovery path;
//  * work requeue        a dead worker's uncommitted faults are requeued at
//                        fault-group granularity onto the survivors (work
//                        stealing); its journal shard is harvested first so
//                        results it committed but never got to stream are
//                        not re-simulated;
//  * poison quarantine   the fault that was in flight when a worker died is
//                        charged one attempt; after max_fault_attempts
//                        deaths the fault is recorded as
//                        Unresolved{EngineError} with a worker_killed_*
//                        diagnostic instead of being retried forever —
//                        exactly the in-process quarantine contract, one
//                        isolation ring further out;
//  * restart w/ backoff  dead workers are restarted under the existing
//                        RetryPolicy schedule until max_worker_restarts is
//                        spent; after that the remaining faults come back
//                        incomplete (resumable), never silently dropped.
//
// Determinism: workers are forked from the coordinator after the circuit,
// test and options are fixed, so each fault is simulated by the same
// deterministic per-fault function as the in-process path (per-fault
// reseeded selection, serial lane). Results land in the output slot of
// their fault index, so the merged vector is bit-identical to
// MotBatchRunner::run for any worker count and any kill schedule in which
// no fault is poisoned — and a poisoned fault differs only in its own slot.
//
// Journaling: with a campaign journal, every worker also appends each
// outcome to its own journal-v2 shard (<journal>.w<slot>) through the
// normal fsio layer, and the coordinator appends every record it commits to
// the main journal. Shards make worker results durable even across
// *coordinator* death: orphaned shards found at startup are merged into the
// main journal before any simulation happens.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faultsim/batch.hpp"
#include "util/errors.hpp"

namespace motsim {

class CampaignJournal;

struct SupervisorOptions {
  /// Worker processes to fork. 0 = do not use process supervision at all
  /// (callers keep the in-process MotBatchRunner path).
  std::size_t workers = 0;

  /// A worker that produces no frame (result, fault-start, or heartbeat)
  /// for this long is presumed hung, SIGKILLed, and recovered like any
  /// other death. Workers emit heartbeats at a quarter of this period.
  /// 0 disables the timeout (and the heartbeat thread).
  std::uint64_t heartbeat_ms = 5000;

  /// Wall-clock budget for one assigned fault group (0 = unlimited). A
  /// worker that exceeds it is SIGKILLed and its uncommitted faults are
  /// requeued; the in-flight fault is charged an attempt.
  std::uint64_t shard_deadline_ms = 0;

  /// Faults per assignment group (0 = automatic; see plan_fault_groups).
  std::size_t group_size = 0;

  /// A fault whose worker dies while it is in flight is retried on another
  /// worker; after this many deaths it is recorded as a poisoned
  /// Unresolved{EngineError} outcome instead of being retried forever.
  std::size_t max_fault_attempts = 3;

  /// Total worker restarts the campaign may spend (the initial N spawns are
  /// free). When exhausted and no live worker remains, leftover faults are
  /// returned incomplete — the campaign ends resumable, not hung.
  std::size_t max_worker_restarts = 8;

  /// Backoff schedule between a worker death and its replacement's spawn
  /// (same deterministic-jitter policy the journal retries use).
  RetryPolicy restart_backoff;

  /// Grace period between asking workers to shut down (Shutdown frame) and
  /// SIGKILLing the stragglers.
  std::uint64_t shutdown_grace_ms = 5000;

  /// --- remote (multi-host) mode ----------------------------------------
  /// A bound+listening TCP socket fd. -1 (the default) keeps the local
  /// fork/pipe mode. >= 0 switches the supervisor to remote mode: no
  /// processes are forked; instead `workers` becomes the slot count and
  /// each slot is filled by a TCP worker (faultsim/remote.hpp) that
  /// connects and passes the same JournalMeta handshake. Death detection
  /// (disconnect, heartbeat gap, shard deadline), work requeue, poison
  /// quarantine and the bit-identical input-order merge all carry over
  /// unchanged. The caller keeps ownership of the fd.
  int listen_fd = -1;
  /// How long the coordinator waits for the first worker to join before
  /// declaring the fleet lost (remaining faults come back incomplete).
  std::uint64_t remote_join_ms = 30000;
  /// After the last live worker disconnects, how long the coordinator holds
  /// the campaign open for a reconnect before declaring the fleet lost. A
  /// rejoin into a previously used slot consumes the max_worker_restarts
  /// budget, exactly like a local respawn.
  std::uint64_t remote_rejoin_ms = 10000;

  /// --- chaos hooks (tests only; see tests/supervisor_test.cpp) ---------
  /// Seeded kill schedule: a worker SIGKILLs itself right before simulating
  /// fault k when chaos_should_kill(seed, k, incarnation, permille). 0 = off.
  std::uint64_t chaos_kill_permille = 0;
  std::uint64_t chaos_kill_seed = 0;
  /// A fault index that deterministically SIGKILLs every worker that
  /// attempts it — the poison-fault scenario. npos = off.
  std::size_t chaos_abort_fault = static_cast<std::size_t>(-1);
};

/// What the supervision layer saw during one run. Purely diagnostic — the
/// per-fault outcomes carry all correctness-relevant state.
struct SupervisorStats {
  std::size_t worker_deaths = 0;    ///< unexpected exits (not Shutdown)
  std::size_t worker_restarts = 0;  ///< replacements spawned
  std::size_t requeued_faults = 0;  ///< stolen from dead workers
  std::size_t poisoned_faults = 0;  ///< quarantined after max_fault_attempts
  /// Faults returned incomplete because every worker died and the restart
  /// budget was spent (0 unless the campaign was lost).
  std::size_t lost_faults = 0;
  /// Records recovered by harvesting journal shards (a dead worker's
  /// committed-but-unstreamed tail, or orphans from a dead coordinator).
  std::size_t harvested_records = 0;
};

class SupervisedMotRunner {
 public:
  /// Mirrors MotBatchRunner's constructor; `sup.workers` must be >= 1.
  /// Workers run serial MotBatchRunner lanes (num_threads forced to 1 in
  /// the children) — parallelism comes from the process count.
  SupervisedMotRunner(const Circuit& c, MotOptions options, bool run_baseline,
                      SupervisorOptions sup);

  /// Same contract as MotBatchRunner::run — one item per index, input-order
  /// merge, resumed faults served from the journal, incomplete items on
  /// cancellation/deadline — plus the supervision semantics above. `stats`
  /// (optional) receives the supervision counters.
  std::vector<MotBatchItem> run(const TestSequence& test, const SeqTrace& good,
                                const std::vector<Fault>& faults,
                                std::span<const std::size_t> indices,
                                CampaignJournal* journal,
                                const CancelToken* cancel = nullptr,
                                SupervisorStats* stats = nullptr) const;

  const MotOptions& options() const { return options_; }
  const SupervisorOptions& supervisor_options() const { return sup_; }

 private:
  const Circuit* circuit_;
  MotOptions options_;
  bool run_baseline_;
  SupervisorOptions sup_;
};

/// The journal shard path of worker slot `slot` for a campaign journaled at
/// `journal_path` ("" when the campaign has no journal — workers then skip
/// shard journaling and rely on the pipe alone).
std::string worker_shard_path(const std::string& journal_path,
                              std::size_t slot);

}  // namespace motsim
