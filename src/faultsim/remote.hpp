// Worker side of the campaign supervisor, for both transports.
//
// A campaign runs one coordinator (SupervisedMotRunner) and N workers. Each
// worker runs one WorkerSession per channel: it says Hello with the
// campaign's JournalMeta (shard.hpp), waits for Welcome, and then serves
// Assign/Shutdown frames. The session is the only code that serves those
// frames; the two transports differ only in what wraps it:
//
//  * forked workers      the coordinator forks a child per slot and runs
//                        one session over an FdChannel around the child's
//                        pipe pair. The child appends every record to its
//                        journal shard and dies for real on a chaos kill.
//  * TCP workers         serve_remote_worker (`--connect`) rebuilds the
//                        same deterministic pipeline — circuit, test
//                        sequence, options — from its own flags and runs
//                        sessions in a connect/reconnect loop.
//
// Robustness contract of the TCP loop:
//
//  * reconnect w/ backoff   a dropped connection — coordinator restart,
//                           network partition, chaos proxy sever — is
//                           weather: the worker reconnects under its
//                           RetryPolicy and re-handshakes for a fresh slot
//                           incarnation. Only a Reject (wrong campaign,
//                           restart budget spent) or an exhausted attempt
//                           budget ends the worker, with exit code 6.
//  * replay on reconnect    every journal record the worker has produced in
//                           this process is kept in an in-memory replay log
//                           and re-streamed after each reconnect. Records
//                           are deterministic bytes and the coordinator's
//                           commit is idempotent (first record per fault
//                           wins, later duplicates are dropped), so replay
//                           can only fill gaps — results that were in flight
//                           when the link died are never lost, and never
//                           double-counted.
//  * no process-level state this is library code (the chaos tests run
//                           several workers as plain threads inside one
//                           test binary): no signal handlers, no _exit, no
//                           globals. The CLI owns signals and exit codes.
//
// Chaos hooks: the seeded kill schedule fires inside the session, after
// FaultStart and before the result. With `chaos_die_hard` the worker raises
// SIGKILL for real (forked workers and CLI processes); the in-process tests
// leave it false and get an *emulated* kill instead — the worker drops its
// connection, forgets its replay log (a killed process loses its memory),
// and reconnects as a fresh incarnation. Both look identical to the
// coordinator.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "util/errors.hpp"

namespace motsim {

namespace netio {
class ByteChannel;
}

struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Per-attempt connect deadline (nonblocking connect; a black-holed
  /// coordinator fails after this, never hangs the reconnect loop).
  std::uint64_t connect_deadline_ms = 5000;

  /// Consecutive failed connect/handshake attempts before the worker gives
  /// up (exit code 6). A successful handshake resets the count.
  std::size_t max_connect_attempts = 10;

  /// Backoff between reconnect attempts (deterministic-jitter policy shared
  /// with the journal and supervisor retries).
  RetryPolicy reconnect_backoff;

  /// How long to wait for the coordinator's Welcome/Reject after Hello.
  std::uint64_t handshake_timeout_ms = 10000;

  /// --- chaos hooks (tests and the chaos CLI flags) ---------------------
  std::uint64_t chaos_kill_permille = 0;
  std::uint64_t chaos_kill_seed = 0;
  std::size_t chaos_abort_fault = static_cast<std::size_t>(-1);
  /// true: a chaos kill raises SIGKILL (forked workers and CLI processes).
  /// false: the kill is emulated in-process — drop the connection, clear
  /// the replay log, reconnect as a fresh incarnation — so threaded tests
  /// can exercise the coordinator's death handling without losing the test
  /// process itself.
  bool chaos_die_hard = false;
};

/// What one worker did across all its connections. Diagnostic only.
struct RemoteWorkerReport {
  std::size_t connections = 0;       ///< successful handshakes (incarnations)
  std::size_t faults_simulated = 0;  ///< results computed in this process
  std::size_t replayed_records = 0;  ///< records re-streamed after reconnects
  std::size_t chaos_kills = 0;       ///< emulated chaos deaths
  bool clean_shutdown = false;       ///< ended via a Shutdown frame
  std::string error;                 ///< "" unless the return code is nonzero
};

/// Process exit codes of the worker CLI mode (tests/cli_exit_codes_test.sh).
inline constexpr int kRemoteWorkerOk = 0;
inline constexpr int kRemoteWorkerTransportFailure = 6;

/// How one worker session — one channel, from Hello to the last frame —
/// ended.
enum class SessionEnd : std::uint8_t {
  Shutdown,     ///< the coordinator sent Shutdown: clean exit
  Lost,         ///< the link died or the handshake failed: may reconnect
  ChaosKilled,  ///< emulated chaos kill: may reconnect with amnesia
  Cancelled,    ///< the local cancel token tripped
  Rejected,     ///< a final Reject (wrong campaign, budget spent, stopping)
};

/// One worker's half of the shard protocol over any ByteChannel.
class WorkerSession {
 public:
  /// Called with every simulated outcome and its journal record, before
  /// the record is streamed to the coordinator.
  using RecordHook =
      std::function<void(const MotBatchItem& item, const std::string& record)>;

  /// Workers are serial lanes: parallelism is the worker count, and the
  /// campaign deadline belongs to the coordinator, so `options` runs with
  /// num_threads = 1 and no campaign budget. `meta` is the campaign identity
  /// sent as Hello; `opts` supplies the handshake timeout and chaos hooks.
  /// `test`, `good` and `faults` must outlive the session.
  WorkerSession(const Circuit& c, MotOptions options, bool run_baseline,
                const TestSequence& test, const SeqTrace& good,
                const std::vector<Fault>& faults, const JournalMeta& meta,
                const RemoteWorkerOptions& opts);

  /// Says Hello over `chan` and waits for Welcome, then heartbeats at the
  /// welcomed period, re-streams `replay`, and serves Assign/Shutdown frames
  /// until one of the SessionEnd outcomes. `report` counts connections,
  /// replayed records and simulated faults; `why` names the cause of a Lost
  /// or Rejected end. The caller owns and closes `chan`.
  SessionEnd serve(netio::ByteChannel& chan,
                   std::span<const std::string> replay,
                   const RecordHook& on_record, RemoteWorkerReport& report,
                   std::string& why, const CancelToken* cancel = nullptr) const;

 private:
  MotBatchRunner runner_;
  const TestSequence* test_;
  const SeqTrace* good_;
  const std::vector<Fault>* faults_;
  bool run_baseline_;
  std::string hello_;
  RemoteWorkerOptions opts_;
};

/// Serves MOT fault simulation to a remote coordinator until a Shutdown
/// frame (returns kRemoteWorkerOk), the coordinator rejects or disappears
/// past the attempt budget (kRemoteWorkerTransportFailure), or `cancel`
/// trips (kRemoteWorkerOk with report->error = "cancelled"). `c`, `test`,
/// `good` and `faults` must be the same deterministic pipeline the
/// coordinator built; the handshake enforces it.
int serve_remote_worker(const Circuit& c, MotOptions options, bool run_baseline,
                        const TestSequence& test, const SeqTrace& good,
                        const std::vector<Fault>& faults,
                        const RemoteWorkerOptions& opts,
                        RemoteWorkerReport* report = nullptr,
                        const CancelToken* cancel = nullptr);

}  // namespace motsim
