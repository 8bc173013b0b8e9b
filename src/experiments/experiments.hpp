// Experiment harness: everything needed to regenerate the paper's Table 2,
// Table 3 and the deterministic-sequence (HITEC) comparison on one circuit
// or on the whole benchmark suite.
//
// Pipeline per circuit:
//   1. collapsed stuck-at fault list,
//   2. fault-free simulation of the test sequence,
//   3. parallel-fault conventional simulation of the entire fault universe
//      (detected / passes-condition-(C) classification),
//   4. per-candidate MOT simulation: the proposed procedure and, when
//      enabled, the [4] expansion baseline,
//   5. aggregation: detection counts (Table 2) and effectiveness-counter
//      averages over the faults the proposed method detected (Table 3).
#pragma once

#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "faultsim/parallel.hpp"
#include "faultsim/remote.hpp"
#include "faultsim/supervisor.hpp"
#include "mot/baseline.hpp"
#include "mot/proposed.hpp"
#include "sim/test_sequence.hpp"
#include "util/deadline.hpp"

namespace motsim::experiments {

struct RunConfig {
  MotOptions mot;           ///< shared by proposed and baseline (N_STATES...)
  bool run_baseline = true; ///< compute the "[4]" columns (NA when false)
  /// Cap on MOT candidates actually processed (0 = all). When it binds, the
  /// result records it — no silent truncation.
  std::size_t max_mot_faults = 0;
  std::uint64_t test_seed = 7;  ///< seed of the random test sequence

  /// When non-empty, every resolved MOT outcome is appended (fsync'd) to a
  /// crash-safe journal at this path, making the campaign resumable after a
  /// crash or deadline stop. With `resume` set the journal is opened instead
  /// of created and faults it already holds are merged without re-simulation
  /// (the journal header must match this campaign — see checkpoint.hpp).
  std::string journal_path;
  bool resume = false;

  /// Optional external cancellation (e.g. a SIGINT handler). When it trips,
  /// the MOT batch stops cleanly: every fault without a result comes back
  /// incomplete, and with a journal the campaign is resumable.
  const CancelToken* cancel = nullptr;

  /// Multi-process campaign sharding (see faultsim/supervisor.hpp). With
  /// supervisor.workers > 0 the MOT batch runs in that many forked worker
  /// processes under a supervising coordinator that survives worker death;
  /// 0 (the default) keeps the in-process thread-parallel path, bit for bit.
  SupervisorOptions supervisor;
};

struct RunResult {
  std::string circuit;
  std::size_t total_faults = 0;
  std::size_t conv_detected = 0;

  bool baseline_available = false;
  std::size_t baseline_extra = 0;  ///< beyond conventional
  std::size_t baseline_total() const { return conv_detected + baseline_extra; }

  std::size_t proposed_extra = 0;
  std::size_t proposed_total() const { return conv_detected + proposed_extra; }

  /// Faults [4] detected that the proposed procedure missed (the paper
  /// reports zero such faults; tracked to verify the claim holds here).
  std::size_t baseline_only = 0;

  /// Proposed-detected faults on which [4] aborted at the N_STATES limit —
  /// the paper highlights that for s5378 *all* its extra detections were
  /// [4] aborts.
  std::size_t proposed_detected_baseline_aborted = 0;

  /// Table 3: averages over the faults detected by the proposed method
  /// (beyond conventional simulation).
  double avg_det = 0.0;
  double avg_conf = 0.0;
  double avg_extra = 0.0;

  std::size_t candidates = 0;  ///< undetected faults passing condition (C)
  std::size_t processed = 0;   ///< candidates actually run (cap applied)
  /// Worker threads of the conventional pre-pass and the MOT batch stage
  /// (resolved from RunConfig::mot.num_threads; results are identical for
  /// every value).
  std::size_t threads = 1;
  bool capped = false;
  /// The candidate cap in effect for this run (RunConfig::max_mot_faults,
  /// 0 = unlimited) — recorded so a truncated candidate list is always
  /// visible in reports, never silent.
  std::size_t mot_cap = 0;
  /// Faults whose backward-implication collection hit MotOptions::max_pairs.
  std::size_t collection_capped_faults = 0;

  /// Candidates whose per-fault budget (per_fault_time_ms or
  /// per_fault_work_limit) stopped the procedure: unresolved, not undetected.
  std::size_t budget_stopped_faults = 0;
  /// Candidates without a final outcome because the campaign deadline
  /// expired (or it was cancelled) first. A journaled campaign re-runs
  /// exactly these on resume.
  std::size_t incomplete_faults = 0;
  /// Candidate outcomes merged from a resume journal instead of re-run.
  std::size_t resumed_faults = 0;
  /// Candidates quarantined by worker isolation: an engine exception on the
  /// fault was caught, diagnosed (MotBatchItem::error) and journaled instead
  /// of killing the shard.
  std::size_t quarantined_faults = 0;
  /// Candidates answered by a lower rung of the graceful-degradation ladder
  /// (plain [4] expansion or conventional-only; MotBatchItem::degrade).
  std::size_t degraded_faults = 0;
  /// Non-empty when RunConfig requested a journal that could not be created
  /// or resumed; the run stops before simulating anything in that case.
  std::string journal_error;
  /// Non-empty when the journal failed permanently mid-run (e.g. disk full
  /// after exhausting retries). The campaign stopped as a flushed, resumable
  /// cancellation: everything appended before the failure is durable.
  std::string journal_io_error;

  /// --- multi-process supervision (all zero on in-process runs) ----------
  /// Worker processes requested (RunConfig::supervisor.workers).
  std::size_t workers = 0;
  /// How the MOT batch was executed: "inprocess" (thread pool in this
  /// process), "fork" (supervised local worker processes), or "tcp"
  /// (remote workers over SupervisorOptions::listen_fd).
  std::string transport = "inprocess";
  /// Unexpected worker exits the coordinator recovered from.
  std::size_t worker_deaths = 0;
  /// Replacement workers spawned (bounded by max_worker_restarts).
  std::size_t worker_restarts = 0;
  /// Faults requeued from dead workers onto survivors (work stealing).
  std::size_t worker_requeued_faults = 0;
  /// Faults quarantined as Unresolved{EngineError} because they killed
  /// max_fault_attempts workers in a row (poison faults).
  std::size_t worker_poisoned_faults = 0;
  /// Faults returned incomplete because every worker died and the restart
  /// budget was exhausted. Nonzero here is a partial completion: the CLI
  /// maps it to its own exit code, and a journaled campaign resumes exactly
  /// these faults.
  std::size_t worker_lost_faults = 0;
  /// Outcomes recovered from worker journal shards (a dead worker's
  /// committed-but-unstreamed tail, or orphans of a dead coordinator).
  std::size_t worker_harvested_records = 0;

  double seconds = 0.0;
  /// Stage split of `seconds` (diagnostics): the parallel conventional
  /// pre-pass over the whole fault universe, and the per-candidate MOT
  /// batch (proposed + baseline engines).
  double seconds_prepass = 0.0;
  double seconds_mot = 0.0;
  /// Work counts of the pre-pass (diagnostics, identical for every thread
  /// count; no report or journal carries them).
  PrepassStats prepass_stats;
};

/// Runs the full pipeline on an explicit circuit + test sequence.
RunResult run_circuit(const Circuit& c, const TestSequence& test,
                      const RunConfig& config);

/// Builds the registry stand-in for `profile`, draws its random sequence
/// (length = profile.test_length, seeded from config.test_seed) and runs.
/// Heavy profiles automatically disable the baseline (the paper's "NA").
RunResult run_benchmark(const circuits::BenchmarkProfile& profile,
                        RunConfig config);

/// Remote-worker entry of a distributed campaign (`--connect`): rebuilds
/// the exact pipeline run_benchmark would build for `profile` — circuit,
/// random sequence, heavy-profile baseline disable — and
/// serves MOT fault simulation to the coordinator at `worker.host:port`
/// until shutdown or transport failure. The JournalMeta handshake proves
/// both sides assembled the same campaign, so flag drift between hosts is
/// caught at admission, not in the merge. Returns a worker exit code
/// (kRemoteWorkerOk / kRemoteWorkerTransportFailure).
int run_benchmark_remote_worker(const circuits::BenchmarkProfile& profile,
                                RunConfig config,
                                const RemoteWorkerOptions& worker,
                                RemoteWorkerReport* report = nullptr);

/// The deterministic-sequence experiment of Section 4: generates a
/// HITEC-like sequence for the circuit and compares proposed vs baseline
/// extra detections.
struct HitecExperimentResult {
  std::size_t sequence_length = 0;
  RunResult run;
};
HitecExperimentResult run_hitec_experiment(const std::string& benchmark_name,
                                           const RunConfig& config);

}  // namespace motsim::experiments
