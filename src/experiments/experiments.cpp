#include "experiments/experiments.hpp"

#include <chrono>
#include <memory>

#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "faultsim/parallel.hpp"
#include "testgen/hitec_like.hpp"
#include "testgen/random_gen.hpp"
#include "util/thread_pool.hpp"

namespace motsim::experiments {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

RunResult run_circuit(const Circuit& c, const TestSequence& test,
                      const RunConfig& config) {
  const auto start = Clock::now();
  RunResult result;
  result.circuit = c.name();
  result.threads = resolve_thread_count(config.mot.num_threads);

  const std::vector<Fault> faults = collapsed_fault_list(c);
  result.total_faults = faults.size();

  // Journal setup happens before any simulation so a bad journal fails fast
  // instead of after hours of work. Fault indices into the collapsed list
  // are the journal keys; the list is a deterministic function of the
  // circuit, which the meta's circuit/fault-count check pins down.
  std::unique_ptr<CampaignJournal> journal;
  if (!config.journal_path.empty()) {
    const JournalMeta meta = make_journal_meta(
        c.name(), faults.size(), test, config.mot, config.run_baseline);
    std::string err;
    journal = config.resume
                  ? CampaignJournal::open_resume(config.journal_path, meta, err)
                  : CampaignJournal::create(config.journal_path, meta, err);
    if (!journal) {
      result.journal_error = err;
      result.seconds = seconds_since(start);
      return result;
    }
    result.resumed_faults = journal->resumed_count();
  }

  const SequentialSimulator sim(c, config.mot.kernel);
  // Line values let the SoA kernel derive each candidate's faulty trace
  // incrementally from the fault-free one (cone re-evaluation per frame).
  const SeqTrace good = sim.run_fault_free(test, /*keep_lines=*/true);

  // Fast conventional classification of the whole fault universe.
  const auto prepass_start = Clock::now();
  const ParallelFaultSimulator pfs(c);
  const std::vector<ConvOutcome> conv =
      pfs.run(test, good, faults, result.threads, &result.prepass_stats);
  result.seconds_prepass = seconds_since(prepass_start);

  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (conv[k].detected) {
      ++result.conv_detected;
    } else if (conv[k].passes_c) {
      candidates.push_back(k);
    }
  }
  result.candidates = candidates.size();
  result.mot_cap = config.max_mot_faults;
  if (config.max_mot_faults > 0 && candidates.size() > config.max_mot_faults) {
    candidates.resize(config.max_mot_faults);
    result.capped = true;
  }
  result.processed = candidates.size();

  result.baseline_available = config.run_baseline;

  // Per-fault MOT simulation, sharded across worker threads — or, with
  // supervisor.workers > 0, across supervised worker processes. Either
  // runner returns one item per candidate in candidate order regardless of
  // the schedule (and, for processes, regardless of worker deaths), so the
  // aggregation below is deterministic.
  const auto mot_start = Clock::now();
  const std::vector<MotBatchItem> items = [&] {
    if (config.supervisor.workers > 0) {
      result.workers = config.supervisor.workers;
      result.transport = config.supervisor.listen_fd >= 0 ? "tcp" : "fork";
      const SupervisedMotRunner runner(c, config.mot, config.run_baseline,
                                       config.supervisor);
      SupervisorStats stats;
      auto v = runner.run(test, good, faults, candidates, journal.get(),
                          config.cancel, &stats);
      result.worker_deaths = stats.worker_deaths;
      result.worker_restarts = stats.worker_restarts;
      result.worker_requeued_faults = stats.requeued_faults;
      result.worker_poisoned_faults = stats.poisoned_faults;
      result.worker_lost_faults = stats.lost_faults;
      result.worker_harvested_records = stats.harvested_records;
      return v;
    }
    const MotBatchRunner runner(c, config.mot, config.run_baseline);
    return runner.run(test, good, faults, candidates, journal.get(),
                      config.cancel);
  }();
  result.seconds_mot = seconds_since(mot_start);
  if (journal && journal->failed()) {
    result.journal_io_error = journal->failure();
  }

  EffectivenessCounters sum;
  for (const MotBatchItem& item : items) {
    const MotResult& pr = item.mot;
    if (!item.completed) {
      ++result.incomplete_faults;
      continue;
    }
    if (pr.unresolved == UnresolvedReason::Deadline ||
        pr.unresolved == UnresolvedReason::WorkLimit) {
      ++result.budget_stopped_faults;
    }
    if (!item.error.empty()) ++result.quarantined_faults;
    if (item.degrade != DegradeLevel::None) ++result.degraded_faults;
    bool baseline_detected = false;
    bool baseline_aborted = false;
    if (config.run_baseline) {
      baseline_detected = item.baseline.detected;
      baseline_aborted = item.baseline.aborted;
      if (baseline_detected) ++result.baseline_extra;
    }
    if (pr.collection_capped) ++result.collection_capped_faults;
    if (pr.detected) {
      ++result.proposed_extra;
      sum += pr.counters;
      if (baseline_aborted) ++result.proposed_detected_baseline_aborted;
    } else if (baseline_detected) {
      ++result.baseline_only;
    }
  }
  if (result.proposed_extra > 0) {
    const double n = static_cast<double>(result.proposed_extra);
    result.avg_det = static_cast<double>(sum.n_det) / n;
    result.avg_conf = static_cast<double>(sum.n_conf) / n;
    result.avg_extra = static_cast<double>(sum.n_extra) / n;
  }
  result.seconds = seconds_since(start);
  return result;
}

RunResult run_benchmark(const circuits::BenchmarkProfile& profile,
                        RunConfig config) {
  const Circuit c = circuits::generate(profile.params);
  Rng rng(config.test_seed * 1000003 + profile.params.seed);
  const TestSequence test =
      random_sequence(c.num_inputs(), profile.test_length, rng);
  if (profile.heavy) {
    // The procedure of [4] "could not be applied" to the large circuits
    // (paper, Section 4) — report NA.
    config.run_baseline = false;
  }
  return run_circuit(c, test, config);
}

int run_benchmark_remote_worker(const circuits::BenchmarkProfile& profile,
                                RunConfig config,
                                const RemoteWorkerOptions& worker,
                                RemoteWorkerReport* report) {
  // Mirror run_benchmark exactly: the same circuit, the same seeded
  // sequence, the same heavy-profile adjustment. Any divergence would
  // change the JournalMeta and be rejected at handshake.
  const Circuit c = circuits::generate(profile.params);
  Rng rng(config.test_seed * 1000003 + profile.params.seed);
  const TestSequence test =
      random_sequence(c.num_inputs(), profile.test_length, rng);
  if (profile.heavy) config.run_baseline = false;

  const std::vector<Fault> faults = collapsed_fault_list(c);
  const SequentialSimulator sim(c, config.mot.kernel);
  const SeqTrace good = sim.run_fault_free(test, /*keep_lines=*/true);
  return serve_remote_worker(c, config.mot, config.run_baseline, test, good,
                             faults, worker, report, config.cancel);
}

HitecExperimentResult run_hitec_experiment(const std::string& benchmark_name,
                                           const RunConfig& config) {
  const Circuit c = circuits::build_benchmark(benchmark_name);
  const std::vector<Fault> faults = collapsed_fault_list(c);
  HitecLikeParams params;
  params.seed = config.test_seed * 131 + 17;
  const HitecLikeResult gen = generate_hitec_like(c, faults, params);

  HitecExperimentResult out;
  out.sequence_length = gen.sequence.length();
  out.run = run_circuit(c, gen.sequence, config);
  return out;
}

}  // namespace motsim::experiments
