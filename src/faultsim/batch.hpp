// Thread-parallel driver for the per-fault MOT procedures.
//
// The MOT stage is embarrassingly parallel across faults but each
// MotFaultSimulator / BackwardCollector / ExpansionBaseline instance carries
// mutable scratch (frame buffers, implicator state, the Random-selection
// RNG) and therefore must never be shared across threads. MotBatchRunner
// shards an undetected-fault list over a ThreadPool, builds one full
// simulator set per worker lane, and claims faults in small dynamic chunks —
// MOT cost per fault is wildly skewed (a few faults do thousands of
// expansions), so static sharding would strand every other worker behind
// the most expensive shard.
//
// Determinism: each result is written into the output slot of its fault, so
// the merged vector is in input order regardless of thread count or
// schedule; and the Random-selection stream is reseeded per fault from
// (selection_seed, fault index), so even SelectionPolicy::Random yields
// byte-identical results at 1, 2, or N threads. With num_threads == 1 no
// pool is constructed and faults run in input order on the calling thread,
// matching the historical serial loop (bit-identical for the default
// selection policy, which never draws from the RNG).
//
// Campaign resilience: the runner arms a campaign-wide deadline
// (MotOptions::campaign_time_ms), accepts an external CancelToken, and can
// append every completed outcome to a crash-safe CampaignJournal so an
// interrupted campaign resumes where it stopped (see checkpoint.hpp). A
// stopped campaign still returns one item per requested fault — unprocessed
// faults come back incomplete with Unresolved{Cancelled}.
//
// Worker isolation: each per-fault MOT run executes under a catch-all. An
// exception quarantines that one fault as Unresolved{EngineError} with a
// sanitized diagnostic (MotBatchItem::error) and a journal record — one
// poisoned fault never kills the shard, and because the quarantine decision
// is a deterministic per-fault function, results stay bit-identical across
// thread counts. Quarantined and budget-stopped faults then walk the
// graceful-degradation ladder (DegradeLevel): plain [4] expansion, then the
// conventional classification, recording the downgrade. A journal whose
// append fails permanently (disk full) converts the run into a flushed,
// resumable campaign stop — see CampaignJournal::failure().
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mot/baseline.hpp"
#include "mot/proposed.hpp"
#include "util/deadline.hpp"

namespace motsim {

class CampaignJournal;

/// How far the graceful-degradation ladder stepped down for one fault
/// (proposed → plain [4] expansion → conventional classification). Each rung
/// is strictly less precise, never unsound: a degraded "detected" was proven
/// by the engine that produced it, and a degraded non-detection stays
/// unresolved rather than pretending to be definitive.
enum class DegradeLevel : std::uint8_t {
  None,            ///< full proposed-procedure result
  PlainExpansion,  ///< the [4]-style plain expansion answered instead
  Conventional,    ///< only the conventional classification survived
};

const char* to_string(DegradeLevel level);

struct MotBatchItem {
  std::size_t fault_index = 0;  ///< index into the fault list passed to run()
  /// False when the campaign stopped (deadline or cancellation) before this
  /// fault was simulated: `mot` then carries only Unresolved{Cancelled}.
  /// Incomplete items are never journaled, so a resumed campaign re-runs
  /// exactly these faults.
  bool completed = true;
  MotResult mot;
  /// The [4] expansion baseline on the same shared conventional trace.
  /// Meaningful only when the runner was constructed with run_baseline.
  BaselineResult baseline;
  /// Which rung of the degradation ladder produced `mot` (None = the full
  /// proposed procedure). Journaled, so resumed campaigns keep the record.
  DegradeLevel degrade = DegradeLevel::None;
  /// Sanitized one-token diagnostic of a quarantined engine error ("-" never
  /// appears here; empty = no error). Non-empty iff this fault hit the
  /// catch-all: either mot.unresolved == EngineError or the ladder resolved
  /// it at a lower rung.
  std::string error;

  friend bool operator==(const MotBatchItem&, const MotBatchItem&) = default;
};

class MotBatchRunner {
 public:
  /// Thread count comes from options.num_threads (0 = hardware threads,
  /// 1 = serial). `run_baseline` also runs ExpansionBaseline per fault,
  /// sharing the conventional trace with the proposed procedure exactly as
  /// the serial experiment loop did.
  MotBatchRunner(const Circuit& c, MotOptions options, bool run_baseline = false);

  /// Simulates faults[k] for every k in `indices` (typically the undetected
  /// faults passing condition (C)). Result i corresponds to indices[i].
  ///
  /// Campaign resilience (all optional):
  ///  * options.campaign_time_ms arms a campaign deadline at the top of this
  ///    call; when it expires, in-flight faults stop via their budget polls
  ///    and every remaining fault is returned as an incomplete item with
  ///    Unresolved{Cancelled} — there is exactly one outcome per index,
  ///    never a hang, never a silent drop, and the input-order merge of the
  ///    completed faults is unchanged.
  ///  * `cancel` stops the batch the same way from another thread.
  ///  * `journal` makes the campaign crash-safe and resumable: faults whose
  ///    outcome the journal already holds are not re-simulated (their
  ///    recorded items are merged in place) and every newly completed fault
  ///    is appended (fsync'd) as soon as it finishes.
  ///  * `stats` receives the MOT work of every fault simulated by this call
  ///    (journal-merged faults excluded), summed over the worker lanes; the
  ///    sums do not depend on the thread count or the schedule.
  std::vector<MotBatchItem> run(const TestSequence& test, const SeqTrace& good,
                                const std::vector<Fault>& faults,
                                std::span<const std::size_t> indices,
                                CampaignJournal* journal,
                                const CancelToken* cancel = nullptr,
                                MotStats* stats = nullptr) const;

  std::vector<MotBatchItem> run(const TestSequence& test, const SeqTrace& good,
                                const std::vector<Fault>& faults,
                                std::span<const std::size_t> indices) const {
    return run(test, good, faults, indices, nullptr, nullptr);
  }

  /// Convenience: simulates every fault in the list.
  std::vector<MotBatchItem> run_all(const TestSequence& test,
                                    const SeqTrace& good,
                                    const std::vector<Fault>& faults) const;

  /// Resolved worker count (before clamping to the batch size).
  std::size_t threads() const { return threads_; }

  const MotOptions& options() const { return options_; }

  /// Test/verification hook, invoked with the fault index at the top of each
  /// per-fault unit of work. A throw from the hook emulates an engine crash
  /// on exactly that fault, driving the quarantine path deterministically —
  /// used by the fault-injection tests and the worker-quarantine check of
  /// src/verify. Never set in production runs.
  void set_fault_hook(std::function<void(std::size_t fault_index)> hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  const Circuit* circuit_;
  MotOptions options_;
  bool run_baseline_;
  std::size_t threads_;
  std::function<void(std::size_t)> fault_hook_;
};

/// The per-fault Random-selection seed (splitmix64 mix of the configured
/// seed and the fault index). Exposed for the determinism tests.
std::uint64_t per_fault_selection_seed(std::uint64_t base, std::uint64_t fault_index);

}  // namespace motsim
