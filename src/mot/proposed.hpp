// The paper's proposed fault-simulation procedure (Procedure 1):
//
//   (1) collect backward implications for every unspecified present-state
//       variable / time unit (BackwardCollector),
//   (2) conclude detection from the collected information alone when
//       possible (§3.2),
//   (3) select state variables and time units for expansion and perform the
//       expansions followed by backward implications (Procedure 2):
//       phase 1 applies one-sided conflict/detection pairs in place, phase 2
//       duplicates sequences using the ranking criteria (1)-(4) until
//       N_STATES sequences exist,
//   (4) resimulate after expansion and check detection (§3.4).
//
// The fault is reported detected under the *restricted* multiple observation
// time approach: one fault-free response, per-initial-state faulty
// responses.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "faultsim/conventional.hpp"
#include "mot/collector.hpp"
#include "mot/options.hpp"
#include "mot/state_set.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace motsim {

/// Which stage of the procedure settled the fault.
enum class MotPhase : std::uint8_t {
  NotDetected,   ///< procedure exhausted without establishing detection
  Conventional,  ///< detected by conventional simulation already
  FailedCondC,   ///< dropped by the necessary condition (C) — not detectable
  Collection,    ///< §3.2 check on the collected implications
  Expansion,     ///< expansion + resimulation (§3.3-3.4)
};

/// Why an undetected fault is *unresolved* rather than proven undetectable.
/// `None` means the result is definitive (detected, or failed condition (C)
/// so no observation time can expose the fault). Every other value records
/// which budget gave out first — an unresolved fault is never silently
/// folded into "undetected".
enum class UnresolvedReason : std::uint8_t {
  None,      ///< result is definitive
  Deadline,  ///< MotOptions::per_fault_time_ms expired
  WorkLimit, ///< MotOptions::per_fault_work_limit reached
  PairCap,   ///< collection stopped at MotOptions::max_pairs
  NStates,   ///< expansion exhausted the N_STATES budget (the paper's abort)
  Cancelled, ///< campaign deadline or external cancellation
  /// The engine itself failed on this fault (an exception escaped the MOT
  /// procedure). The batch driver quarantines such faults with a diagnostic
  /// instead of letting one poisoned fault kill the shard — see
  /// MotBatchRunner and MotBatchItem::error.
  EngineError,
};

const char* to_string(UnresolvedReason r);

struct MotResult {
  bool detected = false;  ///< under restricted MOT (includes conventional)
  MotPhase phase = MotPhase::NotDetected;
  bool detected_conventional = false;
  bool passes_c = false;
  EffectivenessCounters counters;  ///< Table 3 counters (selected pairs only)
  std::size_t expansions = 0;      ///< phase-2 duplicating expansions
  std::size_t phase1_pairs = 0;    ///< one-sided pairs applied in place
  std::size_t final_sequences = 0;
  bool collection_capped = false;
  /// Resolved only by the plain-expansion fallback (see MotOptions).
  bool via_fallback = false;
  /// Set iff the fault is neither detected nor proven undetectable; records
  /// which budget stopped the procedure (NStates when it simply exhausted
  /// the paper's expansion budget).
  UnresolvedReason unresolved = UnresolvedReason::None;
  /// Work units consumed (probes + expansions + resimulated frames); a
  /// deterministic function of the fault, independent of thread count.
  std::uint64_t work_used = 0;

  friend bool operator==(const MotResult&, const MotResult&) = default;
};

/// Step 3's static filtering plus the static ranking of steps 4-6 (done
/// once per fault; see proposed.cpp for why this is equivalent to the
/// paper's per-iteration filter cascade): the two-sided pairs with
/// N_out(u) > 0 and N_sv(u) > 0, ordered by N_out(u) descending, N_sv(u)
/// ascending and — under SelectionPolicy::Full only — the smaller, then the
/// larger extra() set descending; ties keep the order of `pairs`.
///
/// The pairs sit in a binary heap keyed by one distinct integer per pair, so
/// building it is linear and the walk pays log n only for the pairs it pops:
/// an expansion usually stops after a handful of the thousands of ranked
/// pairs.
class ExpansionRanking {
 public:
  ExpansionRanking(std::span<const PairInfo> pairs,
                   std::span<const std::size_t> nout,
                   std::span<const std::size_t> nsv, SelectionPolicy policy);

  bool empty() const { return heap_.empty(); }
  /// The highest-ranked remaining pair. Precondition: !empty().
  const PairInfo* top() const { return &pairs_[heap_.front().second]; }
  void pop();

  /// Pops pairs until the top one satisfies `valid`; returns it (still
  /// ranked) or nullptr once the ranking is exhausted.
  template <typename Valid>
  const PairInfo* first_valid(Valid&& valid) {
    while (!empty()) {
      if (valid(top())) return top();
      pop();
    }
    return nullptr;
  }

  /// Pops every remaining pair, in rank order.
  std::vector<const PairInfo*> drain();

 private:
  std::span<const PairInfo> pairs_;
  /// (key, index into pairs_), a min-heap: distinct entries, so pops come
  /// out in exactly the order of a full sort.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
};

/// [4]'s candidate pool, walked in ExpansionRanking's order without storing
/// it. The pool is every (u, i) with y_i unspecified at u in the conventional
/// faulty trace and u = 0 or N_out(u-1) > 0, cut to the first `max_pairs` in
/// (u, i) order; each pair splits y_i into {(i,0)} / {(i,1)}. With every
/// extra() set of size one, ExpansionRanking keeps the pairs with u < L,
/// N_out(u) > 0 and N_sv(u) > 0 in the order N_out(u) descending, N_sv(u)
/// ascending, (u, i) ascending under every policy: the walk takes those
/// units in that order, each unit's pairs by ascending i, as PairInfo
/// entries in no run (CollectionResult::extra reads them as {(i, α)}).
class PlainWalk {
 public:
  /// The faulty trace's states (L + 1 rows), N_out (L) and N_sv (L + 1).
  PlainWalk(std::span<const std::vector<Val>> states,
            std::span<const std::size_t> nout,
            std::span<const std::size_t> nsv,
            std::size_t max_pairs = static_cast<std::size_t>(-1));

  bool capped() const { return capped_; }  ///< max_pairs cut the pool
  /// Pool pairs with u > 0: the pairs a collector would have probed.
  std::size_t probed_pairs() const { return probed_pairs_; }
  /// Pairs examined so far (a returned pair is examined again next time).
  std::size_t examined() const { return examined_; }

  /// Skips, for good, the pairs that fail `valid` and returns the first that
  /// holds it (valid until the next call), or nullptr once exhausted.
  template <typename Valid>
  const PairInfo* first_valid(Valid&& valid) {
    for (; k_ < units_.size(); ++k_, pair_.i = 0) {
      pair_.u = units_[k_].u;
      for (; pair_.i < units_[k_].end; ++pair_.i) {
        if (is_specified(states_[pair_.u][pair_.i])) continue;
        ++examined_;
        if (valid(&pair_)) return &pair_;
      }
    }
    return nullptr;
  }

  /// Consumes every remaining pair, in walk order.
  std::vector<PairInfo> drain();

 private:
  /// An eligible unit, whose pool pairs are its unspecified y_i with i < end.
  struct Unit {
    std::uint32_t u = 0, end = 0;
  };
  std::span<const std::vector<Val>> states_;
  std::vector<Unit> units_;  // in rank order
  bool capped_ = false;
  std::size_t probed_pairs_ = 0, examined_ = 0;
  std::size_t k_ = 0;  // cursor: pair_.i of unit units_[k_]
  PairInfo pair_;
};

class MotFaultSimulator {
 public:
  explicit MotFaultSimulator(const Circuit& c, MotOptions options = {});

  /// `good` is the fault-free trace of `test` (outputs required; line
  /// values not needed).
  MotResult simulate_fault(const TestSequence& test, const SeqTrace& good,
                           const Fault& f);

  /// Variant for callers that already simulated the fault conventionally
  /// (e.g. to share one trace between the proposed procedure and the [4]
  /// baseline): `faulty` must be the conventional trace of `f` *with line
  /// values*; its frames are probed in place and restored.
  MotResult simulate_fault(const TestSequence& test, const SeqTrace& good,
                           const Fault& f, SeqTrace& faulty);

  const MotOptions& options() const { return options_; }

  /// Restarts the SelectionPolicy::Random stream. MotBatchRunner derives a
  /// per-fault seed so Random-policy results are independent of which thread
  /// simulates which fault; a no-op for the other policies, which never draw
  /// from the stream.
  void reseed_selection(std::uint64_t seed) { selection_rng_ = Rng(seed); }

  /// Attaches campaign-wide controls: every subsequent simulate_fault() call
  /// also stops (as Unresolved{Cancelled}) when `campaign` expires or
  /// `cancel` fires. Either may be null; both must outlive the simulator's
  /// use. The batch drivers share one pair across all worker lanes.
  void set_campaign(const Deadline* campaign, const CancelToken* cancel) {
    campaign_ = campaign;
    cancel_ = cancel;
  }

  /// MOT work counted since the last call (collection included), which
  /// resets the counts.
  MotStats take_stats();

 private:
  /// Procedure 2 steps 3-7: picks the next pair to expand, or nullptr.
  /// `random_order` is the drained ranking under SelectionPolicy::Random.
  template <typename Ranking, typename Order>
  const PairInfo* select_pair(const CollectionResult& pool, Ranking& ranking,
                              Order& random_order, const StateSet& set);

  /// Procedure 2 (phases 1-2) + §3.4 over the pairs `ranking` walks (an
  /// ExpansionRanking of `pool`'s pairs or a PlainWalk). Returns true when
  /// every sequence resolved (fault detected).
  template <typename Ranking>
  bool expand_and_resimulate(const CollectionResult& pool, Ranking& ranking,
                             const TestSequence& test, const SeqTrace& good,
                             const SeqTrace& faulty, const FaultView& fv,
                             bool apply_phase1, WorkBudget& budget,
                             MotResult& result);

  /// Fresh per-fault budget from the options plus the campaign controls.
  WorkBudget make_budget() const;

  const Circuit* circuit_;
  MotOptions options_;
  ConventionalFaultSimulator conv_;
  /// Engaged iff options.use_backward_implications; [4] collects nothing.
  std::optional<BackwardCollector> collector_;
  Rng selection_rng_;
  const Deadline* campaign_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  MotStats stats_;
};

}  // namespace motsim
