// The state-expansion fault simulation of [4] (Pomeranz & Reddy, "On Fault
// Simulation for Synchronous Sequential Circuits", IEEE ToC Feb. 1995), as
// characterized by this paper: the identical expansion-and-resimulation
// skeleton but *without backward implications* —
//
//  * an expansion specifies only the selected state variable itself
//    (extra(u,i,α) = {(i,α)}; criteria (3)-(4) become vacuous),
//  * no conflict/detection information exists, so no §3.2 check and no
//    in-place phase-1 assignments,
//  * time units ranked by maximum N_out, then minimum N_sv (the paper
//    credits heuristic (2) to [4]); same N_STATES budget.
//
// Implemented as MotFaultSimulator with use_backward_implications = false,
// so the Table 2 "[4] vs proposed" comparison isolates exactly the paper's
// contribution.
#pragma once

#include "mot/proposed.hpp"

namespace motsim {

struct BaselineResult {
  bool detected = false;
  bool detected_conventional = false;
  bool passes_c = false;
  std::size_t expansions = 0;
  std::size_t final_sequences = 0;
  /// Expansion budget exhausted (or no variable left) without detection.
  bool aborted = false;
  /// Mirrors MotResult::unresolved for the baseline run (NStates covers the
  /// classic `aborted` case; Deadline/WorkLimit/Cancelled are campaign-layer
  /// stops).
  UnresolvedReason unresolved = UnresolvedReason::None;

  friend bool operator==(const BaselineResult&, const BaselineResult&) = default;
};

class ExpansionBaseline {
 public:
  explicit ExpansionBaseline(const Circuit& c, MotOptions options = {});

  BaselineResult simulate_fault(const TestSequence& test, const SeqTrace& good,
                                const Fault& f);

  /// Shares a precomputed conventional trace (see MotFaultSimulator).
  BaselineResult simulate_fault(const TestSequence& test, const SeqTrace& good,
                                const Fault& f, SeqTrace& faulty);

  /// Forwards to MotFaultSimulator::reseed_selection.
  void reseed_selection(std::uint64_t seed) { inner_.reseed_selection(seed); }

  /// Forwards to MotFaultSimulator::set_campaign.
  void set_campaign(const Deadline* campaign, const CancelToken* cancel) {
    inner_.set_campaign(campaign, cancel);
  }

  /// Forwards to MotFaultSimulator::take_stats.
  MotStats take_stats() { return inner_.take_stats(); }

 private:
  static BaselineResult to_baseline(const MotResult& r);

  MotFaultSimulator inner_;
};

}  // namespace motsim
