// The set S of candidate state sequences maintained during state expansion
// (paper, Procedure 2) and its resimulation (paper §3.4).
//
// Each sequence fixes the faulty machine's (partially specified) state at
// every time unit 0..L. Expansion duplicates sequences and specifies state
// variables; resimulation then re-runs marked time units forward:
//
//   * a primary-output conflict with the single fault-free response means
//     the fault is *detected* for every run covered by the sequence,
//   * a next-state conflict with the sequence's stored state means the
//     sequence covers *no* feasible run,
//   * otherwise newly specified next-state values refine the sequence and
//     mark the following time unit.
//
// The fault is detected when every sequence ends Detected or Infeasible.
//
// Two resimulation kernels produce bit-identical results (statuses, stored
// states, and budget work accounting):
//
//   Legacy  one sequence at a time through the event-driven scalar frame
//           evaluator — the reference semantics;
//   SoA     frame-major over packs of up to 64 active sequences using the
//           PVal (ones, zeros) encoding: one packed pass through the
//           levelized circuit evaluates a frame for every sequence at once,
//           and a sequence whose stored states have converged back to the
//           conventional trace (ERASER-style early termination) skips the
//           evaluation entirely — a provable no-op, though it is still
//           charged to the budget exactly like the legacy kernel would.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "fault/fault_view.hpp"
#include "logic/pval.hpp"
#include "mot/counters.hpp"
#include "sim/frame_kernel.hpp"
#include "sim/seq_sim.hpp"
#include "sim/test_sequence.hpp"
#include "util/deadline.hpp"

namespace motsim {

enum class SeqStatus : std::uint8_t { Active, Detected, Infeasible };

struct StateSeq {
  /// states[u][j]: y_j at time unit u, 0 <= u <= L.
  std::vector<std::vector<Val>> states;
  SeqStatus status = SeqStatus::Active;
  /// Divergence window against the conventional faulty trace: states[u]
  /// differs from it only for first_div <= u <= last_div (empty window when
  /// last_div < 0). Outside the window the sequence replays the
  /// conventional trace, so resimulating such a frame cannot detect, refine,
  /// or conflict — the packed kernel skips it (convergence early
  /// termination). Maintained by both kernels; monotone under refinement.
  std::int64_t first_div = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_div = -1;
};

class StateSet {
 public:
  /// Starts from S0 = the conventionally simulated faulty state sequence.
  StateSet(const Circuit& c, const TestSequence& test, const SeqTrace& good,
           const FaultView& fv, const SeqTrace& faulty,
           KernelKind kernel = KernelKind::SoA);

  std::size_t size() const { return seqs_.size(); }
  std::size_t active_count() const;
  const StateSeq& seq(std::size_t s) const { return seqs_[s]; }

  /// True when every sequence is Detected or Infeasible — the paper's
  /// detection criterion after resimulation.
  bool all_resolved() const;

  /// Sets y_j = v at time unit u in sequence s and marks u for
  /// resimulation. A conflicting assignment makes the sequence Infeasible
  /// (the values were independently implied, so no covered run can satisfy
  /// both — for S0 in phase 1 this amounts to detection).
  void assign(std::size_t s, std::size_t u, std::size_t j, Val v);

  /// True if y_j is unspecified at time unit u in every *active* sequence —
  /// the candidate constraint of Procedure 2 step 3.
  bool unspecified_everywhere(std::size_t u, std::size_t j) const;

  /// Duplicates every active sequence (Procedure 2 step 8); the copy of
  /// sequence s gets index size()+k for the k-th active sequence. Returns
  /// the indices of the new copies, ordered like the originals they mirror.
  std::vector<std::size_t> duplicate_active();

  /// §3.4 resimulation of all active sequences over the marked time units.
  ///
  /// `budget` (optional) is polled once per evaluated (sequence, frame);
  /// when it runs out the pass stops early with some sequences left Active —
  /// sound, because the caller treats an exhausted budget as "fault
  /// unresolved" and an Active sequence can never prove detection anyway.
  void resimulate(WorkBudget* budget = nullptr);

 private:
  void resimulate_one(StateSeq& seq, std::vector<std::uint8_t> marked,
                      WorkBudget* budget);

  /// Frame-major packed resimulation (KernelKind::SoA): bit-identical to
  /// running resimulate_one over every active sequence, including the exact
  /// number and placement of budget polls.
  void resimulate_packed(WorkBudget* budget);

  /// Packed evaluation of time unit u for the lanes in `do_eval`
  /// (lane l simulates seqs_[lane_seq[l]]); line g then reads
  /// overlay_.read(g, base_).
  void eval_frame_packed(std::size_t u, const std::uint32_t* lane_seq,
                         std::uint64_t do_eval);

  /// Evaluates time unit u of `seq` into frame_. When the faulty trace
  /// carries line values, only the cone of state variables that differ from
  /// the conventional simulation is re-evaluated (the expanded states are
  /// refinements, so values move X -> specified monotonically); otherwise a
  /// full frame evaluation runs.
  void eval_seq_frame(const StateSeq& seq, std::size_t u);

  const Circuit* circuit_;
  const TestSequence* test_;
  const SeqTrace* good_;
  const FaultView* fv_;
  const SeqTrace* faulty_;  ///< conventional trace (lines optional)
  const LevelizedCircuit* lev_ = nullptr;  ///< non-null iff SoA kernel
  std::vector<StateSeq> seqs_;
  std::vector<std::uint8_t> marked_;  // time units touched since last resim
  // Legacy-kernel scratch: the frame and per-level pending gates.
  FrameVals frame_;
  std::vector<std::vector<GateId>> level_buckets_;
  std::vector<std::uint8_t> pending_;
  // Packed-kernel scratch.
  std::vector<std::uint32_t> lanes_;   // active sequence indices per pass
  std::vector<std::uint64_t> carry_;   // per-frame lane bits marked mid-pass
  std::optional<ConeSweep> sweep_;     // dirty cone of the evaluated frame
  PackedOverlay overlay_;              // evaluated frame over base_
  const Val* base_ = nullptr;          // conventional frame (or unknown_)
  FrameVals unknown_;                  // all-X base when the trace has no lines
};

}  // namespace motsim
