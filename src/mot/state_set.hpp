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
// Layout: bit-planes. Sequence s is lane s % 64 of pack s / 64, and a pack
// holds one PVal plane per (time unit u, flip-flop j) carrying y_j at u for
// all 64 of its sequences, plus a Detected and an Infeasible lane mask.
// Stored states only ever refine the conventional faulty trace, so they can
// differ from it only where it is X, and a plane no sequence has refined is
// the splat of the trace value. Such planes are not stored: a plane is
// materialized, all-X in every pack, on the first refinement of its (u, j).
// Lanes beyond size() stay X in every stored plane, so duplicating a
// sequence ORs its bits into the copy's lane, and its cost follows the
// number of refined planes, not (L+1) x flip-flops x sequences. Packs are
// allocated as size() grows.
//
// Two resimulation kernels produce bit-identical results (statuses, stored
// states, and budget work accounting):
//
//   Legacy  one sequence at a time through the event-driven scalar frame
//           evaluator — the reference semantics;
//   SoA     frame-major per pack: one packed pass through the levelized
//           circuit evaluates a frame for every lane at once. A lane whose
//           planes equal the conventional frame at u needs no evaluation
//           there (it replays the trace) and is skipped, though it is still
//           charged to the budget exactly like the legacy kernel would.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault_view.hpp"
#include "logic/pval.hpp"
#include "sim/frame_kernel.hpp"
#include "sim/seq_sim.hpp"
#include "sim/test_sequence.hpp"
#include "util/deadline.hpp"

namespace motsim {

enum class SeqStatus : std::uint8_t { Active, Detected, Infeasible };

/// One assignment of a split side: present-state variable y_j = β (the
/// element type of the collector's extra() sets).
using StateAssign = std::pair<std::uint32_t, Val>;

class StateSet {
 public:
  /// Starts from S0 = the conventionally simulated faulty state sequence.
  StateSet(const Circuit& c, const TestSequence& test, const SeqTrace& good,
           const FaultView& fv, const SeqTrace& faulty,
           KernelKind kernel = KernelKind::SoA);

  std::size_t size() const { return size_; }
  std::size_t active_count() const;
  SeqStatus status(std::size_t s) const;
  /// y_j at time unit u (0 <= u <= L) in sequence s.
  Val state(std::size_t s, std::size_t u, std::size_t j) const;

  /// True when every sequence is Detected or Infeasible — the paper's
  /// detection criterion after resimulation.
  bool all_resolved() const { return active_count() == 0; }

  /// Sets y_j = v at time unit u in sequence s and marks u for
  /// resimulation. A conflicting assignment makes the sequence Infeasible
  /// (the values were independently implied, so no covered run can satisfy
  /// both — for S0 in phase 1 this amounts to detection).
  void assign(std::size_t s, std::size_t u, std::size_t j, Val v);

  /// True if y_j is unspecified at time unit u in every *active* sequence —
  /// the candidate constraint of Procedure 2 step 3.
  bool unspecified_everywhere(std::size_t u, std::size_t j) const;

  /// Procedure 2 step 8: duplicates every active sequence (the copy of the
  /// k-th active one gets index size()+k), then assigns `side0` at time unit
  /// u to the originals and `side1` to the copies, in order, like assign().
  void split(std::size_t u, std::span<const StateAssign> side0,
             std::span<const StateAssign> side1);

  /// Plain expansion: splits the earliest y_i that is unspecified in every
  /// active sequence into y_i = 0 / y_i = 1, resimulating after each split,
  /// until every sequence resolved, the next split would exceed `n_states`
  /// sequences, nothing is left to split or `budget` runs out. (The ranking
  /// heuristics of Procedure 2 are detection-oriented; this is the limited
  /// expansion of [7] and of the fault-free machine under general MOT.)
  void plain_expand(std::size_t n_states, WorkBudget& budget);

  /// §3.4 resimulation of all active sequences over the marked time units.
  ///
  /// `budget` (optional) is polled once per evaluated (sequence, frame);
  /// when it runs out the pass stops early with some sequences left Active —
  /// sound, because the caller treats an exhausted budget as "fault
  /// unresolved" and an Active sequence can never prove detection anyway.
  void resimulate(WorkBudget* budget = nullptr);

 private:
  struct Pack {
    /// planes[slot - 1] is the stored plane with that slot_ entry; lane l
    /// is sequence 64 * pack + l.
    std::vector<PVal> planes;
    std::uint64_t detected = 0;
    std::uint64_t infeasible = 0;
  };
  struct Refined {
    std::uint64_t changed = 0;   ///< lanes whose stored X became 0/1
    std::uint64_t conflict = 0;  ///< lanes whose stored 0/1 v contradicts
  };

  /// Lanes of pack p holding an Active sequence.
  std::uint64_t active(std::size_t p) const;

  /// Plane (u, j) of pack p (the conventional splat when not stored).
  PVal plane(std::size_t p, std::size_t u, std::size_t j) const;

  /// Merges v into plane (u, j) for `lanes` of pack p under the refinement
  /// order (refine_into per lane); conflicting lanes keep their value and
  /// become Infeasible.
  Refined refine(std::size_t p, std::size_t u, std::size_t j,
                 std::uint64_t lanes, PVal v);

  /// Applies `side` at u to `lanes` of pack p in order; lanes that conflict
  /// become Infeasible and take no later assignment.
  void assign_lanes(std::size_t p, std::size_t u,
                    std::span<const StateAssign> side, std::uint64_t lanes);

  /// Scalar resimulation of sequence s (KernelKind::Legacy).
  void resimulate_one(std::size_t s, std::vector<std::uint8_t> marked,
                      WorkBudget* budget);

  /// Evaluates time unit u of sequence s into frame_. When the faulty trace
  /// carries line values, only the cone of state variables that differ from
  /// the conventional simulation is re-evaluated (the expanded states are
  /// refinements, so values move X -> specified monotonically); otherwise a
  /// full frame evaluation runs.
  void eval_seq_frame(std::size_t s, std::size_t u);

  /// Frame-major packed resimulation of pack p (KernelKind::SoA):
  /// bit-identical to running resimulate_one over its active sequences,
  /// including the number of budget polls. Returns false when the budget
  /// ran out.
  bool resimulate_pack(std::size_t p, WorkBudget* budget);

  /// Packed evaluation of time unit u for the lanes `do_eval` of pack p;
  /// line g then reads overlay_.read(g, base_).
  void eval_frame_packed(std::size_t p, std::size_t u, std::uint64_t do_eval);

  const Circuit* circuit_;
  const TestSequence* test_;
  const SeqTrace* good_;
  const FaultView* fv_;
  const SeqTrace* faulty_;  ///< conventional trace (lines optional)
  const LevelizedCircuit* lev_ = nullptr;  ///< non-null iff SoA kernel
  std::size_t num_ffs_;
  std::size_t size_ = 1;
  std::vector<Pack> packs_;
  /// slot_[u * num_ffs_ + j]: 1 + index of plane (u, j) in Pack::planes,
  /// or 0 while every lane still holds the conventional value.
  std::vector<std::uint32_t> slot_;
  std::vector<std::uint8_t> marked_;  // time units touched since last resim
  // Legacy-kernel scratch: the frame and per-level pending gates.
  FrameVals frame_;
  std::vector<std::vector<GateId>> level_buckets_;
  std::vector<std::uint8_t> pending_;
  // Packed-kernel scratch.
  std::vector<std::uint64_t> carry_;   // per-frame lane bits marked mid-pass
  std::optional<ConeSweep> sweep_;     // dirty cone of the evaluated frame
  PackedOverlay overlay_;              // evaluated frame over base_
  const Val* base_ = nullptr;          // conventional frame (or unknown_)
  FrameVals unknown_;                  // all-X base when the trace has no lines
};

}  // namespace motsim
