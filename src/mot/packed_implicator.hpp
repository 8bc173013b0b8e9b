// 64-lane packed frame implication engine.
//
// The backward-implication collector probes every candidate (time unit,
// state variable, value) seed of a fault — two probes per pair, thousands
// per fault — and each serial probe walks much of the same cone.
// PackedFrameImplicator runs one seed Y_i = α in up to 64 time frames of
// the same fault at once, using the PVal (ones, zeros) encoding: lane l is
// bound to its own conventional frame (bind()), and one packed rule
// application at a gate performs the serial forward/backward step for every
// live lane simultaneously. The same seed in neighbouring frames of one
// fault walks nearly the same cone, so the lanes share most of their work;
// 64 different seeds against one frame share very little.
//
// Per-lane results (outcome classification, the §3.1 extra() values, and the
// detection check) are bit-identical to running FrameImplicator::run once
// per lane on that lane's frame:
//
//   * TwoPass mode applies exactly the serial gate order (one reverse-topo
//     backward pass, one topo forward pass) to all lanes, so every lane sees
//     the identical application sequence.
//   * Fixpoint mode uses one global FIFO worklist over the union of the
//     lanes' dirty cones. Rule applications on lanes with nothing new are
//     no-ops (refinement is monotone), and the fixpoint of a monotone rule
//     closure is unique — so each lane converges to the same values,
//     conflicts, and detection verdict as its serial worklist would,
//     regardless of order. Two exact trims skip applications whose result
//     is already known: a gate is not re-woken by a change of its own
//     output (its application already ran the backward rules on the fresh
//     output, and any pin it changed re-wakes it through that pin's
//     readers), and inputs and flip-flop outputs are never queued (no rule
//     applies at them), though a change on them wakes their readers. The
//     queue is still empty only when every gate is at its fixpoint, so the
//     result is unchanged.
//   * The detection check compares each lane against its own frame's
//     fault-free output row (per-output lane masks built by bind()). Values
//     only ever refine, so the check reads the lanes the bound frames
//     already detect (found once per bind) plus the outputs on the run's
//     trail, not every output.
//
// The bound frames are never mutated: lanes are gathered into a packed
// frame once per bind, and each run unwinds the previous run's trail.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_view.hpp"
#include "logic/pval.hpp"
#include "mot/implicator.hpp"
#include "netlist/levelized.hpp"
#include "sim/seq_sim.hpp"

namespace motsim {

class PackedFrameImplicator {
 public:
  explicit PackedFrameImplicator(const Circuit& c);

  /// Binds lane l to frame frames[l] of `faulty` (which must carry line
  /// values), with frames[l] of `good` as its fault-free output row.
  /// frames.size() <= 64; lanes past the end are never probed.
  void bind(const SeqTrace& good, const SeqTrace& faulty,
            std::span<const std::uint32_t> frames);

  /// Lanes of one run that did not end Ok.
  struct Outcome {
    std::uint64_t conflict = 0;
    std::uint64_t detected = 0;
  };

  /// Seeds `line` = `v` in every lane of `lanes` (a subset of the bound
  /// lanes) and propagates. Each lane is an independent probe of its own
  /// frame; the lanes of `lanes` outside both masks ended Ok.
  Outcome run(std::uint64_t lanes, GateId line, Val v, const FaultView& fv,
              ImplMode mode);

  /// Post-implication values of `line`, one per lane; meaningful for the
  /// Ok lanes.
  const PVal& packed_value(GateId line) const { return pframe_[line]; }

  /// One line write of a run: the line and its value before the write.
  struct Change {
    GateId line;
    PVal old;
  };
  /// Every write of the last run (seed included), in order; a line may
  /// appear more than once. Lines not on it still hold their bound values.
  std::span<const Change> changes() const { return trail_; }

 private:
  /// Packed forward step at g (serial forward_at for every live lane).
  void forward_at(const FaultView& fv, GateId g);
  /// Packed backward step at g (serial backward_at for every live lane).
  void backward_at(const FaultView& fv, GateId g);
  /// Fused forward + backward step at g (what the serial fixpoint applies on
  /// every worklist pop) with a single pin gather shared by both directions —
  /// sound because the forward step writes only g's own output, never a pin.
  void apply_at(const FaultView& fv, GateId g);
  /// Fills pins_ with g's observed pin values (stuck pins read the stuck
  /// value); gates away from the fault site take a branch-free copy loop.
  void gather_pins(const FaultView& fv, GateId g, const GateId* fi,
                   std::uint32_t n);
  /// Backward implication rules for combinational g, assuming pins_ holds
  /// the gathered pin values. Reads g's output fresh from pframe_.
  void backward_rules(const FaultView& fv, GateId g);

  /// Refines pframe_[line] with the forced per-lane values (`ones`/`zeros`
  /// masks, already restricted to live lanes): conflicting lanes freeze,
  /// newly specified lanes are written and the line's old value recorded on
  /// trail_.
  void refine_line(GateId line, std::uint64_t ones, std::uint64_t zeros);

  void freeze(std::uint64_t lanes) {
    conflict_ |= lanes;
    live_ &= ~lanes;
  }

  const Circuit* circuit_;
  const LevelizedCircuit* lev_;
  std::vector<PVal> pframe_;           // bound frames, lane l = frames[l]
  static constexpr std::uint32_t kNoOutput = ~std::uint32_t{0};
  std::vector<GateId> out_gates_;      // distinct primary-output gates
  std::vector<std::uint32_t> out_slot_;  // gate -> index in out_gates_
  /// Per distinct output gate: lanes whose fault-free value is 1 / 0 at
  /// that gate in some output position.
  std::vector<std::uint64_t> good_one_, good_zero_;
  std::uint64_t bound_detected_ = 0;   // lanes the bound frames detect
  std::uint64_t live_ = 0;             // lanes still propagating
  std::uint64_t conflict_ = 0;         // lanes that hit a conflict
  /// Every line change of the last run; the next run unwinds it back to
  /// the bound frames.
  std::vector<Change> trail_;
  std::vector<PVal> pins_;             // per-gate pin value scratch
  std::vector<std::uint64_t> pin_x_;   // per-pin X-lane masks
  // Fixpoint worklist state: a FIFO ring of num_gates slots.
  std::vector<GateId> queue_;
  std::vector<std::uint8_t> in_queue_;
};

}  // namespace motsim
