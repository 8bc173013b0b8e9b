// 64-lane packed frame implication engine.
//
// The backward-implication collector probes every candidate (time unit,
// state variable, value) seed against the same conventional frame — two
// probes per pair, thousands per fault — and each serial probe walks much
// of the same cone. PackedFrameImplicator runs up to 64 independent
// single-seed probes at once over a shared base frame using the PVal
// (ones, zeros) encoding: one packed rule application at a gate performs the
// serial forward/backward step for every live lane simultaneously.
//
// Per-lane results (outcome classification, the §3.1 extra() values, and the
// detection check) are bit-identical to running FrameImplicator::run once
// per seed:
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
//     result is unchanged; on the s5378 Table 2 workload FIFO order and the
//     trims cut worklist pops by about 40%.
//
// The base frame is never mutated (lanes are gathered into packed scratch),
// so there is no undo trail and probes cannot interfere.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_view.hpp"
#include "logic/pval.hpp"
#include "mot/implicator.hpp"
#include "netlist/levelized.hpp"

namespace motsim {

class PackedFrameImplicator {
 public:
  explicit PackedFrameImplicator(const Circuit& c);

  /// One probe: seed `line` = `v`, then propagate.
  struct LaneSeed {
    GateId line;
    Val v;
  };

  /// Runs seeds.size() (<= 64) independent probes against `base` and writes
  /// one outcome per lane into `outcomes`. `good_out` is the fault-free
  /// primary-output row of this frame (empty skips the detection check).
  void run(const FrameVals& base, const FaultView& fv,
           std::span<const Val> good_out, std::span<const LaneSeed> seeds,
           ImplMode mode, ImplOutcome* outcomes);

  /// Post-implication values of `line`, one per lane; meaningful for the
  /// Ok lanes.
  const PVal& packed_value(GateId line) const { return pframe_[line]; }

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
  /// newly specified lanes are written and the line recorded in changed_.
  void refine_line(GateId line, std::uint64_t ones, std::uint64_t zeros);

  void freeze(std::uint64_t lanes) {
    conflict_ |= lanes;
    live_ &= ~lanes;
  }

  const Circuit* circuit_;
  const LevelizedCircuit* lev_;
  /// Values of the base frame pframe_ currently mirrors. Rebinding to the
  /// next base resets only the lines the previous run touched plus the lines
  /// whose base value actually differs (a scalar diff against this copy)
  /// instead of re-splatting every line — sound regardless of frame object
  /// lifetime or address reuse, because the comparison is by value.
  std::vector<Val> base_copy_;
  std::vector<PVal> pframe_;           // packed frame scratch
  std::uint64_t live_ = 0;             // lanes still propagating
  std::uint64_t conflict_ = 0;         // lanes that hit a conflict
  std::vector<GateId> changed_;        // lines changed in any lane, in order
  std::vector<PVal> pins_;             // per-gate pin value scratch
  std::vector<std::uint64_t> pin_x_;   // per-pin X-lane masks
  // Fixpoint worklist state: a FIFO ring of num_gates slots.
  std::vector<GateId> queue_;
  std::vector<std::uint8_t> in_queue_;
};

}  // namespace motsim
