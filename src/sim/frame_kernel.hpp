// Levelized flat-array frame evaluation kernels.
//
// These are the hot loops behind KernelKind::SoA: a full forward sweep over
// the level-sorted combinational order, an event-driven cone sweep for
// incremental re-evaluation, and a reference-based faulty-trace simulation
// that replays a fault-free trace and re-evaluates only the fault's cone of
// influence per frame. All of them produce values bit-identical to the
// legacy per-gate topo_order() evaluator (checked by the kernel equivalence
// tests); they only differ in memory layout and work skipped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/fault_view.hpp"
#include "logic/pval.hpp"
#include "netlist/levelized.hpp"
#include "sim/seq_sim.hpp"
#include "sim/test_sequence.hpp"

namespace motsim {

/// Packed (64-lane) gate evaluation reading fanin line x as `read(x)`,
/// honouring the fault patch exactly like FaultView::eval: a stem-stuck gate
/// produces the stuck value and a pin-faulted gate reads the stuck value on
/// the faulted pin. Shared by every packed kernel.
template <typename Read>
PVal packed_eval_gate_fn(const LevelizedCircuit& lv, const FaultView& fv,
                         GateId g, Read&& read) {
  if (fv.out_fixed(g)) return pv_splat(fv.fault()->stuck);
  const GateId* fi = lv.fanins(g);
  const bool pin_fault =
      fv.fault() && fv.fault()->pin != kOutputPin && fv.fault()->gate == g;
  if (!pin_fault) {
    return pv_eval_gate_fn(lv.type(g), lv.fanin_count(g),
                           [&](std::size_t k) { return read(fi[k]); });
  }
  return pv_eval_gate_fn(lv.type(g), lv.fanin_count(g), [&](std::size_t k) {
    if (fv.pin_fixed(g, k)) return pv_splat(fv.fault()->stuck);
    return PVal(read(fi[k]));
  });
}

/// packed_eval_gate_fn over a full packed frame.
inline PVal packed_eval_gate(const LevelizedCircuit& lv, const FaultView& fv,
                             GateId g, const std::vector<PVal>& pframe) {
  return packed_eval_gate_fn(
      lv, fv, g, [&](GateId x) -> const PVal& { return pframe[x]; });
}

/// A packed frame kept as an overlay on a scalar base frame: line g reads
/// its stored PVal when that carries the current frame's stamp, and the
/// splat of the base value otherwise. A frame therefore costs only the lines
/// it stores, not a splat of every line. begin() starts a new frame in O(1).
class PackedOverlay {
 public:
  explicit PackedOverlay(std::size_t num_lines = 0)
      : vals_(num_lines), stamp_(num_lines, 0) {}

  /// Forgets every stored value: each line reads its base value again.
  void begin() {
    if (++now_ == 0) {  // stamp wrap-around: clear every stale stamp
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      now_ = 1;
    }
  }

  bool stored(GateId g) const { return stamp_[g] == now_; }

  PVal read(GateId g, const Val* base) const {
    return stored(g) ? vals_[g] : pv_splat(base[g]);
  }

  /// Stores v as line g's value unless it equals the base value in every
  /// lane; returns whether it was stored. Each line is written at most once
  /// per frame.
  bool diverge(GateId g, const PVal& v, const Val* base) {
    if (v == pv_splat(base[g])) return false;
    vals_[g] = v;
    stamp_[g] = now_;
    return true;
  }

 private:
  std::vector<PVal> vals_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t now_ = 0;
};

/// Full frame sweep: `vals` must hold values for all PIs and DFF outputs
/// (observed values, stem faults folded in); every combinational gate is
/// evaluated in level order. Exactly SequentialSimulator::eval_frame.
void flat_eval_frame(const LevelizedCircuit& lv, const FaultView& fv,
                     FrameVals& vals);

/// Reusable event-driven re-evaluation of a dirty cone in one frame.
/// Seed with mark(); run() evaluates marked gates level by level, and a gate
/// whose value changed marks its combinational readers. The scratch arrays
/// persist across calls (run() leaves them clean).
class ConeSweep {
 public:
  explicit ConeSweep(const LevelizedCircuit& lv)
      : lv_(&lv), buckets_(lv.num_levels()), pending_(lv.num_gates(), 0) {}

  /// Enqueues combinational gate g for re-evaluation (DFFs are ignored —
  /// their outputs are present-state variables, never evaluated in-frame).
  void mark(GateId g) {
    if (pending_[g] || lv_->type(g) == GateType::Dff) return;
    pending_[g] = 1;
    const std::uint32_t l = lv_->level(g);
    buckets_[l].push_back(g);
    if (l > max_level_) max_level_ = l;
    any_ = true;
  }

  /// Marks every combinational reader of g.
  void mark_readers(GateId g) {
    const GateId* ro = lv_->fanouts(g);
    const std::uint32_t nro = lv_->fanout_count(g);
    for (std::uint32_t r = 0; r < nro; ++r) mark(ro[r]);
  }

  bool empty() const { return !any_; }

  /// Visits the marked gates level by level, so each gate is visited once
  /// and after every marked fanin: `eval(g)` recomputes g and returns true
  /// when its value changed, which marks g's readers. Leaves the sweep empty.
  template <typename Eval>
  void drain(Eval&& eval) {
    if (!any_) return;
    for (std::uint32_t lvl = 0; lvl <= max_level_; ++lvl) {
      auto& bucket = buckets_[lvl];
      for (std::size_t b = 0; b < bucket.size(); ++b) {
        const GateId g = bucket[b];
        pending_[g] = 0;
        if (eval(g)) mark_readers(g);
      }
      bucket.clear();
    }
    max_level_ = 0;
    any_ = false;
  }

  /// Evaluates the marked cone into `vals`. `patch` is the faulted gate (or
  /// kNoGate): it evaluates through fv.eval so stuck pins/stems are honoured.
  void run(const FaultView& fv, GateId patch, FrameVals& vals);

 private:
  const LevelizedCircuit* lv_;
  std::vector<std::vector<GateId>> buckets_;
  std::vector<std::uint8_t> pending_;
  std::uint32_t max_level_ = 0;
  bool any_ = false;
};

/// Simulates the faulty machine by replaying the fault-free reference trace
/// and re-evaluating only the fault's cone of influence in each frame: the
/// frame starts as a copy of `good.lines[u]`, present-state differences and
/// the fault site seed a ConeSweep, and everything outside the swept cone
/// keeps the reference value (which is exact — an unswept gate has all-equal
/// fanins and is not the fault site). Requires `good` simulated over the
/// same test with keep_lines; returns exactly
/// SequentialSimulator::run(test, fv, keep_lines).
SeqTrace run_fault_from_reference(const Circuit& c, const TestSequence& test,
                                  const FaultView& fv, const SeqTrace& good,
                                  bool keep_lines);

}  // namespace motsim
