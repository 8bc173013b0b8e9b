// Parallel-fault conventional simulation.
//
// Packs up to 63 faulty machines (plus the fault-free machine in slot 63)
// into the two-word PVal encoding and simulates them simultaneously, one
// bitwise gate evaluation serving all slots. A frame is not swept in full:
// the group's values are kept as a divergence overlay on the fault-free
// frame, and only the gates where some slot can differ from it — readers of
// a diverged flip-flop or faulted input, the group's fault sites, and the
// readers of every gate whose result diverges — are evaluated, in level
// order. Per-slot fault effects are patched in scalar form at the fault
// sites only.
//
// Semantically identical to ConventionalFaultSimulator (asserted by the
// faultsim tests); used as the fast pre-pass that classifies the whole
// fault universe before the per-fault MOT procedures run.
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/conventional.hpp"
#include "logic/pval.hpp"
#include "sim/frame_kernel.hpp"

namespace motsim {

/// Reusable per-lane state of the group step: one group of up to 63 faulty
/// machines advanced one frame at a time against a fault-free reference
/// frame. Slot s simulates faults[s]; slot 63 and every unused slot carry
/// the fault-free machine. Nothing is allocated per group or per frame.
class GroupScratch {
 public:
  explicit GroupScratch(const Circuit& c);

  /// Makes faults[0..n) the group (n <= 63). `faults` must outlive the
  /// following step() calls.
  void load(const Fault* faults, std::size_t n);

  /// Writes the group's initial state (one PVal per flip-flop): all X
  /// except stem-stuck flip-flop outputs.
  void initial_state(PVal* state) const;

  struct FrameMasks {
    std::uint64_t x_state = 0;   ///< slots with an X present-state variable
    std::uint64_t detected = 0;  ///< slots with an output opposite to `ref`
    /// slots with an X output where `ref` is specified
    std::uint64_t x_output = 0;
  };

  /// Simulates one frame from `state` (updated in place to the next state).
  /// `ref` holds the fault-free value of every line in this frame.
  FrameMasks step(const Val* ref, PVal* state);

 private:
  const Circuit* circuit_;
  const LevelizedCircuit* lv_;
  const Fault* faults_ = nullptr;
  std::vector<std::uint64_t> site_;  // per gate: slots whose fault sits there
  std::vector<GateId> sites_;        // gates with a nonzero site_ entry
  PackedOverlay overlay_;            // the group's frame over `ref`
  ConeSweep sweep_;
};

class ParallelFaultSimulator {
 public:
  explicit ParallelFaultSimulator(const Circuit& c) : circuit_(&c) {}

  /// Detection + condition-(C) classification for every fault.
  ///
  /// `fault_free` may omit line values; the reference frames are then
  /// derived once from its states and shared by every group.
  /// `num_threads` spreads the 63-fault PVal groups over a thread pool with
  /// one GroupScratch per worker (0 = every CPU this process may run on,
  /// 1 = serial). Every group writes a disjoint slice of the outcome vector,
  /// so the result is identical for every thread count; with 1 the pool is
  /// never constructed.
  std::vector<ConvOutcome> run(const TestSequence& test,
                               const SeqTrace& fault_free,
                               const std::vector<Fault>& faults,
                               std::size_t num_threads = 1) const;

 private:
  const Circuit* circuit_;
};

}  // namespace motsim
