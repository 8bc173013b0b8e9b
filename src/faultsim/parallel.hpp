// Parallel-fault conventional simulation.
//
// Packs up to 63 faulty machines (plus the fault-free machine in slot 63)
// into the two-word PVal encoding and simulates them simultaneously, one
// bitwise gate evaluation serving all slots. A frame costs what diverges
// from the fault-free machine, not the circuit's size:
// - the group's state lists only the flip-flops that differ from the
//   fault-free state;
// - the group's values are a divergence overlay on the fault-free frame,
//   and only the gates where some slot can differ from it (readers of a
//   listed flip-flop or faulted input, the group's fault sites, and the
//   readers of every gate whose result diverges) are evaluated, in level
//   order;
// - detection and the next state read only the primary outputs and D-pin
//   drivers that diverged, plus the faulted flip-flops;
// - fault effects are applied as per-slot force masks on a faulted gate's
//   pins and output, so one packed evaluation serves every fault there.
//
// Semantically identical to ConventionalFaultSimulator (asserted by the
// faultsim tests); used as the fast pre-pass that classifies the whole
// fault universe before the per-fault MOT procedures run.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "faultsim/conventional.hpp"
#include "logic/pval.hpp"
#include "sim/frame_kernel.hpp"

namespace motsim {

/// Work counts of the conventional pre-pass. Diagnostics only: they are the
/// same for every thread count and take no part in any outcome.
struct PrepassStats {
  std::uint64_t group_frames = 0;     ///< group steps (one group, one frame)
  std::uint64_t gates_evaluated = 0;  ///< gates the cone sweep evaluated
  std::uint64_t state_entries = 0;    ///< present-state entries visited
  std::uint64_t latch_entries = 0;    ///< next-state entries written

  PrepassStats& operator+=(const PrepassStats& o) {
    group_frames += o.group_frames;
    gates_evaluated += o.gates_evaluated;
    state_entries += o.state_entries;
    latch_entries += o.latch_entries;
    return *this;
  }
};

/// One flip-flop whose packed state differs from the fault-free state.
struct StateEntry {
  std::uint32_t dff = 0;  ///< flip-flop index
  PVal value;
};

/// A group's present state, kept sparse: the flip-flops whose packed state
/// differs from the fault-free state, each once, in no particular order.
/// Every unlisted flip-flop holds the fault-free value in all 64 lanes.
using GroupState = std::vector<StateEntry>;

/// Reusable per-lane state of the group step: one group of up to 63 faulty
/// machines advanced one frame at a time against a fault-free reference
/// frame. Slot s simulates faults[s]; slot 63 and every unused slot carry
/// the fault-free machine. Nothing is allocated per group or per frame once
/// the buffers have grown.
class GroupScratch {
 public:
  explicit GroupScratch(const Circuit& c);

  /// Makes faults[0..n) the group (n <= 63). Costs O(n) plus the fanin
  /// counts of the pin-faulted gates.
  void load(const Fault* faults, std::size_t n);

  /// Writes the group's initial state: all X except stem-stuck flip-flop
  /// outputs, listed against the fault-free initial state `good_state`
  /// (one value per flip-flop).
  void initial_state(const Val* good_state, GroupState& state) const;

  struct FrameMasks {
    std::uint64_t x_state = 0;   ///< slots with an X present-state variable
    std::uint64_t detected = 0;  ///< slots with an output opposite to `ref`
    /// slots with an X output where `ref` is specified
    std::uint64_t x_output = 0;
  };

  /// Simulates one frame from `state`, which becomes the next state.
  /// `ref` holds the fault-free value of every line in this frame, and
  /// `ref_x_states` counts the flip-flop outputs it leaves X. The fault-free
  /// next state is `ref`'s value on each D pin.
  FrameMasks step(const Val* ref, std::size_t ref_x_states, GroupState& state);

  /// The work counted since the last call, which resets the counts.
  PrepassStats take_stats() { return std::exchange(stats_, PrepassStats{}); }

 private:
  static constexpr std::uint32_t kNoPins = ~0u;
  /// A gate carrying faults of the group, with its per-slot force masks: a
  /// set bit of `ones` / `zeros` forces that slot to 1 / 0.
  struct Site {
    GateId gate = 0;
    std::int32_t dff = -1;         ///< flip-flop index of the gate, or -1
    PVal out;                      ///< stem faults
    std::uint32_t pins = kNoPins;  ///< offset of the pin masks in pin_force_
  };

  const Circuit* circuit_;
  const LevelizedCircuit* lv_;
  // Per gate: kPo / kDriver bits, and the flip-flops whose D pin it drives.
  std::vector<std::uint8_t> watch_;
  std::vector<std::uint32_t> driven_off_;  // num_gates + 1
  std::vector<std::uint32_t> driven_;
  std::vector<std::uint32_t> site_of_;  // per gate: 1 + index into sites_
  std::vector<Site> sites_;
  std::vector<PVal> pin_force_;  // one mask per fanin of a pin-faulted site
  std::vector<GateId> touched_;  // watched gates stored this frame
  PackedOverlay overlay_;        // the group's frame over `ref`
  ConeSweep sweep_;
  PrepassStats stats_;
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
  /// never constructed. A non-null `stats` receives the run's work counts,
  /// merged in group order.
  std::vector<ConvOutcome> run(const TestSequence& test,
                               const SeqTrace& fault_free,
                               const std::vector<Fault>& faults,
                               std::size_t num_threads = 1,
                               PrepassStats* stats = nullptr) const;

 private:
  const Circuit* circuit_;
};

}  // namespace motsim
