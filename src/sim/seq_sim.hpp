// Three-valued sequential simulation (the "conventional simulation" of the
// paper): apply the test sequence frame by frame starting from the all-X
// state, evaluating the combinational network under three-valued logic and
// latching next-state values between frames.
#pragma once

#include <span>
#include <vector>

#include "fault/fault_view.hpp"
#include "logic/val.hpp"
#include "netlist/circuit.hpp"
#include "netlist/levelized.hpp"
#include "sim/test_sequence.hpp"

namespace motsim {

/// Per-gate values for one time frame, indexed by GateId.
using FrameVals = std::vector<Val>;

/// Complete record of a sequential simulation.
struct SeqTrace {
  /// states[u][k]: present-state variable y_k at time unit u; u ranges over
  /// 0..L (state L is the state reached after the last pattern).
  std::vector<std::vector<Val>> states;
  /// outputs[u][o]: primary output o at time unit u, 0 <= u < L.
  std::vector<std::vector<Val>> outputs;
  /// lines[u][g]: observed value of every line at time unit u. Populated
  /// only when requested (needed by the backward-implication collector).
  std::vector<FrameVals> lines;

  std::size_t length() const { return outputs.size(); }
};

class SequentialSimulator {
 public:
  /// The SoA kernel sweeps the circuit's cached levelized order; Legacy is
  /// the original per-gate topo loop kept as reference semantics. Both
  /// produce identical traces (kernel equivalence tests).
  explicit SequentialSimulator(const Circuit& c,
                               KernelKind kernel = KernelKind::SoA)
      : circuit_(&c),
        lev_(kernel == KernelKind::SoA ? &c.levelized() : nullptr) {}

  /// Evaluates one frame: `vals` must hold values for all PIs and DFF
  /// outputs (observed values — stem faults on PIs/DFFs already folded in);
  /// all combinational gate values are computed in topological order.
  void eval_frame(FrameVals& vals, const FaultView& fv) const;

  /// Simulates the whole sequence. `init_state` (size num_dffs) overrides
  /// the all-X initial state when non-empty; it is copied before anything
  /// else happens, so a span into storage the caller is about to overwrite
  /// with the returned trace is legal. `keep_lines` materializes
  /// SeqTrace::lines.
  SeqTrace run(const TestSequence& test, const FaultView& fv,
               bool keep_lines = false,
               std::span<const Val> init_state = {}) const;

  /// Fault-free convenience.
  SeqTrace run_fault_free(const TestSequence& test, bool keep_lines = false) const;

 private:
  const Circuit* circuit_;
  const LevelizedCircuit* lev_;  ///< non-null iff the SoA kernel is active
};

/// True if some (time unit, output) pair is specified to opposite values —
/// the single-observation-time detection criterion.
bool traces_conflict(const SeqTrace& fault_free, const SeqTrace& faulty);

/// N_out(u) of the paper: number of pairs (u' >= u, o) where the fault-free
/// output is specified and the faulty output is X. Returned as a vector over
/// u = 0..L-1 (suffix counts).
std::vector<std::size_t> count_nout(const SeqTrace& fault_free, const SeqTrace& faulty);

/// N_sv(u): number of unspecified state variables of the faulty trace at
/// each time unit u = 0..L.
std::vector<std::size_t> count_nsv(const SeqTrace& faulty);

/// The paper's necessary condition (C): exists u in [0, L) with
/// N_sv(u) > 0 and N_out(u) > 0.
bool passes_condition_c(const SeqTrace& fault_free, const SeqTrace& faulty);

/// Condition (C) from precomputed count_nout / count_nsv vectors.
bool passes_condition_c(std::span<const std::size_t> nout,
                        std::span<const std::size_t> nsv);

}  // namespace motsim
