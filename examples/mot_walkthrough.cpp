// Reproduces the paper's running examples (Figures 1-4) step by step.
//
//  * Figure 1: conventional three-valued simulation of s27 under one input
//    pattern from the all-X state — no next-state or output value specified.
//  * Figure 2: state expansion of each present-state variable at time 0 —
//    counting the specified next-state/output values per variable.
//  * Figure 3: backward implication of state variable G6 at time 1 — seven
//    specified values at time 0, more than any time-0 expansion.
//  * Figure 4: a backward implication that uncovers a conflict, proving the
//    state variable can only be 0 at time 1.
//
// Note on the input pattern: the paper writes "(1001)" in its own line
// numbering; under the standard .bench input order (G0,G1,G2,G3) the
// equivalent pattern is 1011 (see EXPERIMENTS.md).
#include <cstdio>

#include "circuits/embedded.hpp"
#include "mot/implicator.hpp"
#include "sim/seq_sim.hpp"

namespace {

using namespace motsim;

/// Applies one pattern to s27 from the all-X state and returns the frame.
FrameVals simulate_frame(const Circuit& c, const FaultView& fv,
                         const std::vector<Val>& pattern) {
  FrameVals vals(c.num_gates(), Val::X);
  for (std::size_t k = 0; k < c.num_inputs(); ++k) {
    vals[c.inputs()[k]] = pattern[k];
  }
  SequentialSimulator(c).eval_frame(vals, fv);
  return vals;
}

/// Specified next-state + primary-output values in a frame.
std::size_t count_specified(const Circuit& c, const FaultView& fv,
                            const FrameVals& vals) {
  std::size_t n = 0;
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    n += is_specified(fv.next_state(j, vals));
  }
  for (GateId po : c.outputs()) n += is_specified(vals[po]);
  return n;
}

void print_frame(const Circuit& c, const FaultView& fv, const FrameVals& vals) {
  std::printf("  next-state:");
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    std::printf(" Y(%s)=%c", c.gate(c.dffs()[j]).name.c_str(),
                v_to_char(fv.next_state(j, vals)));
  }
  std::printf("   outputs:");
  for (GateId po : c.outputs()) {
    std::printf(" %s=%c", c.gate(po).name.c_str(), v_to_char(vals[po]));
  }
  std::printf("\n");
}

void figures_1_to_3() {
  const Circuit c = circuits::make_s27();
  const FaultView fv(c);
  const std::vector<Val> pattern = {Val::One, Val::Zero, Val::One, Val::One};

  std::printf("=== Figure 1: conventional simulation of s27, pattern 1011 ===\n");
  const FrameVals base = simulate_frame(c, fv, pattern);
  print_frame(c, fv, base);
  std::printf("  specified next-state/output values: %zu\n\n",
              count_specified(c, fv, base));

  std::printf("=== Figure 2: state expansion at time 0 ===\n");
  FrameImplicator impl(c);
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    const GateId psv = c.dffs()[j];
    std::size_t specified = 0;
    for (Val v : {Val::Zero, Val::One}) {
      FrameVals vals = base;
      const std::pair<GateId, Val> seed{psv, v};
      impl.run(vals, fv, {}, {&seed, 1}, ImplMode::Fixpoint);
      specified += count_specified(c, fv, vals);
      std::printf("  %s = %c:", c.gate(psv).name.c_str(), v_to_char(v));
      print_frame(c, fv, vals);
      impl.undo(vals);
    }
    std::printf("  expansion of %s specifies %zu values\n\n",
                c.gate(psv).name.c_str(), specified);
  }

  std::printf("=== Figure 3: backward implication of G6 at time 1 ===\n");
  // Setting present-state variable G6 = a at time 1 forces next-state
  // variable Y(G6) — the line G11 — to a at time 0.
  const GateId y_g6 = c.dff_input(*c.dff_index(c.find("G6")));
  std::size_t specified = 0;
  for (Val v : {Val::Zero, Val::One}) {
    FrameVals vals = base;
    const std::pair<GateId, Val> seed{y_g6, v};
    impl.run(vals, fv, {}, {&seed, 1}, ImplMode::Fixpoint);
    specified += count_specified(c, fv, vals);
    std::printf("  Y(G6) = %c:", v_to_char(v));
    print_frame(c, fv, vals);
    impl.undo(vals);
  }
  std::printf("  backward implication of G6@1 specifies %zu values at time 0\n",
              specified);
  std::printf("  (vs. at most 5 for any expansion at time 0 — the paper's"
              " seven-vs-five comparison)\n\n");
}

void figure_4() {
  std::printf("=== Figure 4: a conflict found by backward implication ===\n");
  const Circuit c = circuits::make_fig4_conflict();
  const FaultView fv(c);
  const std::vector<Val> pattern = {Val::Zero};
  const FrameVals base = simulate_frame(c, fv, pattern);
  std::printf("  after input L1=0: L3=%c L4=%c (nothing else specified)\n",
              v_to_char(base[c.find("L3")]), v_to_char(base[c.find("L4")]));

  FrameImplicator impl(c);
  for (Val v : {Val::Zero, Val::One}) {
    FrameVals vals = base;
    const std::pair<GateId, Val> seed{c.find("L11"), v};
    const ImplOutcome out = impl.run(vals, fv, {}, {&seed, 1}, ImplMode::Fixpoint);
    std::printf("  seeding next-state L11 = %c: %s\n", v_to_char(v),
                out == ImplOutcome::Conflict ? "CONFLICT — value impossible"
                                             : "consistent");
    impl.undo(vals);
  }
  std::printf("  => the present-state variable can only be 0 at time 1;\n"
              "     expansion needs to consider a single state, not two.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "error: unexpected argument '%s' (takes none)\n",
                 argv[1]);
    return 1;
  }
  figures_1_to_3();
  figure_4();
  return 0;
}
