#include "sim/frame_kernel.hpp"

#include <cassert>

#include "logic/eval.hpp"

namespace motsim {

void flat_eval_frame(const LevelizedCircuit& lv, const FaultView& fv,
                     FrameVals& vals) {
  assert(vals.size() == lv.num_gates());
  const GateId patch = fv.fault() ? fv.fault()->gate : kNoGate;
  Val* v = vals.data();
  for (GateId g : lv.order()) {
    if (g == patch) {
      v[g] = fv.eval(g, vals);
      continue;
    }
    const GateId* fi = lv.fanins(g);
    v[g] = eval_gate_fn(lv.type(g), lv.fanin_count(g),
                        [&](std::size_t k) { return v[fi[k]]; });
  }
}

void ConeSweep::run(const FaultView& fv, GateId patch, FrameVals& vals) {
  const LevelizedCircuit& lv = *lv_;
  Val* v = vals.data();
  drain([&](GateId g) {
    Val newv;
    if (g == patch) {
      newv = fv.eval(g, vals);
    } else {
      const GateId* fi = lv.fanins(g);
      newv = eval_gate_fn(lv.type(g), lv.fanin_count(g),
                          [&](std::size_t k) { return v[fi[k]]; });
    }
    if (newv == v[g]) return false;
    v[g] = newv;
    return true;
  });
}

SeqTrace run_fault_from_reference(const Circuit& c, const TestSequence& test,
                                  const FaultView& fv, const SeqTrace& good,
                                  bool keep_lines) {
  assert(fv.fault().has_value());
  assert(good.length() == test.length());
  assert(good.lines.size() == test.length());
  const LevelizedCircuit& lv = c.levelized();
  const Fault& f = *fv.fault();
  const std::size_t L = test.length();

  std::vector<Val> state(c.num_dffs(), Val::X);
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    state[k] = fv.present_state(k, Val::X);
  }

  SeqTrace trace;
  trace.states.assign(L + 1, std::vector<Val>(c.num_dffs(), Val::X));
  trace.outputs.assign(L, std::vector<Val>(c.num_outputs(), Val::X));
  if (keep_lines) trace.lines.assign(L, FrameVals());

  // The fault site seeds the sweep every frame: a faulted combinational gate
  // (including constants) re-evaluates through fv.eval; faults on PI stems
  // are applied to the frame directly, and faults on DFFs are folded into
  // the present/next-state reads.
  const GateType ft = lv.type(f.gate);
  const bool mark_fault_gate = ft != GateType::Input && ft != GateType::Dff;

  ConeSweep sweep(lv);
  FrameVals frame;
  for (std::size_t u = 0; u < L; ++u) {
    trace.states[u] = state;
    frame = good.lines[u];
    // Present-state differences from the reference trace.
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      const GateId q = c.dffs()[j];
      if (frame[q] == state[j]) continue;
      frame[q] = state[j];
      sweep.mark_readers(q);
    }
    // The fault site.
    if (ft == GateType::Input) {
      // Stem fault on a primary input; there are no pin faults on inputs.
      const Val v = f.stuck;
      if (frame[f.gate] != v) {
        frame[f.gate] = v;
        sweep.mark_readers(f.gate);
      }
    } else if (mark_fault_gate) {
      sweep.mark(f.gate);
    }
    sweep.run(fv, f.gate, frame);

    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      trace.outputs[u][o] = frame[c.outputs()[o]];
    }
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      state[k] = fv.present_state(k, fv.next_state(k, frame));
    }
    if (keep_lines) trace.lines[u] = std::move(frame);
  }
  trace.states[L] = state;
  return trace;
}

}  // namespace motsim
