#include "sim/seq_sim.hpp"

#include <algorithm>
#include <cassert>

#include "sim/frame_kernel.hpp"

namespace motsim {

void SequentialSimulator::eval_frame(FrameVals& vals, const FaultView& fv) const {
  if (lev_ != nullptr) {
    flat_eval_frame(*lev_, fv, vals);
    return;
  }
  const Circuit& c = *circuit_;
  assert(vals.size() == c.num_gates());
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const GateType t = c.gate(id).type;
    if (t == GateType::Const0) vals[id] = fv.out_fixed(id) ? fv.fault()->stuck : Val::Zero;
    if (t == GateType::Const1) vals[id] = fv.out_fixed(id) ? fv.fault()->stuck : Val::One;
  }
  for (GateId id : c.topo_order()) {
    vals[id] = fv.eval(id, vals);
  }
}

SeqTrace SequentialSimulator::run(const TestSequence& test, const FaultView& fv,
                                  bool keep_lines,
                                  std::span<const Val> init_state) const {
  const Circuit& c = *circuit_;
  assert(test.num_inputs() == c.num_inputs());
  assert(init_state.empty() || init_state.size() == c.num_dffs());

  // Snapshot the initial state into the frame buffer before any other
  // allocation or write: callers may pass a span into storage that this
  // simulation replaces (e.g. a states row of a trace being rebuilt), so no
  // read of `init_state` is legal once anything else has been touched.
  std::vector<Val> state(c.num_dffs(), Val::X);
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    const Val intended = init_state.empty() ? Val::X : init_state[k];
    state[k] = fv.present_state(k, intended);
  }

  const std::size_t L = test.length();
  SeqTrace trace;
  trace.states.assign(L + 1, std::vector<Val>(c.num_dffs(), Val::X));
  trace.outputs.assign(L, std::vector<Val>(c.num_outputs(), Val::X));
  if (keep_lines) trace.lines.assign(L, FrameVals(c.num_gates(), Val::X));

  FrameVals vals(c.num_gates(), Val::X);
  for (std::size_t u = 0; u < L; ++u) {
    trace.states[u] = state;
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      vals[c.inputs()[k]] = fv.input_value(k, test.at(u, k));
    }
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      vals[c.dffs()[k]] = state[k];
    }
    eval_frame(vals, fv);
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      trace.outputs[u][o] = vals[c.outputs()[o]];
    }
    if (keep_lines) trace.lines[u] = vals;
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      state[k] = fv.present_state(k, fv.next_state(k, vals));
    }
  }
  trace.states[L] = state;
  return trace;
}

SeqTrace SequentialSimulator::run_fault_free(const TestSequence& test,
                                             bool keep_lines) const {
  return run(test, FaultView(*circuit_), keep_lines);
}

bool traces_conflict(const SeqTrace& fault_free, const SeqTrace& faulty) {
  assert(fault_free.length() == faulty.length());
  for (std::size_t u = 0; u < fault_free.length(); ++u) {
    for (std::size_t o = 0; o < fault_free.outputs[u].size(); ++o) {
      if (conflicts(fault_free.outputs[u][o], faulty.outputs[u][o])) return true;
    }
  }
  return false;
}

std::vector<std::size_t> count_nout(const SeqTrace& fault_free, const SeqTrace& faulty) {
  const std::size_t L = fault_free.length();
  std::vector<std::size_t> nout(L, 0);
  std::size_t suffix = 0;
  for (std::size_t u = L; u-- > 0;) {
    for (std::size_t o = 0; o < fault_free.outputs[u].size(); ++o) {
      if (is_specified(fault_free.outputs[u][o]) &&
          !is_specified(faulty.outputs[u][o])) {
        ++suffix;
      }
    }
    nout[u] = suffix;
  }
  return nout;
}

std::vector<std::size_t> count_nsv(const SeqTrace& faulty) {
  std::vector<std::size_t> nsv(faulty.states.size(), 0);
  for (std::size_t u = 0; u < faulty.states.size(); ++u) {
    nsv[u] = static_cast<std::size_t>(std::ranges::count(faulty.states[u], Val::X));
  }
  return nsv;
}

bool passes_condition_c(const SeqTrace& fault_free, const SeqTrace& faulty) {
  return passes_condition_c(count_nout(fault_free, faulty), count_nsv(faulty));
}

bool passes_condition_c(std::span<const std::size_t> nout,
                        std::span<const std::size_t> nsv) {
  for (std::size_t u = 0; u < nout.size(); ++u) {
    if (nsv[u] > 0 && nout[u] > 0) return true;
  }
  return false;
}

}  // namespace motsim
