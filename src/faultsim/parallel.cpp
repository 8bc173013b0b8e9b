#include "faultsim/parallel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "logic/eval.hpp"
#include "netlist/levelized.hpp"
#include "util/thread_pool.hpp"

namespace motsim {

namespace {

constexpr std::size_t kGroup = 63;  // slot 63 carries the fault-free machine

/// Classifies faults[0..n_faults) over the reference frames `ref`; `state`
/// is the lane's state buffer (one PVal per flip-flop).
void run_group(const std::vector<const Val*>& ref, const Fault* faults,
               std::size_t n_faults, ConvOutcome* outcomes,
               GroupScratch& scratch, std::vector<PVal>& state) {
  scratch.load(faults, n_faults);
  scratch.initial_state(state.data());

  std::uint64_t detected = 0;
  // Condition (C) tracking: first frame with an unspecified state variable
  // and last frame with a fault-free-specified / faulty-X output.
  std::array<int, 64> first_x_sv;
  std::array<int, 64> last_out_pair;
  first_x_sv.fill(-1);
  last_out_pair.fill(-1);
  const std::uint64_t group_mask = (1ull << n_faults) - 1;

  for (std::size_t u = 0; u < ref.size(); ++u) {
    const GroupScratch::FrameMasks m = scratch.step(ref[u], state.data());
    for (std::uint64_t b = m.x_state & group_mask; b; b &= b - 1) {
      const unsigned s = std::countr_zero(b);
      if (first_x_sv[s] < 0) first_x_sv[s] = static_cast<int>(u);
    }
    for (std::uint64_t b = m.x_output & group_mask; b; b &= b - 1) {
      last_out_pair[std::countr_zero(b)] = static_cast<int>(u);
    }
    detected |= m.detected;
    // Drop-on-detect: once every fault in the group is detected the later
    // frames cannot change any outcome — detection is sticky and condition
    // (C) is only consulted for undetected faults.
    if ((detected & group_mask) == group_mask) break;
  }

  for (unsigned s = 0; s < n_faults; ++s) {
    ConvOutcome& out = outcomes[s];
    out.detected = (detected >> s) & 1;
    out.passes_c = !out.detected && first_x_sv[s] >= 0 &&
                   last_out_pair[s] >= first_x_sv[s];
  }
}

}  // namespace

GroupScratch::GroupScratch(const Circuit& c)
    : circuit_(&c),
      lv_(&c.levelized()),
      site_(c.num_gates(), 0),
      overlay_(c.num_gates()),
      sweep_(c.levelized()) {}

void GroupScratch::load(const Fault* faults, std::size_t n) {
  assert(n <= kGroup);
  for (GateId g : sites_) site_[g] = 0;
  sites_.clear();
  faults_ = faults;
  for (unsigned s = 0; s < n; ++s) {
    const GateId g = faults[s].gate;
    if (site_[g] == 0) sites_.push_back(g);
    site_[g] |= 1ull << s;
  }
}

void GroupScratch::initial_state(PVal* state) const {
  std::fill(state, state + circuit_->num_dffs(), pv_all_x());
  for (GateId g : sites_) {
    const auto k = circuit_->dff_index(g);
    if (!k) continue;
    for (std::uint64_t b = site_[g]; b; b &= b - 1) {
      const unsigned s = std::countr_zero(b);
      if (faults_[s].pin == kOutputPin) pv_set(state[*k], s, faults_[s].stuck);
    }
  }
}

GroupScratch::FrameMasks GroupScratch::step(const Val* ref, PVal* state) {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lv_;
  overlay_.begin();
  // The group's packed value of line g in this frame, and its store.
  const auto read = [&](GateId g) { return overlay_.read(g, ref); };
  const auto diverge = [&](GateId g, const PVal& v) {
    return overlay_.diverge(g, v, ref);
  };

  FrameMasks m;
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    m.x_state |= ~pv_specified_mask(state[k]);
    const GateId q = c.dffs()[k];
    if (diverge(q, state[k])) sweep_.mark_readers(q);
  }
  // Fault sites: input stems diverge directly, combinational sites are
  // evaluated; flip-flop faults act through the state and the latch.
  for (GateId g : sites_) {
    const GateType t = lv.type(g);
    if (t == GateType::Dff) continue;
    if (t != GateType::Input) {
      sweep_.mark(g);
      continue;
    }
    PVal v = pv_splat(ref[g]);
    for (std::uint64_t b = site_[g]; b; b &= b - 1) {
      const unsigned s = std::countr_zero(b);
      pv_set(v, s, faults_[s].stuck);
    }
    if (diverge(g, v)) sweep_.mark_readers(g);
  }

  sweep_.drain([&](GateId g) {
    const GateType t = lv.type(g);
    const std::uint32_t n = lv.fanin_count(g);
    const GateId* fi = lv.fanins(g);
    PVal v = pv_eval_gate_fn(
        t, n, [&](std::size_t k) { return read(fi[k]); });
    for (std::uint64_t b = site_[g]; b; b &= b - 1) {
      const unsigned s = std::countr_zero(b);
      const Fault& f = faults_[s];
      if (f.pin == kOutputPin) {
        pv_set(v, s, f.stuck);
        continue;
      }
      // Re-evaluate this gate for slot s with the faulty pin forced.
      pv_set(v, s, eval_gate_fn(t, n, [&](std::size_t k) {
               return static_cast<int>(k) == f.pin ? f.stuck
                                                   : pv_get(read(fi[k]), s);
             }));
    }
    return diverge(g, v);
  });

  for (std::size_t o = 0; o < c.num_outputs(); ++o) {
    const GateId g = c.outputs()[o];
    const Val good = ref[g];
    if (!is_specified(good) || !overlay_.stored(g)) continue;
    const PVal po = read(g);
    m.detected |= good == Val::One ? po.zeros : po.ones;
    m.x_output |= ~pv_specified_mask(po);
  }

  // Latch next state with D-pin and Q-stem fault patching.
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    const GateId q = c.dffs()[k];
    PVal next = read(lv.dff_input(k));
    for (std::uint64_t b = site_[q]; b; b &= b - 1) {
      const unsigned s = std::countr_zero(b);
      pv_set(next, s, faults_[s].stuck);
    }
    state[k] = next;
  }
  return m;
}

std::vector<ConvOutcome> ParallelFaultSimulator::run(
    const TestSequence& test, const SeqTrace& fault_free,
    const std::vector<Fault>& faults, std::size_t num_threads) const {
  const Circuit& c = *circuit_;
  const std::size_t L = test.length();
  assert(fault_free.length() == L);
  std::vector<ConvOutcome> outcomes(faults.size());
  if (faults.empty()) return outcomes;

  // Reference frames: the trace's own line values, or one fault-free frame
  // sweep per time unit from its states, shared by every group.
  std::vector<FrameVals> derived;
  if (fault_free.lines.empty()) {
    const FaultView fv(c);
    derived.assign(L, FrameVals(c.num_gates(), Val::X));
    for (std::size_t u = 0; u < L; ++u) {
      for (std::size_t k = 0; k < c.num_inputs(); ++k) {
        derived[u][c.inputs()[k]] = test.at(u, k);
      }
      for (std::size_t k = 0; k < c.num_dffs(); ++k) {
        derived[u][c.dffs()[k]] = fault_free.states[u][k];
      }
      flat_eval_frame(c.levelized(), fv, derived[u]);
    }
  }
  const std::vector<FrameVals>& frames =
      fault_free.lines.empty() ? derived : fault_free.lines;
  assert(frames.size() == L);
  std::vector<const Val*> ref(L);
  for (std::size_t u = 0; u < L; ++u) ref[u] = frames[u].data();

  const std::size_t n_groups = (faults.size() + kGroup - 1) / kGroup;
  const std::size_t threads =
      std::min(n_groups, resolve_thread_count(num_threads));
  // Each lane owns one scratch and one state buffer; each group writes a
  // disjoint outcome slice, so the result is schedule-independent.
  std::vector<GroupScratch> scratch(threads, GroupScratch(c));
  std::vector<std::vector<PVal>> state(threads,
                                       std::vector<PVal>(c.num_dffs()));
  auto run_groups = [&](std::size_t gb, std::size_t ge, std::size_t lane) {
    for (std::size_t g = gb; g < ge; ++g) {
      const std::size_t base = g * kGroup;
      const std::size_t n = std::min(kGroup, faults.size() - base);
      run_group(ref, faults.data() + base, n, outcomes.data() + base,
                scratch[lane], state[lane]);
    }
  };
  if (threads <= 1) {
    run_groups(0, n_groups, 0);
  } else {
    ThreadPool(threads).parallel_for_dynamic(n_groups, /*grain=*/1, run_groups);
  }
  return outcomes;
}

}  // namespace motsim
