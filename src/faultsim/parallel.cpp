#include "faultsim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "netlist/levelized.hpp"
#include "util/thread_pool.hpp"

namespace motsim {

namespace {

constexpr std::uint8_t kPo = 1;      // the gate is a primary output
constexpr std::uint8_t kDriver = 2;  // the gate drives a D pin

/// v with the lanes of `force` replaced: a set bit of force.ones / .zeros
/// makes that lane 1 / 0.
PVal pv_force(const PVal& v, const PVal& force) {
  const std::uint64_t keep = ~(force.ones | force.zeros);
  return PVal{(v.ones & keep) | force.ones, (v.zeros & keep) | force.zeros};
}

/// The fault-free frames of a run, shared by every group.
struct Reference {
  std::vector<const Val*> frames;       ///< line values per time unit
  std::vector<std::uint32_t> x_states;  ///< X flip-flop outputs per frame
  std::vector<Val> initial;             ///< initial state per flip-flop
};

/// Classifies faults[0..n_faults) over the reference frames; `state` is the
/// lane's state buffer.
void run_group(const Reference& ref, const Fault* faults, std::size_t n_faults,
               ConvOutcome* outcomes, GroupScratch& scratch,
               GroupState& state) {
  scratch.load(faults, n_faults);
  scratch.initial_state(ref.initial.data(), state);

  // Condition (C) holds for a slot when a frame at or after its first
  // unspecified state variable has a fault-free-specified output that the
  // slot leaves X: `x_state` accumulates the first, `passes_c` the second.
  std::uint64_t detected = 0, x_state = 0, passes_c = 0;
  const std::uint64_t group_mask = (1ull << n_faults) - 1;
  for (std::size_t u = 0; u < ref.frames.size(); ++u) {
    const GroupScratch::FrameMasks m =
        scratch.step(ref.frames[u], ref.x_states[u], state);
    x_state |= m.x_state;
    passes_c |= m.x_output & x_state;
    // Drop-on-detect: later frames cannot change a detected fault's outcome
    // (detection is sticky and condition (C) is only consulted for
    // undetected faults), so its slot is dropped, and the group stops once
    // every slot is detected.
    const std::uint64_t newly = m.detected & group_mask & ~detected;
    detected |= newly;
    if (detected == group_mask) break;
    if (newly) {
      scratch.load(faults, n_faults, ~detected);
      scratch.heal(newly, ref.frames[u], state);
    }
  }

  for (unsigned s = 0; s < n_faults; ++s) {
    ConvOutcome& out = outcomes[s];
    out.detected = (detected >> s) & 1;
    out.passes_c = !out.detected && ((passes_c >> s) & 1);
  }
}

/// Rejects a fault-free trace the group step would read out of bounds: the
/// reference frames are indexed by time unit, line and flip-flop unchecked.
void check_trace(const Circuit& c, const TestSequence& test,
                 const SeqTrace& fault_free) {
  const std::size_t L = test.length();
  const auto reject = [](const char* why) {
    throw std::invalid_argument(std::string("ParallelFaultSimulator::run: ") +
                                why);
  };
  if (fault_free.length() != L) {
    reject("the fault-free trace and the test differ in length");
  }
  if (!fault_free.lines.empty()) {
    if (fault_free.lines.size() != L ||
        std::ranges::any_of(fault_free.lines, [&](const FrameVals& f) {
          return f.size() != c.num_gates();
        })) {
      reject("the fault-free line values do not cover every line of every "
             "frame");
    }
    return;
  }
  // Without line values the frames are derived from the test and the states.
  if (test.num_inputs() != c.num_inputs()) {
    reject("the test does not drive every primary input");
  }
  if (fault_free.states.size() < L ||
      std::any_of(fault_free.states.begin(), fault_free.states.begin() + L,
                  [&](const std::vector<Val>& s) {
                    return s.size() != c.num_dffs();
                  })) {
    reject("the fault-free trace lacks a state for some frame");
  }
}

/// Rejects reference frames whose flip-flops do not latch: frame u + 1 must
/// present, on every flip-flop output, what frame u holds on its D pin.
void check_latches(const Circuit& c, const std::vector<FrameVals>& frames) {
  for (std::size_t u = 0; u + 1 < frames.size(); ++u) {
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      if (frames[u + 1][c.dffs()[k]] != frames[u][c.dff_input(k)]) {
        throw std::invalid_argument(
            "ParallelFaultSimulator::run: the fault-free trace's next state "
            "differs from its latched D value");
      }
    }
  }
}

}  // namespace

GroupScratch::GroupScratch(const Circuit& c)
    : circuit_(&c),
      lv_(&c.levelized()),
      watch_(c.num_gates(), 0),
      driven_off_(c.num_gates() + 1, 0),
      driven_(c.num_dffs()),
      site_of_(c.num_gates(), 0),
      overlay_(c.num_gates()),
      sweep_(c.levelized()) {
  for (GateId o : c.outputs()) watch_[o] |= kPo;
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    watch_[c.dff_input(k)] |= kDriver;
    ++driven_off_[c.dff_input(k) + 1];
  }
  for (std::size_t g = 0; g < c.num_gates(); ++g) {
    driven_off_[g + 1] += driven_off_[g];
  }
  std::vector<std::uint32_t> fill(driven_off_.begin(), driven_off_.end() - 1);
  for (std::size_t k = 0; k < c.num_dffs(); ++k) {
    driven_[fill[c.dff_input(k)]++] = static_cast<std::uint32_t>(k);
  }
}

void GroupScratch::load(const Fault* faults, std::size_t n,
                        std::uint64_t live) {
  assert(n <= kSlots);
  for (const Site& site : sites_) site_of_[site.gate] = 0;
  sites_.clear();
  pin_force_.clear();
  for (unsigned s = 0; s < n; ++s) {
    if (!((live >> s) & 1)) continue;
    const Fault& f = faults[s];
    if (site_of_[f.gate] == 0) {
      const auto k = circuit_->dff_index(f.gate);
      sites_.push_back(
          {f.gate, k ? static_cast<std::int32_t>(*k) : -1, PVal{}, kNoPins});
      site_of_[f.gate] = static_cast<std::uint32_t>(sites_.size());
    }
    Site& site = sites_[site_of_[f.gate] - 1];
    PVal* force = &site.out;
    if (f.pin != kOutputPin) {
      if (site.pins == kNoPins) {
        site.pins = static_cast<std::uint32_t>(pin_force_.size());
        pin_force_.resize(pin_force_.size() + lv_->fanin_count(f.gate));
      }
      force = &pin_force_[site.pins + f.pin];
    }
    (f.stuck == Val::One ? force->ones : force->zeros) |= 1ull << s;
  }
}

void GroupScratch::initial_state(const Val* good_state,
                                 GroupState& state) const {
  state.clear();
  for (std::size_t k = 0; k < circuit_->num_dffs(); ++k) {
    // All X, with the stem faults' slots forced.
    const std::uint32_t site = site_of_[circuit_->dffs()[k]];
    const PVal v = site ? sites_[site - 1].out : pv_all_x();
    if (v != pv_splat(good_state[k])) {
      state.push_back({static_cast<std::uint32_t>(k), v});
    }
  }
}

void GroupScratch::heal(std::uint64_t slots, const Val* ref,
                        GroupState& state) const {
  std::erase_if(state, [&](StateEntry& e) {
    const PVal good = pv_splat(ref[lv_->dff_input(e.dff)]);
    e.value = PVal{(e.value.ones & ~slots) | (good.ones & slots),
                   (e.value.zeros & ~slots) | (good.zeros & slots)};
    return e.value == good;
  });
}

GroupScratch::FrameMasks GroupScratch::step(const Val* ref,
                                            std::size_t ref_x_states,
                                            GroupState& state) {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lv_;
  overlay_.begin();
  touched_.clear();
  // The group's packed value of line g in this frame, and its store, which
  // records the primary outputs and D-pin drivers that diverge.
  const auto read = [&](GateId g) { return overlay_.read(g, ref); };
  const auto diverge = [&](GateId g, const PVal& v) {
    if (!overlay_.diverge(g, v, ref)) return false;
    if (watch_[g]) touched_.push_back(g);
    return true;
  };

  FrameMasks m;
  ++stats_.group_frames;
  stats_.state_entries += state.size();
  // Present state. An unlisted flip-flop holds the fault-free value in every
  // lane, so it is X in every lane exactly when that value is X.
  std::size_t listed_x = 0;
  for (const StateEntry& e : state) {
    const GateId q = c.dffs()[e.dff];
    m.x_state |= ~pv_specified_mask(e.value);
    listed_x += ref[q] == Val::X;
    if (diverge(q, e.value)) sweep_.mark_readers(q);
  }
  if (ref_x_states > listed_x) m.x_state = ~0ull;
  // Fault sites: input stems diverge directly, combinational sites are
  // evaluated; flip-flop faults act through the state and the latch.
  for (const Site& site : sites_) {
    const GateType t = lv.type(site.gate);
    if (t == GateType::Dff) continue;
    if (t != GateType::Input) {
      sweep_.mark(site.gate);
      continue;
    }
    if (diverge(site.gate, pv_force(pv_splat(ref[site.gate]), site.out))) {
      sweep_.mark_readers(site.gate);
    }
  }

  sweep_.drain([&](GateId g) {
    ++stats_.gates_evaluated;
    const GateType t = lv.type(g);
    const std::uint32_t n = lv.fanin_count(g);
    const GateId* fi = lv.fanins(g);
    const std::uint32_t site = site_of_[g];
    if (site == 0) {
      return diverge(g, pv_eval_gate_fn(
                            t, n, [&](std::size_t k) { return read(fi[k]); }));
    }
    // Each slot carries one fault, so forcing every faulted pin's slots and
    // then the stem's gives each slot its own faulty evaluation.
    const Site& s = sites_[site - 1];
    const PVal* pin = s.pins == kNoPins ? nullptr : &pin_force_[s.pins];
    const PVal v = pv_eval_gate_fn(t, n, [&](std::size_t k) {
      return pin ? pv_force(read(fi[k]), pin[k]) : read(fi[k]);
    });
    return diverge(g, pv_force(v, s.out));
  });

  for (GateId g : touched_) {
    const Val good = ref[g];
    if (!(watch_[g] & kPo) || !is_specified(good)) continue;
    const PVal po = read(g);
    m.detected |= good == Val::One ? po.zeros : po.ones;
    m.x_output |= ~pv_specified_mask(po);
  }

  // Next state: the flip-flops behind a diverged D-pin driver, and the
  // faulted flip-flops with their D-pin and Q-stem faults applied, where
  // they differ from the fault-free next state.
  state.clear();
  for (GateId g : touched_) {
    for (std::uint32_t i = driven_off_[g]; i < driven_off_[g + 1]; ++i) {
      const std::uint32_t k = driven_[i];
      if (site_of_[c.dffs()[k]] == 0) state.push_back({k, read(g)});
    }
  }
  for (const Site& site : sites_) {
    if (site.dff < 0) continue;
    const GateId d = lv.dff_input(site.dff);
    PVal next = read(d);
    if (site.pins != kNoPins) next = pv_force(next, pin_force_[site.pins]);
    next = pv_force(next, site.out);
    if (next != pv_splat(ref[d])) {
      state.push_back({static_cast<std::uint32_t>(site.dff), next});
    }
  }
  stats_.latch_entries += state.size();
  return m;
}

std::vector<ConvOutcome> ParallelFaultSimulator::run(
    const TestSequence& test, const SeqTrace& fault_free,
    const std::vector<Fault>& faults, std::size_t num_threads,
    PrepassStats* stats) const {
  const Circuit& c = *circuit_;
  const std::size_t L = test.length();
  check_trace(c, test, fault_free);
  std::vector<ConvOutcome> outcomes(faults.size());
  if (stats) *stats = PrepassStats{};
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
  check_latches(c, frames);
  Reference ref;
  ref.frames.resize(L);
  ref.x_states.assign(L, 0);
  ref.initial.assign(c.num_dffs(), Val::X);
  for (std::size_t u = 0; u < L; ++u) {
    ref.frames[u] = frames[u].data();
    for (GateId q : c.dffs()) ref.x_states[u] += frames[u][q] == Val::X;
  }
  if (L > 0) {
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      ref.initial[k] = frames[0][c.dffs()[k]];
    }
  }

  constexpr std::size_t kGroup = GroupScratch::kSlots;
  const std::size_t n_groups = (faults.size() + kGroup - 1) / kGroup;
  const std::size_t threads =
      std::min(n_groups, resolve_thread_count(num_threads));
  // Each lane owns one scratch and one state buffer; each group writes a
  // disjoint outcome slice, so the result is schedule-independent.
  std::vector<GroupScratch> scratch(threads, GroupScratch(c));
  std::vector<GroupState> state(threads);
  // Per-group work counts, summed in group order after the pool joins.
  std::vector<PrepassStats> group_stats(stats ? n_groups : 0);
  auto run_groups = [&](std::size_t gb, std::size_t ge, std::size_t lane) {
    for (std::size_t g = gb; g < ge; ++g) {
      const std::size_t base = g * kGroup;
      const std::size_t n = std::min(kGroup, faults.size() - base);
      run_group(ref, faults.data() + base, n, outcomes.data() + base,
                scratch[lane], state[lane]);
      const PrepassStats counted = scratch[lane].take_stats();
      if (stats) group_stats[g] = counted;
    }
  };
  if (threads <= 1) {
    run_groups(0, n_groups, 0);
  } else {
    ThreadPool(threads).parallel_for_dynamic(n_groups, /*grain=*/1, run_groups);
  }
  if (stats) {
    for (const PrepassStats& s : group_stats) *stats += s;
  }
  return outcomes;
}

}  // namespace motsim
