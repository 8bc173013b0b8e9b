// Tests for the state-sequence set and the §3.4 resimulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "fault/fault.hpp"
#include "mot/state_set.hpp"
#include "netlist/builder.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

TestSequence seq(const std::vector<std::string_view>& rows) {
  TestSequence t;
  EXPECT_TRUE(TestSequence::from_strings(rows, t));
  return t;
}

struct TestBed {
  Circuit c;
  TestSequence test;
  SeqTrace good;
  SeqTrace faulty;
  std::unique_ptr<FaultView> fv;
};

TestBed make_setup(Circuit circuit, const TestSequence& test,
                 std::optional<Fault> fault = std::nullopt) {
  TestBed s{std::move(circuit), test, {}, {}, nullptr};
  const SequentialSimulator sim(s.c);
  s.good = sim.run_fault_free(test);
  s.fv = fault ? std::make_unique<FaultView>(s.c, *fault)
               : std::make_unique<FaultView>(s.c);
  s.faulty = sim.run(test, *s.fv);
  return s;
}

/// Sequence s's states, states[u][j] = y_j at time unit u.
std::vector<std::vector<Val>> states_of(const StateSet& set, std::size_t s,
                                        std::size_t frames, std::size_t ffs) {
  std::vector<std::vector<Val>> states(frames);
  for (std::size_t u = 0; u < frames; ++u) {
    for (std::size_t j = 0; j < ffs; ++j) states[u].push_back(set.state(s, u, j));
  }
  return states;
}

std::vector<std::vector<Val>> states_of(const StateSet& set, std::size_t s,
                                        const SeqTrace& like) {
  return states_of(set, s, like.states.size(), like.states[0].size());
}

TEST(StateSet, StartsWithTheConventionalSequence) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "0000"}));
  StateSet set(s.c, s.test, s.good, *s.fv, s.faulty);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.active_count(), 1u);
  EXPECT_FALSE(set.all_resolved());
  EXPECT_EQ(states_of(set, 0, s.faulty), s.faulty.states);
}

TEST(StateSet, AssignRefinesAndConflictMakesInfeasible) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "0000"}));
  StateSet set(s.c, s.test, s.good, *s.fv, s.faulty);
  set.assign(0, 0, 0, Val::One);
  EXPECT_EQ(set.state(0, 0, 0), Val::One);
  EXPECT_EQ(set.status(0), SeqStatus::Active);
  set.assign(0, 0, 0, Val::One);  // same value: no-op
  EXPECT_EQ(set.status(0), SeqStatus::Active);
  set.assign(0, 0, 0, Val::Zero);  // contradiction
  EXPECT_EQ(set.status(0), SeqStatus::Infeasible);
  EXPECT_TRUE(set.all_resolved());
}

TEST(StateSet, UnspecifiedEverywhereChecksAllActiveSequences) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "1011"}));
  StateSet set(s.c, s.test, s.good, *s.fv, s.faulty);
  EXPECT_TRUE(set.unspecified_everywhere(0, 1));
  set.split(0, {}, {});
  set.assign(1, 0, 1, Val::One);
  EXPECT_FALSE(set.unspecified_everywhere(0, 1));
  // Variables in the other copy remain unspecified.
  EXPECT_TRUE(set.unspecified_everywhere(0, 0));
}

TEST(StateSet, SplitDuplicatesOnlyActiveSequences) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011"}));
  StateSet set(s.c, s.test, s.good, *s.fv, s.faulty);
  set.split(0, {}, {});  // 2 sequences
  set.assign(1, 0, 0, Val::One);
  set.assign(1, 0, 0, Val::Zero);  // kill sequence 1
  set.split(0, {}, {});
  EXPECT_EQ(set.size(), 3u);  // only sequence 0 was active, copied to 2
  EXPECT_EQ(set.status(1), SeqStatus::Infeasible);
  EXPECT_EQ(set.status(2), SeqStatus::Active);
  EXPECT_EQ(states_of(set, 2, s.faulty), states_of(set, 0, s.faulty));
}

TEST(StateSet, ResimulationDetectsOutputConflict) {
  // z = BUF(q), q' = a. Good run under "1","0": z = (X, 1) and q@1 = 1.
  // Treating the fault-free machine as the machine under expansion, the
  // hypothesis q@1 = 0 is exposed at the marked frame: z@1 = 0 conflicts
  // with the good response 1 (the PO check of §3.4 fires first).
  CircuitBuilder b("obs");
  const GateId a = b.add_input("a");
  const GateId q = b.declare("q");
  const GateId z = b.add_gate(GateType::Buf, "z", {q});
  b.define(q, GateType::Dff, {a});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  TestBed s = make_setup(c, seq({"x", "0"}));
  // Input x at u=0 keeps q@1 unspecified so the assignment is admissible.
  StateSet set(c, s.test, s.good, *s.fv, s.faulty);
  ASSERT_EQ(set.state(0, 1, 0), Val::X);
  // A second machine: same circuit, good response from pattern "1","0".
  const SeqTrace good_spec =
      SequentialSimulator(c).run_fault_free(seq({"1", "0"}));
  StateSet set2(c, s.test, good_spec, *s.fv, s.faulty);
  set2.assign(0, 1, 0, Val::Zero);
  set2.resimulate();
  EXPECT_EQ(set2.status(0), SeqStatus::Detected);
}

TEST(StateSet, ResimulationFindsInfeasibleSequences) {
  // Toggle flip-flop q' = NOT(q), z = BUF(q): conventional simulation never
  // initializes q, so both assignments below are admissible — but q@0 = 1
  // forces q@1 = 0, so the stored hypothesis q@1 = 1 has no covering run.
  CircuitBuilder b("toggle");
  const GateId q = b.declare("q");
  b.add_input("a");
  const GateId qn = b.add_gate(GateType::Not, "qn", {q});
  b.define(q, GateType::Dff, {qn});
  const GateId z = b.add_gate(GateType::Buf, "z", {q});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  TestBed s = make_setup(c, seq({"0", "0"}));
  StateSet set(c, s.test, s.good, *s.fv, s.faulty);
  set.assign(0, 0, 0, Val::One);
  set.assign(0, 1, 0, Val::One);
  set.resimulate();
  EXPECT_EQ(set.status(0), SeqStatus::Infeasible);
}

TEST(StateSet, ResimulationDetectsFaultViaExpandedState) {
  // z = XOR(q, a): good from X: z = X. Fault on the XOR output stuck-at-0
  // would be conventional; instead inject a stuck state and check that the
  // two expanded values split into detected halves.
  CircuitBuilder b("xorobs");
  const GateId a = b.add_input("a");
  const GateId q = b.declare("q");
  const GateId z = b.add_gate(GateType::Xor, "z", {q, a});
  const GateId qn = b.add_gate(GateType::Not, "qn", {q});
  b.define(q, GateType::Dff, {qn});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  // Fault: input a stuck-at-1. Good with a=0: z = q = X; nothing specified,
  // no conventional detection. Oracle view: faulty z = NOT(q)... both good
  // and faulty outputs are X — nothing detectable, and resimulation of the
  // expanded faulty machine must NOT claim detection (good output is X).
  TestBed s = make_setup(c, seq({"0", "0"}), Fault{a, kOutputPin, Val::One});
  StateSet set(c, s.test, s.good, *s.fv, s.faulty);
  const StateAssign zero{0, Val::Zero};
  const StateAssign one{0, Val::One};
  set.split(0, {&zero, 1}, {&one, 1});
  EXPECT_EQ(set.state(0, 0, 0), Val::Zero);
  EXPECT_EQ(set.state(1, 0, 0), Val::One);
  set.resimulate();
  EXPECT_EQ(set.status(0), SeqStatus::Active);
  EXPECT_EQ(set.status(1), SeqStatus::Active);
  EXPECT_FALSE(set.all_resolved());
}

TEST(StateSet, ResimulationPropagatesRefinementsForward) {
  // q1' = a, q2' = q1, z = BUF(q2): setting q1 at u=1 must propagate to q2
  // at u=2 during resimulation (marked-frame chaining).
  CircuitBuilder b("chain2");
  const GateId a = b.add_input("a");
  const GateId q1 = b.declare("q1");
  const GateId q2 = b.declare("q2");
  b.define(q1, GateType::Dff, {a});
  const GateId q1buf = b.add_gate(GateType::Buf, "q1buf", {q1});
  b.define(q2, GateType::Dff, {q1buf});
  const GateId z = b.add_gate(GateType::Buf, "z", {q2});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();

  TestBed s = make_setup(c, seq({"x", "x", "x"}));  // inputs unknown: no init
  StateSet set(c, s.test, s.good, *s.fv, s.faulty);
  EXPECT_EQ(set.state(0, 2, 1), Val::X);
  set.assign(0, 1, 0, Val::One);  // q1 = 1 at time 1
  set.resimulate();
  EXPECT_EQ(set.status(0), SeqStatus::Active);
  EXPECT_EQ(set.state(0, 2, 1), Val::One);  // q2 = 1 at time 2
}

TEST(StateSet, IncrementalResimulationMatchesFullEvaluation) {
  // With line values present, resimulation re-evaluates only the cone of
  // the refined state variables; the result must be identical to the full
  // frame evaluation used when lines are absent.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    circuits::GeneratorParams p;
    p.name = "incr";
    p.seed = seed;
    p.num_inputs = 3;
    p.num_outputs = 2;
    p.num_dffs = 6;
    p.num_comb_gates = 40;
    p.uninit_fraction = 0.5;
    const Circuit c = circuits::generate(p);
    Rng rng(seed * 7 + 5);
    const TestSequence t = random_sequence(3, 12, rng);
    const SequentialSimulator sim(c);
    const SeqTrace good = sim.run_fault_free(t);
    const FaultView fv(c);
    const SeqTrace with_lines = sim.run(t, fv, /*keep_lines=*/true);
    SeqTrace without_lines = with_lines;
    without_lines.lines.clear();

    StateSet incremental(c, t, good, fv, with_lines);
    StateSet full(c, t, good, fv, without_lines);
    // Refine a few unspecified state variables identically in both.
    std::size_t assigned = 0;
    for (std::size_t u = 0; u < t.length() && assigned < 4; ++u) {
      for (std::size_t j = 0; j < c.num_dffs() && assigned < 4; ++j) {
        if (is_specified(with_lines.states[u][j])) continue;
        const Val v = rng.next_bool() ? Val::One : Val::Zero;
        incremental.assign(0, u, j, v);
        full.assign(0, u, j, v);
        ++assigned;
      }
    }
    incremental.resimulate();
    full.resimulate();
    ASSERT_EQ(incremental.status(0), full.status(0)) << "seed " << seed;
    EXPECT_EQ(states_of(incremental, 0, with_lines),
              states_of(full, 0, with_lines))
        << "seed " << seed;
  }
}

TEST(StateSet, AssignAtFinalStateOnlyChecksConsistency) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011"}));
  StateSet set(s.c, s.test, s.good, *s.fv, s.faulty);
  const std::size_t L = s.test.length();
  set.assign(0, L, 0, Val::One);
  EXPECT_EQ(set.state(0, L, 0), Val::One);
  set.resimulate();  // nothing to simulate at L; must not crash
  EXPECT_EQ(set.status(0), SeqStatus::Active);
}


// ------------------------------------------- differential scalar model ----

/// The state set as one vector<vector<Val>> per sequence, resimulated by
/// full scalar frame evaluation. Its budget polls follow the packed order:
/// pack by pack (sequences 64p..64p+63), frame by frame, and within a frame
/// every lane is charged before any is evaluated.
struct ScalarModel {
  const Circuit* c;
  const TestSequence* test;
  const SeqTrace* good;
  const FaultView* fv;
  std::vector<std::vector<std::vector<Val>>> states;
  std::vector<SeqStatus> status;
  std::vector<std::uint8_t> marked;
  // Coverage of the cases the differential test is meant to reach.
  std::size_t stopped_refinements = 0;  ///< a conflict at j cut a later change
  std::size_t splits_after_infeasible = 0;
  std::size_t pack_crossing_splits = 0;
  std::size_t mid_frame_stops = 0;  ///< budget out after a lane of the frame

  ScalarModel(const Circuit& circuit, const TestSequence& t, const SeqTrace& g,
              const FaultView& view, const SeqTrace& faulty)
      : c(&circuit), test(&t), good(&g), fv(&view), states{faulty.states},
        status{SeqStatus::Active}, marked(t.length(), 0) {}

  void assign(std::size_t s, std::size_t u, std::size_t j, Val v) {
    if (status[s] != SeqStatus::Active) return;
    if (refine_into(states[s][u][j], v) == Refine::Conflict) {
      status[s] = SeqStatus::Infeasible;
      return;
    }
    if (u < marked.size()) marked[u] = 1;
  }

  void split(std::size_t u, std::span<const StateAssign> side0,
             std::span<const StateAssign> side1) {
    const std::size_t n = states.size();
    if (std::count(status.begin(), status.end(), SeqStatus::Infeasible) > 0) {
      ++splits_after_infeasible;
    }
    std::vector<std::size_t> copies;
    for (std::size_t s = 0; s < n; ++s) {
      if (status[s] != SeqStatus::Active) continue;
      copies.push_back(states.size());
      states.push_back(states[s]);
      status.push_back(SeqStatus::Active);
    }
    if (!copies.empty() && (n - 1) / 64 != (states.size() - 1) / 64) {
      ++pack_crossing_splits;
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (const auto& [j, v] : side0) assign(s, u, j, v);
    }
    for (const std::size_t s : copies) {
      for (const auto& [j, v] : side1) assign(s, u, j, v);
    }
  }

  /// Evaluates sequence s at u; true when it stays Active.
  bool step(std::size_t s, std::size_t u, std::vector<std::uint8_t>& carry) {
    const Circuit& cc = *c;
    FrameVals frame(cc.num_gates(), Val::X);
    for (std::size_t k = 0; k < cc.num_inputs(); ++k) {
      frame[cc.inputs()[k]] = fv->input_value(k, test->at(u, k));
    }
    for (std::size_t j = 0; j < cc.num_dffs(); ++j) {
      frame[cc.dffs()[j]] = states[s][u][j];
    }
    SequentialSimulator(cc).eval_frame(frame, *fv);
    for (std::size_t o = 0; o < cc.num_outputs(); ++o) {
      if (conflicts(good->outputs[u][o], frame[cc.outputs()[o]])) {
        status[s] = SeqStatus::Detected;
        return false;
      }
    }
    for (std::size_t j = 0; j < cc.num_dffs(); ++j) {
      const Val next = fv->present_state(j, fv->next_state(j, frame));
      switch (refine_into(states[s][u + 1][j], next)) {
        case Refine::Conflict:
          status[s] = SeqStatus::Infeasible;
          for (std::size_t k = j + 1; k < cc.num_dffs(); ++k) {
            const Val later = fv->present_state(k, fv->next_state(k, frame));
            if (is_specified(later) && !is_specified(states[s][u + 1][k])) {
              ++stopped_refinements;
              break;
            }
          }
          return false;
        case Refine::Changed:
          carry[u + 1] = 1;
          break;
        case Refine::NoChange:
          break;
      }
    }
    return true;
  }

  void resimulate(WorkBudget& budget) {
    const std::size_t L = test->length();
    for (std::size_t first = 0; first < states.size(); first += 64) {
      const std::size_t last = std::min(states.size(), first + 64);
      std::vector<std::vector<std::uint8_t>> carry(
          last - first, std::vector<std::uint8_t>(L + 1, 0));
      for (std::size_t u = 0; u < L; ++u) {
        std::vector<std::size_t> lanes;
        for (std::size_t s = first; s < last; ++s) {
          if (status[s] == SeqStatus::Active && (marked[u] || carry[s - first][u])) {
            lanes.push_back(s);
          }
        }
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          if (budget.poll()) {
            mid_frame_stops += k > 0;
            marked.assign(L, 0);
            return;
          }
        }
        for (const std::size_t s : lanes) step(s, u, carry[s - first]);
      }
    }
    marked.assign(L, 0);
  }
};

void expect_same(const StateSet& set, const ScalarModel& model,
                 const std::string& where) {
  ASSERT_EQ(set.size(), model.states.size()) << where;
  std::size_t active = 0;
  for (std::size_t s = 0; s < set.size(); ++s) {
    ASSERT_EQ(set.status(s), model.status[s]) << where << " sequence " << s;
    active += model.status[s] == SeqStatus::Active;
    const auto& want = model.states[s];
    ASSERT_EQ(states_of(set, s, want.size(), want[0].size()), want)
        << where << " sequence " << s;
  }
  EXPECT_EQ(set.active_count(), active) << where;
  EXPECT_EQ(set.all_resolved(), active == 0) << where;
}

struct DifferentialCoverage {
  std::size_t stopped_refinements = 0;
  std::size_t splits_after_infeasible = 0;
  std::size_t pack_crossing_splits = 0;
  std::size_t mid_frame_stops = 0;
};

/// Drives a StateSet and the scalar model with the same seeded random
/// assign / split / resimulate calls and compares them after every call.
/// With `limited`, resimulation runs under small work budgets that stop it
/// part-way; the model follows the packed kernel's poll order, so the
/// comparison is exact for KernelKind::SoA only.
void run_differential(std::uint64_t seed, std::size_t n_states, KernelKind kernel,
                      bool limited, DifferentialCoverage& cov) {
  Rng rng(seed);
  circuits::GeneratorParams p;
  p.name = "diff";
  p.seed = rng.next_u64();
  p.num_inputs = 2 + rng.next_below(3);
  p.num_outputs = 1 + rng.next_below(3);
  p.num_dffs = 3 + rng.next_below(8);
  p.num_comb_gates = 10 + rng.next_below(40);
  p.uninit_fraction = 0.6;
  const Circuit c = circuits::generate(p);
  const TestSequence t = rng.next_bool(0.3)
                             ? random_sequence_with_x(p.num_inputs,
                                                      3 + rng.next_below(8), 0.2, rng)
                             : random_sequence(p.num_inputs, 3 + rng.next_below(8), rng);
  const std::size_t L = t.length();
  const std::size_t ffs = c.num_dffs();
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  // The set only ever expands faults conventional simulation leaves
  // undetected (a lane replaying the trace is never evaluated): take the
  // first of a few random faults that qualifies, or the fault-free machine.
  const std::vector<Fault> faults = collapsed_fault_list(c);
  FaultView fv(c);
  for (int tries = rng.next_bool(0.2) ? 0 : 8; tries > 0; --tries) {
    const FaultView candidate(c, faults[rng.next_below(faults.size())]);
    if (!traces_conflict(good, sim.run(t, candidate))) {
      fv = candidate;
      break;
    }
  }
  SeqTrace faulty = sim.run(t, fv, /*keep_lines=*/true);
  if (rng.next_bool(0.3)) faulty.lines.clear();  // full-sweep path

  StateSet set(c, t, good, fv, faulty, kernel);
  ScalarModel model(c, t, good, fv, faulty);
  const auto random_val = [&] { return rng.next_bool() ? Val::One : Val::Zero; };
  const auto random_side = [&] {
    std::vector<StateAssign> side(rng.next_below(4));
    for (StateAssign& a : side) {
      a = {static_cast<std::uint32_t>(rng.next_below(ffs)), random_val()};
    }
    return side;
  };

  for (int op = 0; op < 60; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " +
                              std::to_string(op);
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4) {
      // Assign into a random sequence, often one time unit ahead of a
      // refined frame so that resimulation can conflict with it.
      for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
        const std::size_t s = rng.next_below(set.size());
        const std::size_t u = rng.next_below(L + 1);
        const std::size_t j = rng.next_below(ffs);
        const Val v = random_val();
        set.assign(s, u, j, v);
        model.assign(s, u, j, v);
      }
    } else if (kind < 7) {
      if (set.size() * 2 > n_states) continue;
      const std::size_t u = rng.next_below(L + 1);
      const std::vector<StateAssign> side0 = random_side();
      const std::vector<StateAssign> side1 = random_side();
      set.split(u, side0, side1);
      model.split(u, side0, side1);
    } else {
      const std::uint64_t limit =
          limited && rng.next_bool(0.6) ? 1 + rng.next_below(3 * set.size() + 2) : 0;
      WorkBudget a(Deadline(), limit);
      WorkBudget b(Deadline(), limit);
      set.resimulate(&a);
      model.resimulate(b);
      ASSERT_EQ(a.work_used(), b.work_used()) << where;
      ASSERT_EQ(a.exhausted(), b.exhausted()) << where;
    }
    expect_same(set, model, where);
    if (::testing::Test::HasFatalFailure()) return;
    for (std::size_t u = 0; u <= L; ++u) {
      for (std::size_t j = 0; j < ffs; ++j) {
        bool open = true;
        for (std::size_t s = 0; s < model.states.size(); ++s) {
          open = open && !(model.status[s] == SeqStatus::Active &&
                           is_specified(model.states[s][u][j]));
        }
        ASSERT_EQ(set.unspecified_everywhere(u, j), open) << where;
      }
    }
  }
  cov.stopped_refinements += model.stopped_refinements;
  cov.splits_after_infeasible += model.splits_after_infeasible;
  cov.pack_crossing_splits += model.pack_crossing_splits;
  cov.mid_frame_stops += model.mid_frame_stops;
}

TEST(StateSetDifferential, PackedSetMatchesScalarModelUnderBudgets) {
  for (const std::size_t n_states : {2u, 64u, 128u, 256u}) {
    SCOPED_TRACE("n_states " + std::to_string(n_states));
    DifferentialCoverage cov;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      run_differential(seed * 1000 + n_states, n_states, KernelKind::SoA,
                       /*limited=*/true, cov);
      if (HasFatalFailure()) return;
    }
    // The cases the model exists for were reached.
    EXPECT_GT(cov.stopped_refinements, 0u);
    EXPECT_GT(cov.splits_after_infeasible, 0u);
    EXPECT_GT(cov.mid_frame_stops, 0u);
    if (n_states > 64) {
      EXPECT_GT(cov.pack_crossing_splits, 0u);
    }
  }
}

TEST(StateSetDifferential, BothKernelsMatchScalarModel) {
  for (const KernelKind kernel : {KernelKind::Legacy, KernelKind::SoA}) {
    for (const std::size_t n_states : {2u, 64u, 128u, 256u}) {
      SCOPED_TRACE(std::string(kernel == KernelKind::Legacy ? "legacy" : "soa") +
                   " n_states " + std::to_string(n_states));
      DifferentialCoverage cov;
      for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        run_differential(seed * 7919 + n_states, n_states, kernel,
                         /*limited=*/false, cov);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace motsim
