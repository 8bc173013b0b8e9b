// Tests for the BDD package and the symbolic ([5]-style) restricted-MOT
// detector — including the cross-validation property: the symbolic verdict
// equals the exhaustive oracle, and its sat-count equals an exhaustive count
// of the initial states that detect the fault.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "bdd/symbolic.hpp"
#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "fault/fault_view.hpp"
#include "mot/oracle.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

// -------------------------------------------------------------- manager ----

TEST(Bdd, TerminalsAndVars) {
  BddManager m(3);
  EXPECT_TRUE(m.is_true(m.constant(true)));
  EXPECT_TRUE(m.is_false(m.constant(false)));
  const BddRef x0 = m.var(0);
  EXPECT_NE(x0, kBddTrue);
  EXPECT_NE(x0, kBddFalse);
  EXPECT_EQ(m.var(0), x0);  // hash-consed
  EXPECT_EQ(m.nvar(0), m.bdd_not(x0));
}

TEST(Bdd, BasicIdentities) {
  BddManager m(4);
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  EXPECT_EQ(m.bdd_and(a, m.constant(true)), a);
  EXPECT_EQ(m.bdd_and(a, m.constant(false)), kBddFalse);
  EXPECT_EQ(m.bdd_or(a, m.constant(false)), a);
  EXPECT_EQ(m.bdd_or(a, m.bdd_not(a)), kBddTrue);
  EXPECT_EQ(m.bdd_and(a, m.bdd_not(a)), kBddFalse);
  EXPECT_EQ(m.bdd_xor(a, a), kBddFalse);
  EXPECT_EQ(m.bdd_xnor(a, a), kBddTrue);
  EXPECT_EQ(m.bdd_and(a, b), m.bdd_and(b, a));  // canonical
  EXPECT_EQ(m.bdd_not(m.bdd_not(a)), a);
  // De Morgan, canonically.
  EXPECT_EQ(m.bdd_not(m.bdd_and(a, b)),
            m.bdd_or(m.bdd_not(a), m.bdd_not(b)));
}

TEST(Bdd, EvalAgainstTruthTables) {
  BddManager m(3);
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef c = m.var(2);
  const BddRef f = m.bdd_or(m.bdd_and(a, b), m.bdd_xor(b, c));
  for (std::uint64_t asg = 0; asg < 8; ++asg) {
    const bool va = asg & 1, vb = (asg >> 1) & 1, vc = (asg >> 2) & 1;
    EXPECT_EQ(m.eval(f, asg), (va && vb) || (vb != vc)) << asg;
  }
}

TEST(Bdd, IteIsShannonConsistent) {
  Rng rng(5);
  BddManager m(5);
  // Random three functions; check ite(f,g,h) pointwise.
  auto random_fn = [&]() {
    BddRef f = m.constant(rng.next_bool());
    for (int i = 0; i < 6; ++i) {
      const BddRef v = rng.next_bool() ? m.var(rng.next_below(5))
                                       : m.nvar(rng.next_below(5));
      f = rng.next_bool() ? m.bdd_and(f, v)
                          : (rng.next_bool() ? m.bdd_or(f, v) : m.bdd_xor(f, v));
    }
    return f;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const BddRef f = random_fn(), g = random_fn(), h = random_fn();
    const BddRef r = m.ite(f, g, h);
    for (std::uint64_t asg = 0; asg < 32; ++asg) {
      EXPECT_EQ(m.eval(r, asg),
                m.eval(f, asg) ? m.eval(g, asg) : m.eval(h, asg));
    }
  }
}

TEST(Bdd, RestrictAndSatCount) {
  BddManager m(3);
  const BddRef a = m.var(0);
  const BddRef b = m.var(1);
  const BddRef f = m.bdd_and(a, m.bdd_or(b, m.var(2)));
  EXPECT_EQ(m.sat_count(f), 3u);  // a=1 & (b|c): 3 of 8
  EXPECT_EQ(m.sat_count(kBddTrue), 8u);
  EXPECT_EQ(m.sat_count(kBddFalse), 0u);
  EXPECT_EQ(m.restrict_var(f, 0, false), kBddFalse);
  const BddRef f1 = m.restrict_var(f, 0, true);
  EXPECT_EQ(m.sat_count(f1), 6u);  // (b|c) over 3 vars: 6 of 8
}

TEST(Bdd, AnySatSatisfies) {
  BddManager m(6);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    BddRef f = m.var(rng.next_below(6));
    for (int i = 0; i < 5; ++i) {
      const BddRef v = rng.next_bool() ? m.var(rng.next_below(6))
                                       : m.nvar(rng.next_below(6));
      f = rng.next_bool() ? m.bdd_or(f, v) : m.bdd_xor(f, v);
    }
    if (f == kBddFalse) continue;
    EXPECT_TRUE(m.eval(f, m.any_sat(f)));
  }
}

TEST(Bdd, DagSizeCountsSharedNodes) {
  BddManager m(2);
  EXPECT_EQ(m.dag_size(kBddTrue), 1u);
  const BddRef f = m.bdd_xor(m.var(0), m.var(1));
  // xor over 2 vars: root + two var-1 nodes + 2 terminals.
  EXPECT_EQ(m.dag_size(f), 5u);
}

// ----------------------------------------------------- symbolic detector ----

struct SymCase {
  std::uint64_t seed;
  std::size_t ffs;
};

class SymbolicEqualsOracle : public ::testing::TestWithParam<SymCase> {};

// Initial states of the faulty machine whose response conflicts with the
// fault-free response: the 2^k loop of restricted_mot_oracle, counted
// instead of stopped at the first consistent state.
std::uint64_t detecting_initial_states(const Circuit& c, const TestSequence& t,
                                       const SeqTrace& good, const Fault& f) {
  const std::size_t k = c.num_dffs();
  const SequentialSimulator sim(c);
  const FaultView fv(c, f);
  std::vector<Val> init(k);
  std::uint64_t detected = 0;
  for (std::uint64_t bits = 0; bits < (1ull << k); ++bits) {
    for (std::size_t j = 0; j < k; ++j) {
      init[j] = ((bits >> j) & 1) ? Val::One : Val::Zero;
    }
    if (traces_conflict(good, sim.run(t, fv, false, init))) ++detected;
  }
  return detected;
}

TEST_P(SymbolicEqualsOracle, VerdictAndStateCountMatchExhaustiveOracles) {
  const SymCase sc = GetParam();
  circuits::GeneratorParams p;
  p.name = "sym";
  p.seed = sc.seed;
  p.num_inputs = 3;
  p.num_outputs = 2;
  p.num_dffs = sc.ffs;
  p.num_comb_gates = 30;
  p.uninit_fraction = 0.4;
  const Circuit c = circuits::generate(p);
  Rng rng(sc.seed * 41 + 3);
  const TestSequence t = random_sequence(3, 16, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);

  for (const Fault& f : collapsed_fault_list(c)) {
    const SymbolicVerdict sym = symbolic_mot_detect(c, t, good, f);
    ASSERT_TRUE(sym.computable);
    const OracleVerdict oracle = restricted_mot_oracle(c, t, good, f);
    ASSERT_TRUE(oracle.computable);
    EXPECT_EQ(sym.detected, oracle.detected) << fault_name(c, f);
    EXPECT_EQ(sym.detected_states, detecting_initial_states(c, t, good, f))
        << fault_name(c, f);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSizes, SymbolicEqualsOracle,
                         ::testing::Values(SymCase{1, 4}, SymCase{2, 5},
                                           SymCase{3, 6}, SymCase{4, 5},
                                           SymCase{5, 7}));

TEST(Symbolic, ProposedProcedureIsSoundAgainstSymbolicDetector) {
  // The symbolic detector scales past the 2^k oracle; use it to check the
  // proposed procedure on a circuit with more flip-flops.
  circuits::GeneratorParams p;
  p.name = "sym-big";
  p.seed = 77;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_dffs = 20;  // 2^20 initial states: beyond the enumeration oracle
  p.num_comb_gates = 80;
  p.uninit_fraction = 0.4;
  const Circuit c = circuits::generate(p);
  Rng rng(7);
  const TestSequence t = random_sequence(4, 20, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  MotFaultSimulator proposed(c);
  std::size_t mot_extra = 0;
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    if (!r.detected || r.detected_conventional) continue;
    ++mot_extra;
    const SymbolicVerdict sym = symbolic_mot_detect(c, t, good, f);
    if (sym.computable) {
      EXPECT_TRUE(sym.detected) << fault_name(c, f);
    }
  }
  EXPECT_GT(mot_extra, 0u);
}

TEST(Symbolic, RefusesPartiallySpecifiedTests) {
  const Circuit c = circuits::make_s27();
  TestSequence t;
  ASSERT_TRUE(TestSequence::from_strings({"10x1"}, t));
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  const Fault f{0, kOutputPin, Val::Zero};
  EXPECT_FALSE(symbolic_mot_detect(c, t, good, f).computable);
}

TEST(Symbolic, NodeBudgetIsHonored) {
  circuits::GeneratorParams p;
  p.name = "budget";
  p.seed = 9;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_dffs = 16;
  p.num_comb_gates = 120;
  p.uninit_fraction = 0.6;
  const Circuit c = circuits::generate(p);
  Rng rng(13);
  const TestSequence t = random_sequence(4, 16, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  SymbolicOptions opt;
  opt.node_budget = 64;  // absurdly small: must give up, not crash
  const Fault f{c.topo_order()[0], kOutputPin, Val::One};
  const SymbolicVerdict v = symbolic_mot_detect(c, t, good, f, opt);
  EXPECT_FALSE(v.computable);
  EXPECT_GT(v.peak_nodes, 0u);
}

}  // namespace
}  // namespace motsim
