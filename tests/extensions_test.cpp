// Tests for the extension modules: implication-only simulation ([6]-style)
// and the general MOT approach.
#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "mot/baseline.hpp"
#include "mot/general.hpp"
#include "mot/implication_only.hpp"
#include "mot/oracle.hpp"
#include "mot/proposed.hpp"
#include "netlist/builder.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

struct World {
  Circuit c;
  TestSequence test;
  SeqTrace good;
  std::vector<Fault> faults;
};

World make_world(std::uint64_t seed, std::size_t ffs = 5, std::size_t gates = 25,
                 std::size_t length = 20) {
  circuits::GeneratorParams p;
  p.name = "ext";
  p.seed = seed;
  p.num_inputs = 3;
  p.num_outputs = 2;
  p.num_dffs = ffs;
  p.num_comb_gates = gates;
  p.uninit_fraction = 0.5;
  World w{circuits::generate(p), {}, {}, {}};
  Rng rng(seed * 29 + 7);
  w.test = random_sequence(w.c.num_inputs(), length, rng);
  w.good = SequentialSimulator(w.c).run_fault_free(w.test);
  w.faults = collapsed_fault_list(w.c);
  return w;
}

// ------------------------------------------------- implication-only [6] ----

class ImplicationOnlyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImplicationOnlyProperty, BetweenConventionalAndProposed) {
  World w = make_world(GetParam());
  ImplicationOnlySimulator impl_only(w.c);
  MotFaultSimulator proposed(w.c);
  std::size_t conv = 0, six = 0, prop = 0;
  for (const Fault& f : w.faults) {
    const ImplicationOnlyResult ir = impl_only.simulate_fault(w.test, w.good, f);
    const MotResult pr = proposed.simulate_fault(w.test, w.good, f);
    conv += pr.detected_conventional;
    six += ir.detected;
    prop += pr.detected;
    // Conventional detection is part of both.
    if (pr.detected_conventional) EXPECT_TRUE(ir.detected);
    // The implication-only verdict never exceeds the proposed procedure
    // (the §3.2 check is Procedure 1's step 2).
    if (ir.detected) EXPECT_TRUE(pr.detected) << fault_name(w.c, f);
    // And it is sound.
    if (ir.detected && !pr.detected_conventional) {
      const OracleVerdict v = restricted_mot_oracle(w.c, w.test, w.good, f);
      ASSERT_TRUE(v.computable);
      EXPECT_TRUE(v.detected);
    }
  }
  EXPECT_LE(conv, six);
  EXPECT_LE(six, prop);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationOnlyProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ImplicationOnly, MissesExpansionOnlyFaults) {
  // The paper's point: [6]-style reasoning is not an accurate restricted-
  // MOT implementation. Look for a fault where expansion is required.
  bool found_gap = false;
  for (std::uint64_t seed = 1; seed <= 20 && !found_gap; ++seed) {
    World w = make_world(seed);
    ImplicationOnlySimulator impl_only(w.c);
    MotFaultSimulator proposed(w.c);
    for (const Fault& f : w.faults) {
      const ImplicationOnlyResult ir = impl_only.simulate_fault(w.test, w.good, f);
      const MotResult pr = proposed.simulate_fault(w.test, w.good, f);
      if (pr.detected && !ir.detected) {
        found_gap = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_gap)
      << "expansion never added anything over implications alone (suspicious)";
}

// --------------------------------------------------------- general MOT ----

class GeneralMotProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneralMotProperty, SoundAndDominatesRestricted) {
  World w = make_world(GetParam(), /*ffs=*/4, /*gates=*/20, /*length=*/12);
  GeneralMotSimulator general(w.c);
  std::size_t restricted = 0, general_count = 0;
  for (const Fault& f : w.faults) {
    const GeneralMotResult r = general.simulate_fault(w.test, w.good, f);
    restricted += r.detected_restricted;
    general_count += r.detected;
    // Restricted detection implies general detection.
    if (r.detected_restricted) EXPECT_TRUE(r.detected);
    // Soundness against the exhaustive general oracle.
    if (r.detected) {
      const OracleVerdict v = general_mot_oracle(w.c, w.test, f);
      ASSERT_TRUE(v.computable);
      EXPECT_TRUE(v.detected) << fault_name(w.c, f);
    }
  }
  EXPECT_GE(general_count, restricted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralMotProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(GeneralMot, OracleRelations) {
  // restricted-oracle-detected => general-oracle-detected, on random small
  // circuits.
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    World w = make_world(seed, /*ffs=*/4, /*gates=*/20, /*length=*/10);
    for (const Fault& f : w.faults) {
      const OracleVerdict r = restricted_mot_oracle(w.c, w.test, w.good, f);
      const OracleVerdict g = general_mot_oracle(w.c, w.test, f);
      ASSERT_TRUE(r.computable);
      ASSERT_TRUE(g.computable);
      if (r.detected) EXPECT_TRUE(g.detected) << fault_name(w.c, f);
    }
  }
}

TEST(GeneralMot, FindsAGeneralOnlyFault) {
  // A machine whose fault-free outputs are never specified under
  // three-valued simulation, yet all concrete good responses share a
  // property the faulty machine violates: q and NOT(q) on two outputs.
  // Fault-free: (z1,z2) in {01,10}; with q stem stuck-at-0: (z1,z2) = 01
  // always... that IS a possible good response - not detected. Stick the
  // *inverter* instead: z2 = NOT(q) stuck-at-0 gives (q,0): for q=1 ->
  // (1,0) possible... also not detected. Use z2 stuck so that (1,1)
  // appears: z2 stuck-at-1 -> (q,1): q=1 gives (1,1), impossible in the
  // good machine -> detected for half the states; q=0 gives (0,1), a legal
  // good response -> NOT general-detected either. A truly general-only
  // fault needs every faulty response outside the good set: q' = NOT(q)
  // (toggle) with fault freezing the toggle: q' stuck -> faulty outputs
  // constant (c, !c) repeated, while good outputs alternate. Good set =
  // {0101..., 1010...} (on z1), faulty = {0000...} or {1111...}: every
  // faulty response differs from every good response at some position.
  CircuitBuilder b("genonly");
  b.add_input("a");
  const GateId q = b.declare("q");
  const GateId qn = b.add_gate(GateType::Not, "qn", {q});
  b.define(q, GateType::Dff, {qn});
  const GateId z1 = b.add_gate(GateType::Buf, "z1", {q});
  b.mark_output(z1);
  const Circuit c = b.build_or_throw();

  TestSequence t;
  ASSERT_TRUE(TestSequence::from_strings({"0", "0", "0"}, t));
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  // Freeze the toggle: the D pin of q stuck-at-0 -> faulty z1 is x00
  // (first value is the unknown initial state, then constant 0). Good
  // responses alternate 010/101; faulty concrete responses are 000/100.
  const Fault f{q, 0, Val::Zero};
  const OracleVerdict rg = general_mot_oracle(c, t, f);
  ASSERT_TRUE(rg.computable);
  EXPECT_TRUE(rg.detected);
  const OracleVerdict rr = restricted_mot_oracle(c, t, good, f);
  ASSERT_TRUE(rr.computable);
  EXPECT_FALSE(rr.detected);  // good outputs are all X: restricted is blind

  GeneralMotSimulator general(c);
  const GeneralMotResult r = general.simulate_fault(t, good, f);
  EXPECT_FALSE(r.detected_restricted);
  EXPECT_TRUE(r.detected);
}

}  // namespace
}  // namespace motsim
