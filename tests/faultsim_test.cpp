// Tests for src/faultsim: the serial conventional fault simulator and the
// equivalence of the 64-way parallel-fault accelerator.
#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "circuits/registry.hpp"
#include "faultsim/parallel.hpp"
#include "faultsim/session.hpp"
#include "mot/oracle.hpp"
#include "netlist/bench_io.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

TEST(Conventional, DetectsObviousOutputFault) {
  const Circuit c = circuits::make_s27();
  Rng rng(3);
  const TestSequence t = random_sequence(4, 16, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  // G17 is the only output; stuck-at on it conflicts as soon as the
  // fault-free value is specified opposite.
  const ConventionalFaultSimulator fs(c);
  bool any_output_specified = false;
  for (const auto& row : good.outputs) {
    any_output_specified = any_output_specified || is_specified(row[0]);
  }
  ASSERT_TRUE(any_output_specified);
  const Fault sa0{c.find("G17"), kOutputPin, Val::Zero};
  const Fault sa1{c.find("G17"), kOutputPin, Val::One};
  const bool d0 = fs.analyze(t, good, sa0).detected;
  const bool d1 = fs.analyze(t, good, sa1).detected;
  // At least one polarity must conflict with a specified good value.
  EXPECT_TRUE(d0 || d1);
}

TEST(Conventional, SomeUndetectedFaultPassesConditionC) {
  const Circuit c = circuits::make_table1_example();
  // XOR state feedback: states stay unspecified, outputs partially X —
  // the Table-1 machine exists precisely to exercise the MOT pipeline, so
  // its fault list must contain condition-(C) candidates.
  Rng rng(5);
  const TestSequence t = random_sequence(2, 10, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const ConventionalFaultSimulator fs(c);
  std::size_t candidates = 0;
  for (const Fault& f : collapsed_fault_list(c)) {
    const ConvOutcome out = fs.analyze(t, good, f);
    EXPECT_FALSE(out.detected && out.passes_c);  // mutually exclusive
    candidates += out.passes_c;
  }
  EXPECT_GT(candidates, 0u);
}

TEST(Conventional, DetectionImpliesOracleDetection) {
  // Single-observation-time detection is sound for restricted MOT: if the
  // all-X faulty response conflicts, every initial state's response does.
  const Circuit c = circuits::make_s27();
  Rng rng(11);
  const TestSequence t = random_sequence(4, 20, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const ConventionalFaultSimulator fs(c);
  for (const Fault& f : collapsed_fault_list(c)) {
    if (!fs.analyze(t, good, f).detected) continue;
    const OracleVerdict o = restricted_mot_oracle(c, t, good, f);
    ASSERT_TRUE(o.computable);
    EXPECT_TRUE(o.detected) << fault_name(c, f);
  }
}

// ---------------------------------------------- parallel == serial ----

struct ParCase {
  std::uint64_t seed;
  std::size_t length;
  double x_prob;
};

class ParallelEquivalence : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelEquivalence, MatchesSerialOnGeneratedCircuits) {
  const ParCase pc = GetParam();
  circuits::GeneratorParams p;
  p.name = "par";
  p.seed = pc.seed;
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 60;
  p.uninit_fraction = 0.3;
  const Circuit c = circuits::generate(p);
  Rng rng(pc.seed * 13 + 7);
  const TestSequence t =
      pc.x_prob > 0 ? random_sequence_with_x(5, pc.length, pc.x_prob, rng)
                    : random_sequence(5, pc.length, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const auto faults = collapsed_fault_list(c);

  const ConventionalFaultSimulator serial(c);
  const ParallelFaultSimulator parallel(c);
  const auto so = serial.run(t, good, faults);
  const auto po = parallel.run(t, good, faults);
  ASSERT_EQ(so.size(), po.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(so[k].detected, po[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(so[k].passes_c, po[k].passes_c) << fault_name(c, faults[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ParallelEquivalence,
    ::testing::Values(ParCase{1, 12, 0.0}, ParCase{2, 20, 0.0},
                      ParCase{3, 8, 0.0}, ParCase{4, 16, 0.25},
                      ParCase{5, 10, 0.5}, ParCase{6, 24, 0.0},
                      ParCase{7, 12, 0.1}, ParCase{8, 18, 0.0}));

TEST(ParallelEquivalence, MatchesSerialOnS27) {
  const Circuit c = circuits::make_s27();
  Rng rng(21);
  const TestSequence t = random_sequence(4, 30, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const auto faults = enumerate_faults(c);  // uncollapsed: more coverage
  const auto so = ConventionalFaultSimulator(c).run(t, good, faults);
  const auto po = ParallelFaultSimulator(c).run(t, good, faults);
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(so[k].detected, po[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(so[k].passes_c, po[k].passes_c) << fault_name(c, faults[k]);
  }
}

TEST(ParallelEquivalence, HandlesMoreThanOneGroup) {
  // >63 faults forces multiple parallel groups.
  circuits::GeneratorParams p;
  p.name = "groups";
  p.seed = 42;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_dffs = 8;
  p.num_comb_gates = 120;
  const Circuit c = circuits::generate(p);
  const auto faults = collapsed_fault_list(c);
  ASSERT_GT(faults.size(), 130u);
  Rng rng(17);
  const TestSequence t = random_sequence(6, 10, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const auto so = ConventionalFaultSimulator(c).run(t, good, faults);
  const auto po = ParallelFaultSimulator(c).run(t, good, faults);
  std::size_t serial_detected = 0;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    serial_detected += so[k].detected;
    ASSERT_EQ(so[k].detected, po[k].detected) << k;
  }
  EXPECT_GT(serial_detected, 0u);
}

// ------------------------------------------ divergence overlay edges ----
//
// The parallel simulator evaluates only the gates where a group can differ
// from the fault-free frame; these cases pin the places where that skipping
// could go wrong against the serial reference.

// Returns the serial outcomes.
std::vector<ConvOutcome> expect_matches_serial(const Circuit& c,
                                               const TestSequence& t,
                                               const SeqTrace& good,
                                               const std::vector<Fault>& faults,
                                               std::size_t threads = 1) {
  const auto so = ConventionalFaultSimulator(c).run(t, good, faults);
  const auto po = ParallelFaultSimulator(c).run(t, good, faults, threads);
  EXPECT_EQ(so.size(), po.size());
  for (std::size_t k = 0; k < std::min(so.size(), po.size()); ++k) {
    EXPECT_EQ(so[k].detected, po[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(so[k].passes_c, po[k].passes_c) << fault_name(c, faults[k]);
  }
  return so;
}

// A generated circuit extended with constant gates that feed logic, an
// output and a flip-flop, so constant stems and the pins they drive carry
// faults too.
Circuit generated_with_constants(std::uint64_t seed) {
  circuits::GeneratorParams p;
  p.name = "consts";
  p.seed = seed;
  p.num_inputs = 5;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 60;
  p.uninit_fraction = 0.3;
  const Circuit base = circuits::generate(p);
  const std::string pi = base.gate(base.inputs()[0]).name;
  const std::string q = base.gate(base.dffs()[0]).name;
  const std::string z = base.gate(base.outputs()[0]).name;
  const std::string text = write_bench(base) +
                           "OUTPUT(ka)\n"
                           "OUTPUT(kz)\n"
                           "k1 = CONST1()\n"
                           "k0 = CONST0()\n"
                           "ka = AND(k1, " + pi + ")\n"
                           "ko = OR(k0, " + q + ")\n"
                           "kx = NAND(ka, ko)\n"
                           "kq = DFF(kx)\n"
                           "kz = XOR(kq, k0, kx)\n";
  BenchParseResult r = parse_bench(text, "consts");
  if (!r.ok) ADD_FAILURE() << r.error;
  return std::move(r.circuit);
}

TEST(ParallelOverlay, UncollapsedFaultsWithConstantGates) {
  for (std::uint64_t seed : {3u, 8u, 13u}) {
    const Circuit c = generated_with_constants(seed);
    const auto faults = enumerate_faults(c);  // every stem and every pin
    bool pi_stem = false, q_stem = false, d_pin = false, const_site = false;
    for (const Fault& f : faults) {
      const GateType t = c.gate(f.gate).type;
      pi_stem |= t == GateType::Input;
      q_stem |= t == GateType::Dff && f.pin == kOutputPin;
      d_pin |= t == GateType::Dff && f.pin != kOutputPin;
      const_site |= t == GateType::Const0 || t == GateType::Const1;
    }
    ASSERT_TRUE(pi_stem && q_stem && d_pin && const_site);
    Rng rng(seed + 100);
    const TestSequence t = random_sequence(c.num_inputs(), 24, rng);
    const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
    const auto serial = expect_matches_serial(c, t, good, faults);
    // The constant faults must matter, or skipping them would go unseen.
    std::size_t const_detected = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const GateType gt = c.gate(faults[k].gate).type;
      const bool is_const = gt == GateType::Const0 || gt == GateType::Const1;
      const_detected += is_const && serial[k].detected;
    }
    EXPECT_GT(const_detected, 0u);
  }
}

TEST(ParallelOverlay, SequencesWithUnknownInputs) {
  const Circuit c = generated_with_constants(5);
  const auto faults = enumerate_faults(c);
  for (double x_prob : {0.1, 0.4, 0.9}) {
    Rng rng(static_cast<std::uint64_t>(x_prob * 100) + 7);
    const TestSequence t =
        random_sequence_with_x(c.num_inputs(), 20, x_prob, rng);
    const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
    expect_matches_serial(c, t, good, faults);
  }
}

TEST(ParallelOverlay, PartialLastGroupAndEarlyDrop) {
  const Circuit c = circuits::make_s27();
  const auto all = enumerate_faults(c);
  Rng rng(4);
  const TestSequence t = random_sequence(4, 40, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  const auto serial = ConventionalFaultSimulator(c).run(t, good, all);
  // A group of detected faults only: drop-on-detect ends it before the
  // last frame. Repeat them past one group so the second group is partial.
  std::vector<Fault> detected;
  for (std::size_t k = 0; k < all.size(); ++k) {
    if (serial[k].detected) detected.push_back(all[k]);
  }
  ASSERT_FALSE(detected.empty());
  std::vector<Fault> faults;
  while (faults.size() < 63 + 5) {
    faults.push_back(detected[faults.size() % detected.size()]);
  }
  expect_matches_serial(c, t, good, faults);
  // Detected faults followed by a partial group that mixes in the rest.
  faults.insert(faults.end(), all.begin(), all.end());
  ASSERT_NE(faults.size() % 63, 0u);
  expect_matches_serial(c, t, good, faults);
}

TEST(ParallelOverlay, TraceWithAndWithoutLinesAgree) {
  const Circuit c = generated_with_constants(21);
  const auto faults = enumerate_faults(c);
  Rng rng(22);
  const TestSequence t = random_sequence_with_x(c.num_inputs(), 30, 0.2, rng);
  const SequentialSimulator sim(c);
  const SeqTrace bare = sim.run_fault_free(t);
  const SeqTrace lined = sim.run_fault_free(t, /*keep_lines=*/true);
  ASSERT_TRUE(bare.lines.empty());
  const ParallelFaultSimulator pfs(c);
  const auto a = pfs.run(t, bare, faults);
  const auto b = pfs.run(t, lined, faults);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(a[k].detected, b[k].detected) << fault_name(c, faults[k]);
    EXPECT_EQ(a[k].passes_c, b[k].passes_c) << fault_name(c, faults[k]);
  }
}

TEST(ParallelOverlay, S5378StandinSliceAtOneAndFourThreads) {
  const Circuit c = circuits::build_benchmark("s5378");
  const auto collapsed = collapsed_fault_list(c);
  std::vector<Fault> faults;
  for (std::size_t k = 0; k < collapsed.size(); k += 16) {
    faults.push_back(collapsed[k]);
  }
  Rng rng(5378);
  const TestSequence t = random_sequence(c.num_inputs(), 40, rng);
  const SeqTrace good =
      SequentialSimulator(c).run_fault_free(t, /*keep_lines=*/true);
  expect_matches_serial(c, t, good, faults, 1);
  expect_matches_serial(c, t, good, faults, 4);
}

// ----------------------------------------------- incremental session ----

class SessionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionEquivalence, SegmentedApplyMatchesOneShotSimulation) {
  circuits::GeneratorParams p;
  p.name = "sess";
  p.seed = GetParam();
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_dffs = 6;
  p.num_comb_gates = 50;
  p.uninit_fraction = 0.3;
  const Circuit c = circuits::generate(p);
  const auto faults = collapsed_fault_list(c);
  Rng rng(GetParam() * 5 + 2);
  const TestSequence full = random_sequence(4, 21, rng);

  // Reference: one-shot parallel simulation.
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(full);
  const auto ref = ParallelFaultSimulator(c).run(full, good, faults);

  // Session: apply in unequal segments (7 + 1 + 13).
  ParallelFaultSession session(c, faults);
  TestSequence seg1(4, 0), seg2(4, 0), seg3(4, 0);
  for (std::size_t u = 0; u < full.length(); ++u) {
    TestSequence& dst = u < 7 ? seg1 : (u < 8 ? seg2 : seg3);
    dst.append(full.pattern(u));
  }
  session.apply(seg1);
  session.apply(seg2);
  session.apply(seg3);
  EXPECT_EQ(session.length(), full.length());
  std::size_t ref_detected = 0;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    ref_detected += ref[k].detected;
    EXPECT_EQ(session.is_detected(k), ref[k].detected) << fault_name(c, faults[k]);
  }
  EXPECT_EQ(session.detected_count(), ref_detected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Session, CloneForksTheState) {
  const Circuit c = circuits::make_s27();
  const auto faults = collapsed_fault_list(c);
  Rng rng(9);
  ParallelFaultSession a(c, faults);
  a.apply(random_sequence(4, 10, rng));
  ParallelFaultSession b = a;
  const std::size_t before = a.detected_count();
  b.apply(random_sequence(4, 10, rng));
  EXPECT_EQ(a.detected_count(), before);       // original untouched
  EXPECT_GE(b.detected_count(), before);       // detections only grow
}

TEST(Parallel, EmptyFaultListIsFine) {
  const Circuit c = circuits::make_s27();
  Rng rng(1);
  const TestSequence t = random_sequence(4, 4, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  EXPECT_TRUE(ParallelFaultSimulator(c).run(t, good, {}).empty());
}

}  // namespace
}  // namespace motsim
