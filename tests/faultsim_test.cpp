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

// Latch and output shapes the group step must treat as special: a flip-flop
// that is also a primary output, D pins driven by a primary input and by
// another flip-flop (a shift register), one gate driving two D pins, and a
// five-input gate whose pin faults share a group.
Circuit latch_shapes() {
  BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
      "OUTPUT(q1)\nOUTPUT(q2)\nOUTPUT(z)\nOUTPUT(y)\n"
      "q1 = DFF(g2)\n"
      "q2 = DFF(a)\n"
      "q3 = DFF(q2)\n"
      "q4 = DFF(g1)\n"
      "q5 = DFF(g1)\n"
      "g1 = NAND(b, q3, q5)\n"
      "g2 = AND(a, b, c, d, q4)\n"
      "z = XOR(g2, q1, q3)\n"
      "y = OR(g1, q5, d)\n",
      "latch_shapes");
  if (!r.ok) ADD_FAILURE() << r.error;
  return std::move(r.circuit);
}

// The session's detections over `t` applied in three segments.
std::vector<bool> session_detections(const Circuit& c, const TestSequence& t,
                                     const std::vector<Fault>& faults) {
  ParallelFaultSession session(c, faults);
  const std::size_t cut1 = t.length() / 3, cut2 = t.length() / 3 + 1;
  for (auto [b, e] : {std::pair{std::size_t{0}, cut1}, std::pair{cut1, cut2},
                      std::pair{cut2, t.length()}}) {
    TestSequence seg(t.num_inputs(), 0);
    for (std::size_t u = b; u < e; ++u) seg.append(t.pattern(u));
    session.apply(seg);
  }
  std::vector<bool> out(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) out[k] = session.is_detected(k);
  return out;
}

TEST(ParallelOverlay, LatchShapesWithUncollapsedFaults) {
  const Circuit c = latch_shapes();
  const auto faults = enumerate_faults(c);  // D-pin and Q-stem faults too
  // Several pin faults of the five-input gate share the first group.
  const GateId g2 = c.find("g2");
  std::size_t g2_pins = 0;
  for (std::size_t k = 0; k < std::min<std::size_t>(63, faults.size()); ++k) {
    g2_pins += faults[k].gate == g2 && faults[k].pin != kOutputPin;
  }
  ASSERT_GE(g2_pins, 2u);
  for (double x_prob : {0.0, 0.2}) {
    Rng rng(static_cast<std::uint64_t>(x_prob * 10) + 31);
    const TestSequence t =
        random_sequence_with_x(c.num_inputs(), 40, x_prob, rng);
    const SeqTrace good =
        SequentialSimulator(c).run_fault_free(t, /*keep_lines=*/true);
    const auto serial = expect_matches_serial(c, t, good, faults, 1);
    expect_matches_serial(c, t, good, faults, 4);
    const std::vector<bool> session = session_detections(c, t, faults);
    std::size_t detected = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
      detected += serial[k].detected;
      EXPECT_EQ(session[k], serial[k].detected) << fault_name(c, faults[k]);
    }
    EXPECT_GT(detected, 0u);
  }
}

TEST(ParallelOverlay, FaultFreeTraceFromASpecifiedInitialState) {
  // The faulty machines start all-X whatever the fault-free start: every
  // flip-flop the fault-free trace specifies differs in frame 0.
  const Circuit c = latch_shapes();
  const auto faults = enumerate_faults(c);
  Rng rng(8);
  const TestSequence t = random_sequence(c.num_inputs(), 20, rng);
  const std::vector<Val> init = {Val::One, Val::Zero, Val::X, Val::One,
                                 Val::Zero};
  ASSERT_EQ(init.size(), c.num_dffs());
  const SeqTrace good = SequentialSimulator(c).run(t, FaultView(c), false, init);
  expect_matches_serial(c, t, good, faults, 1);
  expect_matches_serial(c, t, good, faults, 4);
}

// One flip-flop loaded from a primary input and read by an OR with an
// unknown input. Its stem stuck at 0 leaves that machine with no X state in
// any frame, while the fault-free flip-flop is X in frame 0; once the
// fault-free flip-flop is 1, the faulty output is X where the fault-free one
// is 1. Condition (C) must then fail: the X output never follows an X state.
Circuit lone_flip_flop() {
  BenchParseResult r = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
      "q = DFF(b)\n"
      "z = OR(a, q)\n",
      "lone_ff");
  if (!r.ok) ADD_FAILURE() << r.error;
  return std::move(r.circuit);
}

TEST(ParallelOverlay, LoneFlipFlopStuckHasNoUnspecifiedState) {
  const Circuit c = lone_flip_flop();
  TestSequence t;
  ASSERT_TRUE(TestSequence::from_strings({"x1", "x1", "x0", "x1", "x1"}, t));
  const SeqTrace good =
      SequentialSimulator(c).run_fault_free(t, /*keep_lines=*/true);
  const auto faults = enumerate_faults(c);
  const auto serial = expect_matches_serial(c, t, good, faults);
  const Fault q_sa0{c.find("q"), kOutputPin, Val::Zero};
  const auto it = std::find_if(faults.begin(), faults.end(), [&](const Fault& f) {
    return f.gate == q_sa0.gate && f.pin == q_sa0.pin && f.stuck == q_sa0.stuck;
  });
  ASSERT_NE(it, faults.end());
  const ConvOutcome& out = serial[it - faults.begin()];
  EXPECT_FALSE(out.detected);
  EXPECT_FALSE(out.passes_c);
}

// Steps every group of `faults` through GroupScratch by hand and checks the
// step's contract frame by frame against each fault's serial trace: the
// sparse state lists each flip-flop at most once and only where it differs
// from the fault-free state, its expansion is every slot's serial state
// (spare slots carry the fault-free machine), and the frame masks are the
// serial X states, conflicts and X outputs of every slot. With `drop`, each
// newly detected slot is dropped after its frame, as run() does, and from
// the next frame on it must carry the fault-free machine.
void expect_group_step_matches_serial(const Circuit& c, const TestSequence& t,
                                      bool drop = false) {
  const auto faults = enumerate_faults(c);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t, /*keep_lines=*/true);
  const std::size_t L = t.length();
  GroupScratch scratch(c);
  GroupState state;
  for (std::size_t base = 0; base < faults.size(); base += 63) {
    const std::size_t n = std::min<std::size_t>(63, faults.size() - base);
    std::vector<const SeqTrace*> slot(64, &good);
    std::vector<SeqTrace> faulty;
    faulty.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      faulty.push_back(sim.run(t, FaultView(c, faults[base + s])));
      slot[s] = &faulty.back();
    }
    scratch.load(faults.data() + base, n);
    scratch.initial_state(good.states[0].data(), state);
    std::uint64_t live = (1ull << n) - 1;
    for (std::size_t u = 0;; ++u) {
      std::vector<PVal> dense(c.num_dffs());
      std::vector<char> listed(c.num_dffs(), 0);
      for (const StateEntry& e : state) {
        ASSERT_LT(e.dff, c.num_dffs());
        ASSERT_FALSE(listed[e.dff]) << "flip-flop listed twice at u=" << u;
        listed[e.dff] = 1;
        EXPECT_NE(e.value, pv_splat(good.states[u][e.dff])) << u;
        dense[e.dff] = e.value;
      }
      for (std::size_t k = 0; k < c.num_dffs(); ++k) {
        if (!listed[k]) dense[k] = pv_splat(good.states[u][k]);
        for (unsigned s = 0; s < 64; ++s) {
          ASSERT_EQ(pv_get(dense[k], s), slot[s]->states[u][k])
              << "u=" << u << " flip-flop " << k << " slot " << s;
        }
      }
      if (u == L) break;
      std::size_t x_states = 0;
      for (GateId q : c.dffs()) x_states += good.lines[u][q] == Val::X;
      const GroupScratch::FrameMasks m =
          scratch.step(good.lines[u].data(), x_states, state);
      for (unsigned s = 0; s < 64; ++s) {
        const SeqTrace& f = *slot[s];
        bool x_state = false, detected = false, x_output = false;
        for (Val v : f.states[u]) x_state |= v == Val::X;
        for (std::size_t o = 0; o < c.num_outputs(); ++o) {
          detected |= conflicts(good.outputs[u][o], f.outputs[u][o]);
          x_output |= is_specified(good.outputs[u][o]) &&
                      !is_specified(f.outputs[u][o]);
        }
        EXPECT_EQ((m.x_state >> s) & 1, x_state) << "u=" << u << " s=" << s;
        EXPECT_EQ((m.detected >> s) & 1, detected) << "u=" << u << " s=" << s;
        EXPECT_EQ((m.x_output >> s) & 1, x_output) << "u=" << u << " s=" << s;
      }
      const std::uint64_t newly = m.detected & live;
      if (!drop || newly == 0) continue;
      live &= ~newly;
      scratch.load(faults.data() + base, n, live);
      scratch.heal(newly, good.lines[u].data(), state);
      for (unsigned s = 0; s < n; ++s) {
        if ((newly >> s) & 1) slot[s] = &good;
      }
    }
  }
}

TEST(GroupStep, SparseStateAndMasksMatchSerialTraces) {
  TestSequence lone;
  ASSERT_TRUE(
      TestSequence::from_strings({"x1", "x1", "x0", "x1", "01", "x0"}, lone));
  expect_group_step_matches_serial(lone_flip_flop(), lone);
  const Circuit shapes = latch_shapes();
  for (double x_prob : {0.0, 0.3}) {
    Rng rng(static_cast<std::uint64_t>(x_prob * 10) + 41);
    expect_group_step_matches_serial(
        shapes, random_sequence_with_x(shapes.num_inputs(), 24, x_prob, rng));
  }
  const Circuit consts = generated_with_constants(9);
  Rng rng(90);
  expect_group_step_matches_serial(
      consts, random_sequence_with_x(consts.num_inputs(), 16, 0.2, rng));
}

// ------------------------------------------------------ fault dropping ----
//
// A detected fault is dropped from its group: its slot loses its force
// masks and takes the fault-free state. These cases pin dropping against
// the serial reference on a stimulus that detects most faults early.

// The frame at which `f` first conflicts with the fault-free outputs, or
// t.length() when it never does.
std::size_t first_detection(const Circuit& c, const TestSequence& t,
                            const SeqTrace& good, const Fault& f) {
  const SeqTrace faulty = SequentialSimulator(c).run(t, FaultView(c, f));
  for (std::size_t u = 0; u < t.length(); ++u) {
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      if (conflicts(good.outputs[u][o], faulty.outputs[u][o])) return u;
    }
  }
  return t.length();
}

// A generated circuit with many outputs and no uninitializable flip-flop,
// plus a flip-flop loaded from a primary input that has other readers, so
// that flip-flop carries D-pin faults beside its Q-stem faults.
Circuit observable_generated() {
  circuits::GeneratorParams p;
  p.name = "drop";
  p.seed = 12;
  p.num_inputs = 5;
  p.num_outputs = 6;
  p.num_dffs = 5;
  p.num_comb_gates = 40;
  p.uninit_fraction = 0.0;
  const Circuit base = circuits::generate(p);
  const std::string a = base.gate(base.inputs()[0]).name;
  const std::string b = base.gate(base.inputs()[1]).name;
  BenchParseResult r = parse_bench(write_bench(base) +
                                       "OUTPUT(dz)\n"
                                       "dq = DFF(" + a + ")\n"
                                       "dz = XOR(dq, " + b + ")\n",
                                   "drop");
  if (!r.ok) ADD_FAILURE() << r.error;
  return std::move(r.circuit);
}

TEST(FaultDropping, MatchesSerialWhenMostFaultsAreDetectedEarly) {
  const Circuit c = observable_generated();
  const SequentialSimulator sim(c);
  // Cut a random sequence after the last frame that first detects a fault,
  // so some fault is detected in the last frame.
  Rng rng(112);
  TestSequence t = random_sequence(c.num_inputs(), 30, rng);
  const auto all = enumerate_faults(c);  // D-pin and Q-stem faults too
  std::size_t last = 0;
  {
    const SeqTrace good = sim.run_fault_free(t);
    for (const Fault& f : all) {
      const std::size_t u = first_detection(c, t, good, f);
      if (u < t.length()) last = std::max(last, u);
    }
  }
  TestSequence cut(t.num_inputs(), 0);
  for (std::size_t u = 0; u <= last; ++u) cut.append(t.pattern(u));
  t = cut;
  const SeqTrace good = sim.run_fault_free(t, /*keep_lines=*/true);
  const auto serial_all = ConventionalFaultSimulator(c).run(t, good, all);

  // Group 0: the first 63 detected faults, so it is fully detected; the
  // rest keep their order and form partly detected groups.
  std::vector<Fault> faults, rest;
  for (std::size_t k = 0; k < all.size(); ++k) {
    (serial_all[k].detected && faults.size() < 63 ? faults : rest)
        .push_back(all[k]);
  }
  ASSERT_EQ(faults.size(), 63u);
  faults.insert(faults.end(), rest.begin(), rest.end());
  ASSERT_GT(faults.size(), 126u);

  const auto serial = expect_matches_serial(c, t, good, faults, 1);
  expect_matches_serial(c, t, good, faults, 4);
  const std::vector<bool> session = session_detections(c, t, faults);
  std::vector<std::size_t> when(faults.size());
  std::size_t early = 0;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    EXPECT_EQ(session[k], serial[k].detected) << fault_name(c, faults[k]);
    when[k] = first_detection(c, t, good, faults[k]);
    early += when[k] < t.length() / 4;
  }

  // The stimulus covers the shapes dropping must get right.
  EXPECT_GT(2 * early, faults.size()) << "most faults are detected early";
  EXPECT_TRUE(std::ranges::any_of(when,
                                  [&](std::size_t u) { return u == last; }));
  const auto group_detected = [&](std::size_t g) {
    std::size_t n = 0;
    for (std::size_t k = g * 63; k < std::min(faults.size(), g * 63 + 63); ++k) {
      n += serial[k].detected;
    }
    return n;
  };
  EXPECT_EQ(group_detected(0), 63u);
  EXPECT_GT(group_detected(1), 0u);
  EXPECT_LT(group_detected(1), 63u);
  const auto detected_fault = [&](auto pred) {
    for (std::size_t k = 0; k < faults.size(); ++k) {
      if (serial[k].detected && pred(faults[k])) return true;
    }
    return false;
  };
  EXPECT_TRUE(detected_fault([&](const Fault& f) {
    return f.pin == kOutputPin && c.gate(f.gate).type == GateType::Input;
  })) << "a primary-input stem fault is dropped";
  bool dff_pair = false;
  for (GateId q : c.dffs()) {
    dff_pair |= detected_fault([&](const Fault& f) {
                  return f.gate == q && f.pin == kOutputPin;
                }) &&
                detected_fault([&](const Fault& f) {
                  return f.gate == q && f.pin != kOutputPin;
                });
  }
  EXPECT_TRUE(dff_pair) << "one flip-flop's D-pin and Q-stem faults dropped";
  // A detected pin fault sharing its gate, within its group, with a fault
  // detected later and with one never detected.
  bool later = false, never = false;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (!serial[k].detected || faults[k].pin == kOutputPin) continue;
    const std::size_t g0 = k / 63 * 63;
    for (std::size_t j = g0; j < std::min(faults.size(), g0 + 63); ++j) {
      if (faults[j].gate != faults[k].gate || j == k) continue;
      later |= serial[j].detected && when[j] > when[k];
      never |= !serial[j].detected;
    }
  }
  EXPECT_TRUE(later);
  EXPECT_TRUE(never);
}

TEST(FaultDropping, GroupStepCarriesDroppedSlotsFaultFree) {
  Rng rng(112);
  const Circuit gen = observable_generated();
  expect_group_step_matches_serial(
      gen, random_sequence(gen.num_inputs(), 24, rng), /*drop=*/true);
  const Circuit shapes = latch_shapes();
  for (double x_prob : {0.0, 0.3}) {
    Rng r(static_cast<std::uint64_t>(x_prob * 10) + 51);
    expect_group_step_matches_serial(
        shapes, random_sequence_with_x(shapes.num_inputs(), 24, x_prob, r),
        /*drop=*/true);
  }
  TestSequence lone;
  ASSERT_TRUE(
      TestSequence::from_strings({"x1", "01", "x0", "11", "01", "x0"}, lone));
  expect_group_step_matches_serial(lone_flip_flop(), lone, /*drop=*/true);
}

TEST(ParallelStats, WorkCountsEqualAtOneAndFourThreads) {
  const Circuit c = circuits::build_benchmark("s5378");
  const auto collapsed = collapsed_fault_list(c);
  std::vector<Fault> faults;
  for (std::size_t k = 0; k < collapsed.size(); k += 8) {
    faults.push_back(collapsed[k]);
  }
  Rng rng(77);
  const TestSequence t = random_sequence(c.num_inputs(), 30, rng);
  const SeqTrace good =
      SequentialSimulator(c).run_fault_free(t, /*keep_lines=*/true);
  const ParallelFaultSimulator pfs(c);
  PrepassStats one, four;
  pfs.run(t, good, faults, 1, &one);
  pfs.run(t, good, faults, 4, &four);
  const std::uint64_t n_groups = (faults.size() + 62) / 63;
  EXPECT_GE(one.group_frames, n_groups);
  EXPECT_LE(one.group_frames, n_groups * t.length());
  EXPECT_GT(one.gates_evaluated, 0u);
  EXPECT_LE(one.state_entries, one.group_frames * c.num_dffs());
  EXPECT_LE(one.latch_entries, one.group_frames * c.num_dffs());
  EXPECT_EQ(one.group_frames, four.group_frames);
  EXPECT_EQ(one.gates_evaluated, four.gates_evaluated);
  EXPECT_EQ(one.state_entries, four.state_entries);
  EXPECT_EQ(one.latch_entries, four.latch_entries);
  // A second run overwrites the counts instead of adding to them.
  pfs.run(t, good, faults, 1, &one);
  EXPECT_EQ(one.gates_evaluated, four.gates_evaluated);
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

// ------------------------------------------- malformed reference trace ----
//
// The group step indexes the reference frames unchecked, so run() rejects a
// trace of the wrong shape in every build instead of reading out of bounds.

struct RejectCase {
  Circuit c = circuits::make_s27();
  TestSequence t;
  SeqTrace bare, lined;
  std::vector<Fault> faults = enumerate_faults(c);

  RejectCase() {
    Rng rng(12);
    t = random_sequence(c.num_inputs(), 8, rng);
    const SequentialSimulator sim(c);
    bare = sim.run_fault_free(t);
    lined = sim.run_fault_free(t, /*keep_lines=*/true);
  }

  void expect_rejected(const TestSequence& test, const SeqTrace& trace) const {
    EXPECT_THROW(ParallelFaultSimulator(c).run(test, trace, faults),
                 std::invalid_argument);
    EXPECT_THROW(ParallelFaultSimulator(c).run(test, trace, faults, 4),
                 std::invalid_argument);
  }
};

TEST(ParallelRejects, TraceShorterThanTheTest) {
  const RejectCase r;
  SeqTrace shorter = r.lined;
  shorter.outputs.pop_back();
  shorter.states.pop_back();
  shorter.lines.pop_back();
  r.expect_rejected(r.t, shorter);
}

TEST(ParallelRejects, LineValuesMissingAFrame) {
  const RejectCase r;
  SeqTrace missing = r.lined;
  missing.lines.pop_back();
  r.expect_rejected(r.t, missing);
}

TEST(ParallelRejects, LineFrameNarrowerThanTheCircuit) {
  const RejectCase r;
  SeqTrace narrow = r.lined;
  narrow.lines[3].pop_back();
  r.expect_rejected(r.t, narrow);
}

TEST(ParallelRejects, BareTraceMissingAState) {
  const RejectCase r;
  SeqTrace few = r.bare;
  few.states.resize(r.t.length() - 1);
  r.expect_rejected(r.t, few);
  SeqTrace narrow = r.bare;
  narrow.states[2].pop_back();
  r.expect_rejected(r.t, narrow);
}

TEST(ParallelRejects, TestNarrowerThanTheInputs) {
  const RejectCase r;
  TestSequence narrow(r.c.num_inputs() - 1, 0);
  for (std::size_t u = 0; u < r.t.length(); ++u) {
    std::vector<Val> p = r.t.pattern(u);
    p.pop_back();
    narrow.append(p);
  }
  r.expect_rejected(narrow, r.bare);
}

TEST(ParallelRejects, NextStateThatIsNotTheLatchedValue) {
  const RejectCase r;
  const GateId q = r.c.dffs()[0];
  SeqTrace lined = r.lined;
  lined.lines[4][q] = lined.lines[4][q] == Val::One ? Val::Zero : Val::One;
  r.expect_rejected(r.t, lined);
  SeqTrace bare = r.bare;
  bare.states[4][0] = bare.states[4][0] == Val::One ? Val::Zero : Val::One;
  r.expect_rejected(r.t, bare);
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
