// Tests for the frame implication engine — including the paper's exact
// Figure 1-4 values on s27 and an exhaustive soundness property: every value
// the implicator derives holds in every concrete run consistent with the
// seed, conflicts happen only when no consistent run exists, and detections
// only when every consistent run conflicts with the fault-free output.
#include <gtest/gtest.h>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "mot/implicator.hpp"
#include "mot/packed_implicator.hpp"
#include "netlist/builder.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

FrameVals s27_frame_1011(const Circuit& c) {
  FrameVals vals(c.num_gates(), Val::X);
  const Val pattern[] = {Val::One, Val::Zero, Val::One, Val::One};
  for (std::size_t k = 0; k < 4; ++k) vals[c.inputs()[k]] = pattern[k];
  SequentialSimulator(c).eval_frame(vals, FaultView(c));
  return vals;
}

std::size_t specified_nsv_po(const Circuit& c, const FaultView& fv,
                             const FrameVals& vals) {
  std::size_t n = 0;
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    n += is_specified(fv.next_state(j, vals));
  }
  for (GateId po : c.outputs()) n += is_specified(vals[po]);
  return n;
}

// ------------------------------------------------ paper figures on s27 ----

TEST(Implicator, Figure1ConventionalSimulationAllUnspecified) {
  const Circuit c = circuits::make_s27();
  const FrameVals vals = s27_frame_1011(c);
  EXPECT_EQ(specified_nsv_po(c, FaultView(c), vals), 0u);
}

class S27Expansion : public ::testing::TestWithParam<ImplMode> {};

TEST_P(S27Expansion, Figure2ExpansionCounts) {
  const Circuit c = circuits::make_s27();
  const FaultView fv(c);
  const FrameVals base = s27_frame_1011(c);
  FrameImplicator impl(c);

  // Expected specified NSV+PO counts per expanded variable (both values
  // summed): G5 -> 3, G6 -> 0, G7 -> 5 (the paper's Figure 2 discussion).
  const std::size_t expected[] = {3, 0, 5};
  for (std::size_t j = 0; j < 3; ++j) {
    std::size_t total = 0;
    for (Val v : {Val::Zero, Val::One}) {
      FrameVals vals = base;
      const std::pair<GateId, Val> seed{c.dffs()[j], v};
      const ImplOutcome out = impl.run(vals, fv, {}, {&seed, 1}, GetParam());
      EXPECT_EQ(out, ImplOutcome::Ok);
      total += specified_nsv_po(c, fv, vals);
      impl.undo(vals);
      EXPECT_EQ(vals, base);  // undo restores exactly
    }
    EXPECT_EQ(total, expected[j]) << "state variable index " << j;
  }
}

TEST_P(S27Expansion, Figure3BackwardImplicationOfG6) {
  const Circuit c = circuits::make_s27();
  const FaultView fv(c);
  const FrameVals base = s27_frame_1011(c);
  FrameImplicator impl(c);
  // Setting y(G6)=a at time 1 implies Y(G6)=a at time 0, i.e. line G11 = a.
  const GateId g11 = c.dff_input(1);
  std::size_t total = 0;
  for (Val v : {Val::Zero, Val::One}) {
    FrameVals vals = base;
    const std::pair<GateId, Val> seed{g11, v};
    EXPECT_EQ(impl.run(vals, fv, {}, {&seed, 1}, GetParam()), ImplOutcome::Ok);
    total += specified_nsv_po(c, fv, vals);
    if (v == Val::One) {
      // The paper's chain: G11=1 forces G5=0, G9=0, G15=1, G12=1, G7=0,
      // G13=0, G10=0, G17=0.
      EXPECT_EQ(vals[c.find("G5")], Val::Zero);
      EXPECT_EQ(vals[c.find("G12")], Val::One);
      EXPECT_EQ(vals[c.find("G7")], Val::Zero);
      EXPECT_EQ(vals[c.find("G13")], Val::Zero);
      EXPECT_EQ(vals[c.find("G10")], Val::Zero);
      EXPECT_EQ(vals[c.find("G17")], Val::Zero);
    }
    impl.undo(vals);
  }
  // Seven specified values at time 0 — more than any time-0 expansion.
  EXPECT_EQ(total, 7u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, S27Expansion,
                         ::testing::Values(ImplMode::TwoPass, ImplMode::Fixpoint));

TEST(Implicator, Figure4Conflict) {
  const Circuit c = circuits::make_fig4_conflict();
  const FaultView fv(c);
  FrameVals base(c.num_gates(), Val::X);
  base[c.inputs()[0]] = Val::Zero;
  SequentialSimulator(c).eval_frame(base, fv);
  EXPECT_EQ(base[c.find("L3")], Val::Zero);
  EXPECT_EQ(base[c.find("L4")], Val::Zero);

  FrameImplicator impl(c);
  for (ImplMode mode : {ImplMode::TwoPass, ImplMode::Fixpoint}) {
    FrameVals vals = base;
    std::pair<GateId, Val> seed{c.find("L11"), Val::One};
    EXPECT_EQ(impl.run(vals, fv, {}, {&seed, 1}, mode), ImplOutcome::Conflict);
    impl.undo(vals);
    seed.second = Val::Zero;
    EXPECT_EQ(impl.run(vals, fv, {}, {&seed, 1}, mode), ImplOutcome::Ok);
    impl.undo(vals);
  }
}

// ------------------------------------------------------- engine basics ----

TEST(Implicator, SeedConflictingWithFrameIsImmediate) {
  const Circuit c = circuits::make_s27();
  FrameVals vals = s27_frame_1011(c);
  FrameImplicator impl(c);
  // G14 = NOT(G0) = 0 in this frame; seeding G14 = 1 contradicts.
  const std::pair<GateId, Val> seed{c.find("G14"), Val::One};
  EXPECT_EQ(impl.run(vals, FaultView(c), {}, {&seed, 1}, ImplMode::Fixpoint),
            ImplOutcome::Conflict);
  impl.undo(vals);
}

TEST(Implicator, DetectionAgainstGoodOutputs) {
  const Circuit c = circuits::make_s27();
  FrameVals vals = s27_frame_1011(c);
  FrameImplicator impl(c);
  // Seeding G11 = 1 implies G17 = 0; a fault-free output of 1 conflicts.
  const std::vector<Val> good_out = {Val::One};
  const std::pair<GateId, Val> seed{c.find("G11"), Val::One};
  EXPECT_EQ(impl.run(vals, FaultView(c), good_out, {&seed, 1}, ImplMode::Fixpoint),
            ImplOutcome::Detected);
  impl.undo(vals);
  // With a matching fault-free value there is no detection.
  const std::vector<Val> good_out2 = {Val::Zero};
  EXPECT_EQ(impl.run(vals, FaultView(c), good_out2, {&seed, 1}, ImplMode::Fixpoint),
            ImplOutcome::Ok);
  impl.undo(vals);
}

TEST(Implicator, ChangesListsSeedsAndImplications) {
  const Circuit c = circuits::make_fig4_conflict();
  FrameVals vals(c.num_gates(), Val::X);
  vals[c.inputs()[0]] = Val::Zero;
  SequentialSimulator(c).eval_frame(vals, FaultView(c));
  FrameImplicator impl(c);
  const std::pair<GateId, Val> seed{c.find("L11"), Val::Zero};
  ASSERT_EQ(impl.run(vals, FaultView(c), {}, {&seed, 1}, ImplMode::Fixpoint),
            ImplOutcome::Ok);
  bool seed_listed = false;
  for (const auto& [line, v] : impl.changes()) {
    EXPECT_EQ(vals[line], v);
    if (line == c.find("L11")) seed_listed = v == Val::Zero;
  }
  EXPECT_TRUE(seed_listed);
  impl.undo(vals);
}

// ------------------------------------------ packed frame-lane engine ----

TEST(PackedImplicator, LanesBoundToDifferentFramesEachEqualASingleFrameProbe) {
  // 64 lanes bound to the frames of a faulty s27 trace in a scrambled order
  // with repeats. For every line seeded to either value, in both modes and
  // on all lanes or every other lane, each probed lane's outcome — and, when
  // Ok, every implied line value — equals a serial probe of its own frame
  // against that frame's fault-free outputs.
  const Circuit c = circuits::make_s27();
  Rng rng(27);
  const TestSequence t = random_sequence(c.num_inputs(), 9, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  const std::vector<Fault> faults = collapsed_fault_list(c);
  std::vector<std::uint32_t> frames(64);
  for (std::uint32_t l = 0; l < 64; ++l) frames[l] = (l * 5 + l / 9) % 9;

  std::size_t outcomes[3] = {0, 0, 0};
  for (const Fault& f : {faults[1], faults[faults.size() / 2]}) {
    const FaultView fv(c, f);
    SeqTrace faulty = sim.run(t, fv, /*keep_lines=*/true);
    PackedFrameImplicator packed(c);
    packed.bind(good, faulty, frames);
    FrameImplicator serial(c);
    for (const ImplMode mode : {ImplMode::TwoPass, ImplMode::Fixpoint}) {
      for (GateId g = 0; g < c.num_gates(); ++g) {
        for (const Val v : {Val::Zero, Val::One}) {
          for (const std::uint64_t lanes : {~0ull, 0x5555555555555555ull}) {
            const PackedFrameImplicator::Outcome out =
                packed.run(lanes, g, v, fv, mode);
            EXPECT_EQ((out.conflict | out.detected) & ~lanes, 0u);
            for (unsigned l = 0; l < 64; ++l) {
              if (((lanes >> l) & 1) == 0) continue;
              FrameVals vals = faulty.lines[frames[l]];
              const std::pair<GateId, Val> seed{g, v};
              const ImplOutcome want = serial.run(
                  vals, fv, good.outputs[frames[l]], {&seed, 1}, mode);
              const ImplOutcome got = (out.conflict >> l) & 1 ? ImplOutcome::Conflict
                                      : (out.detected >> l) & 1
                                          ? ImplOutcome::Detected
                                          : ImplOutcome::Ok;
              ASSERT_EQ(want, got) << c.gate(g).name << " lane " << l;
              ++outcomes[static_cast<int>(want)];
              if (want == ImplOutcome::Ok) {
                for (GateId x = 0; x < c.num_gates(); ++x) {
                  ASSERT_EQ(vals[x], pv_get(packed.packed_value(x), l))
                      << c.gate(g).name << " lane " << l << " line "
                      << c.gate(x).name;
                }
              }
              serial.undo(vals);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(outcomes[static_cast<int>(ImplOutcome::Ok)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(ImplOutcome::Conflict)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(ImplOutcome::Detected)], 0u);
}

TEST(PackedImplicator, LaneWhoseGoodOutputIsXNeverDetects) {
  // Three lanes on the same frame, where seeding G11 = v implies the output
  // G17 = NOT v, differing only in the fault-free output row (1, X, 0):
  // the lane whose fault-free value is opposite detects, the matching one
  // does not, and X — nothing to compare against — never does.
  const Circuit c = circuits::make_s27();
  SeqTrace faulty;
  faulty.lines.assign(3, s27_frame_1011(c));
  SeqTrace good;
  good.outputs = {{Val::One}, {Val::X}, {Val::Zero}};
  const std::uint32_t frames[] = {0, 1, 2};
  PackedFrameImplicator packed(c);
  packed.bind(good, faulty, frames);
  for (const ImplMode mode : {ImplMode::TwoPass, ImplMode::Fixpoint}) {
    for (const Val v : {Val::One, Val::Zero}) {
      const PackedFrameImplicator::Outcome out =
          packed.run(0b111, c.find("G11"), v, FaultView(c), mode);
      EXPECT_EQ(out.conflict, 0u);
      EXPECT_EQ(out.detected, v == Val::One ? 0b001u : 0b100u);
      EXPECT_EQ(pv_get(packed.packed_value(c.find("G17")), 1), v_not(v));
    }
  }
}

TEST(PackedImplicator, DetectionReadsTheBoundFrameAndEveryOutputPosition) {
  // z = AND(a, b) drives the first and third output positions, y = OR(a, b)
  // the second. Lane 0's frame already shows z = 1 against a fault-free 0,
  // so it detects even when the seed writes nothing (a = 1 holds in both
  // frames). In lane 1 the seed b = 1 implies z = 1, compared against X at
  // z's first position and 0 at its third. Every probe of every lane equals
  // a serial probe of its own frame.
  CircuitBuilder b("po_twice");
  const GateId a = b.add_input("a");
  const GateId in_b = b.add_input("b");
  const GateId z = b.add_gate(GateType::And, "z", {a, in_b});
  const GateId y = b.add_gate(GateType::Or, "y", {a, in_b});
  b.mark_output(z);
  b.mark_output(y);
  b.mark_output(z);
  const Circuit c = b.build_or_throw();
  SeqTrace faulty;
  faulty.lines.assign(2, FrameVals(c.num_gates(), Val::X));
  for (const GateId g : {a, in_b, z, y}) faulty.lines[0][g] = Val::One;
  faulty.lines[1][a] = faulty.lines[1][y] = Val::One;
  SeqTrace good;
  good.outputs = {{Val::Zero, Val::One, Val::Zero},
                  {Val::X, Val::One, Val::Zero}};
  const std::uint32_t frames[] = {0, 1};
  PackedFrameImplicator packed(c);
  packed.bind(good, faulty, frames);
  FrameImplicator serial(c);
  const FaultView fv(c);
  for (const ImplMode mode : {ImplMode::TwoPass, ImplMode::Fixpoint}) {
    for (const GateId seed_line : {a, in_b}) {
      for (const Val v : {Val::Zero, Val::One}) {
        const PackedFrameImplicator::Outcome out =
            packed.run(0b11, seed_line, v, fv, mode);
        if (v == Val::One) {
          EXPECT_EQ(out.conflict, 0u);
          EXPECT_EQ(out.detected, seed_line == a ? 0b01u : 0b11u);
        }
        for (unsigned l = 0; l < 2; ++l) {
          FrameVals vals = faulty.lines[l];
          const std::pair<GateId, Val> seed{seed_line, v};
          const ImplOutcome want =
              serial.run(vals, fv, good.outputs[l], {&seed, 1}, mode);
          const ImplOutcome got =
              (out.conflict >> l) & 1   ? ImplOutcome::Conflict
              : (out.detected >> l) & 1 ? ImplOutcome::Detected
                                        : ImplOutcome::Ok;
          EXPECT_EQ(want, got) << c.gate(seed_line).name << " = "
                               << (v == Val::One) << ", lane " << l;
          serial.undo(vals);
        }
      }
    }
  }
}

// --------------------------------------- exhaustive soundness property ----

struct SoundCase {
  std::uint64_t seed;
  ImplMode mode;
  bool with_fault;
};

class ImplicationSoundness : public ::testing::TestWithParam<SoundCase> {};

TEST_P(ImplicationSoundness, AgreesWithEveryConsistentConcreteRun) {
  const SoundCase sc = GetParam();
  circuits::GeneratorParams p;
  p.name = "sound";
  p.seed = sc.seed;
  p.num_inputs = 3;
  p.num_outputs = 2;
  p.num_dffs = 5;
  p.num_comb_gates = 30;
  p.uninit_fraction = 0.4;
  const Circuit c = circuits::generate(p);
  Rng rng(sc.seed * 7 + 3);
  const TestSequence t = random_sequence(3, 8, rng);

  const auto faults = collapsed_fault_list(c);
  const Fault fault = faults[sc.seed % faults.size()];
  const FaultView fv = sc.with_fault ? FaultView(c, fault) : FaultView(c);

  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  SeqTrace trace = sim.run(t, fv.fault_free() ? FaultView(c) : fv, true);

  // All concrete runs (per initial state), with line values.
  std::vector<SeqTrace> runs;
  std::vector<Val> init(c.num_dffs());
  for (std::uint64_t bits = 0; bits < (1ull << c.num_dffs()); ++bits) {
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      init[j] = ((bits >> j) & 1) ? Val::One : Val::Zero;
    }
    runs.push_back(sim.run(t, fv, true, init));
  }

  FrameImplicator impl(c);
  for (std::size_t u = 1; u < t.length(); ++u) {
    for (std::size_t i = 0; i < c.num_dffs(); ++i) {
      if (is_specified(trace.states[u][i])) continue;
      for (Val a : {Val::Zero, Val::One}) {
        const std::pair<GateId, Val> seed{c.dff_input(i), a};
        const ImplOutcome out =
            impl.run(trace.lines[u - 1], fv, good.outputs[u - 1], {&seed, 1},
                     sc.mode);
        // Concrete runs whose state at u has y_i = a.
        std::vector<const SeqTrace*> consistent;
        for (const SeqTrace& r : runs) {
          if (r.states[u][i] == a) consistent.push_back(&r);
        }
        if (out == ImplOutcome::Conflict) {
          EXPECT_TRUE(consistent.empty())
              << "conflict for satisfiable seed: u=" << u << " i=" << i
              << " a=" << v_to_char(a);
        } else {
          for (const auto& [line, v] : impl.changes()) {
            for (const SeqTrace* r : consistent) {
              EXPECT_EQ(r->lines[u - 1][line], v)
                  << "implied value wrong in a concrete run: u=" << u
                  << " i=" << i << " line " << c.gate(line).name;
            }
          }
          if (out == ImplOutcome::Detected) {
            for (const SeqTrace* r : consistent) {
              bool conflict_at_frame = false;
              for (std::size_t o = 0; o < c.num_outputs(); ++o) {
                conflict_at_frame =
                    conflict_at_frame ||
                    conflicts(good.outputs[u - 1][o], r->outputs[u - 1][o]);
              }
              EXPECT_TRUE(conflict_at_frame)
                  << "detection claimed but a consistent run agrees with the "
                     "fault-free outputs at u-1";
            }
          }
        }
        impl.undo(trace.lines[u - 1]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsModesFaults, ImplicationSoundness,
    ::testing::Values(SoundCase{1, ImplMode::TwoPass, false},
                      SoundCase{1, ImplMode::Fixpoint, false},
                      SoundCase{2, ImplMode::Fixpoint, true},
                      SoundCase{3, ImplMode::TwoPass, true},
                      SoundCase{4, ImplMode::Fixpoint, true},
                      SoundCase{5, ImplMode::Fixpoint, true},
                      SoundCase{6, ImplMode::TwoPass, false},
                      SoundCase{7, ImplMode::Fixpoint, true},
                      SoundCase{8, ImplMode::Fixpoint, true}));

// ------------------------------------------- fixpoint refines two-pass ----

class FixpointDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FixpointDominance, FixpointSpecifiesAtLeastWhatTwoPassDoes) {
  circuits::GeneratorParams p;
  p.name = "dom";
  p.seed = GetParam();
  p.num_inputs = 3;
  p.num_outputs = 2;
  p.num_dffs = 6;
  p.num_comb_gates = 40;
  const Circuit c = circuits::generate(p);
  Rng rng(GetParam() + 100);
  const TestSequence t = random_sequence(3, 6, rng);
  const SequentialSimulator sim(c);
  SeqTrace trace = sim.run(t, FaultView(c), true);

  FrameImplicator impl(c);
  for (std::size_t u = 1; u < t.length(); ++u) {
    for (std::size_t i = 0; i < c.num_dffs(); ++i) {
      if (is_specified(trace.states[u][i])) continue;
      for (Val a : {Val::Zero, Val::One}) {
        const std::pair<GateId, Val> seed{c.dff_input(i), a};
        FrameVals two = trace.lines[u - 1];
        const ImplOutcome out_two =
            impl.run(two, FaultView(c), {}, {&seed, 1}, ImplMode::TwoPass);
        std::vector<std::pair<GateId, Val>> two_changes(
            impl.changes().begin(), impl.changes().end());
        impl.undo(two);
        FrameVals fix = trace.lines[u - 1];
        const ImplOutcome out_fix =
            impl.run(fix, FaultView(c), {}, {&seed, 1}, ImplMode::Fixpoint);
        if (out_two == ImplOutcome::Conflict) {
          EXPECT_EQ(out_fix, ImplOutcome::Conflict);
        } else if (out_fix != ImplOutcome::Conflict) {
          for (const auto& [line, v] : two_changes) {
            EXPECT_EQ(fix[line], v) << c.gate(line).name;
          }
        }
        impl.undo(fix);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixpointDominance,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace motsim
