// Property and integration tests for the MOT fault simulators: the proposed
// backward-implication procedure, the [4] expansion baseline, and the
// exhaustive restricted-MOT oracle.
//
// Key invariants (DESIGN.md §5):
//  (d) anything baseline/proposed reports detected IS detected per oracle,
//  (e) proposed ⊇ baseline ⊇ conventional on every workload.
#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "mot/baseline.hpp"
#include "mot/oracle.hpp"
#include "mot/proposed.hpp"
#include "netlist/builder.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

TestSequence seq(const std::vector<std::string_view>& rows) {
  TestSequence t;
  EXPECT_TRUE(TestSequence::from_strings(rows, t));
  return t;
}

// ------------------------------------------------------------- oracle ----

TEST(Oracle, RefusesOversizedCircuits) {
  const Circuit c = circuits::make_s27();
  Rng rng(1);
  const TestSequence t = random_sequence(4, 4, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  const Fault f{0, kOutputPin, Val::Zero};
  EXPECT_FALSE(restricted_mot_oracle(c, t, good, f, /*max_ffs=*/2).computable);
  EXPECT_TRUE(restricted_mot_oracle(c, t, good, f, /*max_ffs=*/3).computable);
}

TEST(Oracle, DetectsTheClassicMotExample) {
  // Toggle flip-flop observed through XOR with a held input: the fault-free
  // machine outputs X forever, but a fault that freezes the toggle makes
  // every initial state produce a constant... build the paper's motivating
  // situation: fault-free output specified, faulty output per-state
  // complementary sequences, all conflicting somewhere.
  //
  // q' = NOT(q); z = XOR(q, q') = 1 always in the GOOD machine (XOR of
  // complements)! Three-valued simulation still computes z = X, but both
  // completions give 1... use z = OR(q, qn): good z = 1 for any q (but
  // 3-valued gives X). Fault: q stem stuck-at-0 -> z = OR(0, 1) = 1. Not
  // detectable. Instead: fault qn stem stuck-at-0: z = OR(q, 0) = q; the
  // faulty machine outputs q which toggles 0 eventually for every initial
  // state -> conflicts with good z = 1? good z is X under 3-valued sim, so
  // nothing is detectable under restricted MOT either (good never
  // specified). The classic example needs a *specified* good output:
  // z = OR(q, qn, r) with r = PI gives specified good z when r = 1.
  CircuitBuilder b("classic");
  const GateId r = b.add_input("r");
  const GateId q = b.declare("q");
  const GateId qn = b.add_gate(GateType::Not, "qn", {q});
  b.define(q, GateType::Dff, {qn});
  const GateId z = b.add_gate(GateType::Or, "z", {q, qn, r});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();

  // Good: z = 1 whenever r = 1; with r = 0, z = OR(q, NOT q) = 1 in every
  // completion but X under three-valued simulation.
  const TestSequence t = seq({"0", "0", "0"});
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  EXPECT_EQ(good.outputs[0][0], Val::X);  // the three-valued pessimism

  // Fault z stuck-at-0: the good response is never specified, so the
  // restricted MOT approach cannot detect anything (single good response!).
  const OracleVerdict v =
      restricted_mot_oracle(c, t, good, Fault{z, kOutputPin, Val::Zero});
  ASSERT_TRUE(v.computable);
  EXPECT_FALSE(v.detected);

  // With r = 1 at time 0 the good response IS specified there; the faulty
  // machine (z stuck-at-0) outputs 0 for every initial state: detected.
  const TestSequence t2 = seq({"1", "0"});
  const SeqTrace good2 = SequentialSimulator(c).run_fault_free(t2);
  EXPECT_EQ(good2.outputs[0][0], Val::One);
  const OracleVerdict v2 =
      restricted_mot_oracle(c, t2, good2, Fault{z, kOutputPin, Val::Zero});
  ASSERT_TRUE(v2.computable);
  EXPECT_TRUE(v2.detected);
}

// ----------------------------------- the paper's headline distinction ----

TEST(Proposed, DetectsMotOnlyFaultThatConventionalMisses) {
  // Table-1-style machine: XOR feedback keeps the state unspecified, yet
  // every binary initial state yields fully specified outputs. A stuck
  // state variable collapses the faulty machine's behaviour so that every
  // initial state eventually disagrees with the (partially specified)
  // fault-free response.
  const Circuit c = circuits::make_table1_example();
  Rng rng(31);
  const TestSequence t = random_sequence(2, 24, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);
  MotFaultSimulator proposed(c);
  const ConventionalFaultSimulator conv(c);

  std::size_t conventional = 0;
  std::size_t mot_only = 0;
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    conventional += r.detected_conventional;
    if (r.detected && !r.detected_conventional) {
      ++mot_only;
      // Cross-check against the exhaustive oracle.
      const OracleVerdict v = restricted_mot_oracle(c, t, good, f);
      ASSERT_TRUE(v.computable);
      EXPECT_TRUE(v.detected) << fault_name(c, f);
    }
  }
  EXPECT_GT(mot_only, 0u)
      << "the MOT machinery found nothing beyond conventional simulation";
}

// ------------------------------------------------- oracle soundness ----

struct SweepCase {
  std::uint64_t seed;
  ImplMode mode;
  int backward_depth;
};

class MotSoundness : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MotSoundness, SoundAndDominantOnRandomCircuits) {
  const SweepCase sc = GetParam();
  circuits::GeneratorParams p;
  p.name = "sweep";
  p.seed = sc.seed;
  p.num_inputs = 3;
  p.num_outputs = 2;
  p.num_dffs = 5;
  p.num_comb_gates = 25;
  p.uninit_fraction = 0.5;
  const Circuit c = circuits::generate(p);
  Rng rng(sc.seed * 17 + 1);
  const TestSequence t = random_sequence(3, 20, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(t);

  MotOptions opt;
  opt.impl_mode = sc.mode;
  opt.backward_depth = sc.backward_depth;
  MotFaultSimulator proposed(c, opt);
  ExpansionBaseline baseline(c, opt);

  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult pr = proposed.simulate_fault(t, good, f);
    const BaselineResult br = baseline.simulate_fault(t, good, f);
    // Conventional agreement between the two pipelines.
    EXPECT_EQ(pr.detected_conventional, br.detected_conventional);
    // (e) dominance.
    if (br.detected) {
      EXPECT_TRUE(pr.detected) << fault_name(c, f);
    }
    if (pr.detected_conventional) {
      EXPECT_TRUE(pr.detected && br.detected);
    }
    // (d) soundness against the exhaustive oracle.
    if (pr.detected || br.detected) {
      const OracleVerdict v = restricted_mot_oracle(c, t, good, f);
      ASSERT_TRUE(v.computable);
      EXPECT_TRUE(v.detected) << fault_name(c, f) << " claimed detected";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, MotSoundness,
    ::testing::Values(SweepCase{1, ImplMode::Fixpoint, 1},
                      SweepCase{2, ImplMode::Fixpoint, 1},
                      SweepCase{3, ImplMode::TwoPass, 1},
                      SweepCase{4, ImplMode::Fixpoint, 2},
                      SweepCase{5, ImplMode::TwoPass, 1},
                      SweepCase{6, ImplMode::Fixpoint, 3},
                      SweepCase{7, ImplMode::Fixpoint, 1},
                      SweepCase{8, ImplMode::TwoPass, 2},
                      SweepCase{9, ImplMode::Fixpoint, 1},
                      SweepCase{10, ImplMode::Fixpoint, 1}));

// --------------------------------------------------- result anatomy ----

TEST(Proposed, PhasesAreConsistent) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(5);
  const TestSequence t = random_sequence(2, 16, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  MotFaultSimulator proposed(c);
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    switch (r.phase) {
      case MotPhase::Conventional:
        EXPECT_TRUE(r.detected);
        EXPECT_TRUE(r.detected_conventional);
        break;
      case MotPhase::FailedCondC:
        EXPECT_FALSE(r.detected);
        EXPECT_FALSE(r.passes_c);
        break;
      case MotPhase::Collection:
        EXPECT_TRUE(r.detected);
        EXPECT_TRUE(r.passes_c);
        EXPECT_EQ(r.expansions, 0u);
        break;
      case MotPhase::Expansion:
        EXPECT_TRUE(r.detected);
        EXPECT_TRUE(r.passes_c);
        break;
      case MotPhase::NotDetected:
        EXPECT_FALSE(r.detected);
        EXPECT_TRUE(r.passes_c);
        break;
    }
    // The N_STATES budget is respected.
    EXPECT_LE(r.final_sequences, MotOptions{}.n_states);
  }
}

TEST(Proposed, NStatesBudgetBoundsExpansions) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(9);
  const TestSequence t = random_sequence(2, 12, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  for (std::size_t n_states : {2u, 4u, 16u, 64u}) {
    MotOptions opt;
    opt.n_states = n_states;
    MotFaultSimulator proposed(c, opt);
    for (const Fault& f : collapsed_fault_list(c)) {
      const MotResult r = proposed.simulate_fault(t, good, f);
      EXPECT_LE(r.final_sequences, n_states);
    }
  }
}

TEST(Proposed, LargerBudgetNeverLosesDetections) {
  // Not guaranteed in general for heuristics, but holds for the Table-1
  // machine and guards against budget-accounting regressions.
  const Circuit c = circuits::make_table1_example();
  Rng rng(13);
  const TestSequence t = random_sequence(2, 16, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  MotOptions small_opt;
  small_opt.n_states = 4;
  MotOptions big_opt;
  big_opt.n_states = 64;
  MotFaultSimulator small(c, small_opt);
  MotFaultSimulator big(c, big_opt);
  std::size_t small_det = 0;
  std::size_t big_det = 0;
  for (const Fault& f : collapsed_fault_list(c)) {
    small_det += small.simulate_fault(t, good, f).detected;
    big_det += big.simulate_fault(t, good, f).detected;
  }
  EXPECT_GE(big_det, small_det);
}

TEST(Proposed, CountersAreZeroWithoutImplications) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(21);
  const TestSequence t = random_sequence(2, 16, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  MotOptions opt;
  opt.use_backward_implications = false;
  MotFaultSimulator plain(c, opt);
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = plain.simulate_fault(t, good, f);
    // Without implications there are no conflict/detection sides, and each
    // expansion specifies exactly the selected variable: extra <= 2/expansion.
    EXPECT_EQ(r.counters.n_det, 0u);
    EXPECT_EQ(r.counters.n_conf, 0u);
    EXPECT_LE(r.counters.n_extra, 2 * r.expansions);
  }
}

TEST(Proposed, SelectionPoliciesAllSound) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(23);
  const TestSequence t = random_sequence(2, 14, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  for (SelectionPolicy policy :
       {SelectionPolicy::Full, SelectionPolicy::TimeOnly, SelectionPolicy::Random}) {
    MotOptions opt;
    opt.selection = policy;
    MotFaultSimulator sim_mot(c, opt);
    for (const Fault& f : collapsed_fault_list(c)) {
      const MotResult r = sim_mot.simulate_fault(t, good, f);
      if (r.detected && !r.detected_conventional) {
        const OracleVerdict v = restricted_mot_oracle(c, t, good, f);
        ASSERT_TRUE(v.computable);
        EXPECT_TRUE(v.detected);
      }
    }
  }
}

// --------------------------------------------------------- baseline ----

TEST(Baseline, AbortedExactlyWhenUnresolved) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(27);
  const TestSequence t = random_sequence(2, 16, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  ExpansionBaseline baseline(c);
  for (const Fault& f : collapsed_fault_list(c)) {
    const BaselineResult r = baseline.simulate_fault(t, good, f);
    if (r.detected_conventional) {
      EXPECT_FALSE(r.aborted);
    } else if (r.passes_c) {
      EXPECT_EQ(r.aborted, !r.detected);
    } else {
      EXPECT_FALSE(r.detected);
      EXPECT_FALSE(r.aborted);
    }
  }
}

TEST(Baseline, NeverUsesImplicationInformation) {
  // The baseline must behave identically whether or not the "proposed"
  // extras exist — its configuration disables them internally.
  const Circuit c = circuits::make_s27();
  Rng rng(29);
  const TestSequence t = random_sequence(4, 20, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  MotOptions opt;
  opt.use_backward_implications = false;
  opt.fallback_plain_expansion = false;
  MotFaultSimulator plain(c, opt);
  ExpansionBaseline baseline(c);  // default options, flag applied internally
  for (const Fault& f : collapsed_fault_list(c)) {
    EXPECT_EQ(plain.simulate_fault(t, good, f).detected,
              baseline.simulate_fault(t, good, f).detected);
  }
}

/// A fault list's baseline outcomes under `opt` on a generated circuit
/// whose candidate pools hold tens to hundreds of plain pairs: per fault
/// that reaches the expansion stage, "unresolved/aborted/expansions/capped/
/// work" (capped and work = MotResult::collection_capped and work_used of
/// the same plain run).
std::string baseline_outcomes(const MotOptions& opt) {
  circuits::GeneratorParams p;
  p.name = "plain";
  p.seed = 31;
  p.num_inputs = 3;
  p.num_outputs = 2;
  p.num_dffs = 8;
  p.num_comb_gates = 40;
  p.uninit_fraction = 0.5;
  const Circuit c = circuits::generate(p);
  Rng rng(77);
  const TestSequence t = random_sequence(3, 24, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  ExpansionBaseline baseline(c, opt);
  MotOptions plain_opt = opt;
  plain_opt.use_backward_implications = false;
  MotFaultSimulator plain(c, plain_opt);
  std::string out;
  for (const Fault& f : collapsed_fault_list(c)) {
    const BaselineResult b = baseline.simulate_fault(t, good, f);
    if (!b.passes_c || b.detected_conventional) continue;
    const MotResult r = plain.simulate_fault(t, good, f);
    out += std::string(to_string(b.unresolved)) + "/" +
           (b.aborted ? "a" : "d") + "/" + std::to_string(b.expansions) + "/" +
           (r.collection_capped ? "c" : "-") + "/" +
           std::to_string(r.work_used) + " ";
  }
  return out;
}

TEST(Baseline, PairCapBindingInsideTheEnumerationKeepsTheFirstPairs) {
  // The cap falls inside a time unit: the baseline keeps the first
  // max_pairs plain pairs in (u, i) order and reports the cap. Recorded
  // before the plain pool gave way to the plain walk.
  MotOptions opt;
  opt.max_pairs = 13;
  EXPECT_EQ(baseline_outcomes(opt),
            "pair_cap/a/6/c/313 pair_cap/a/6/c/1113 pair_cap/a/6/c/329 "
            "pair_cap/a/6/c/1113 pair_cap/a/6/c/1609 none/d/6/c/297 "
            "none/d/6/c/969 pair_cap/a/6/c/313 none/d/6/c/523 "
            "pair_cap/a/6/c/329 none/d/6/c/393 pair_cap/a/6/c/1113 "
            "pair_cap/a/6/c/1441 pair_cap/a/6/c/1441 pair_cap/a/6/c/1113 "
            "pair_cap/a/6/c/1113 pair_cap/a/6/c/1441 pair_cap/a/6/c/1113 "
            "pair_cap/a/6/c/1113 pair_cap/a/6/c/1113 pair_cap/a/6/c/1113 "
            "pair_cap/a/6/c/1113 pair_cap/a/6/c/1609 pair_cap/a/6/c/1609 "
            "pair_cap/a/6/c/1609 pair_cap/a/6/c/553 ");
}

TEST(Baseline, WorkLimitStopsDuringThePlainPairCharge) {
  // Two units per plain pair with u > 0: a limit of 9 stops every fault
  // while its pairs are still being charged; at 150 a few faults get
  // through the charge and stop in expansion. Recorded before the plain
  // pool gave way to the plain walk.
  MotOptions opt;
  opt.per_fault_work_limit = 9;
  EXPECT_EQ(baseline_outcomes(opt),
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 work_limit/a/0/-/10 "
            "work_limit/a/0/-/10 work_limit/a/0/-/10 ");
  opt.per_fault_work_limit = 150;
  EXPECT_EQ(baseline_outcomes(opt),
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/0/-/150 work_limit/a/0/-/150 "
            "work_limit/a/5/-/163 work_limit/a/0/-/150 "
            "work_limit/a/5/-/167 work_limit/a/0/-/150 ");
}

// ------------------------------------------------ candidate ranking ----

/// The ranking as a four-way comparator under std::stable_sort — the
/// reference the keyed ranking must reproduce exactly.
std::vector<const PairInfo*> rank_by_comparator(
    const std::vector<PairInfo>& pairs, const std::vector<std::size_t>& nout,
    const std::vector<std::size_t>& nsv, bool full) {
  std::vector<const PairInfo*> order;
  for (const PairInfo& p : pairs) {
    if (!p.both_open()) continue;
    if (p.u >= nout.size() || nout[p.u] == 0 || nsv[p.u] == 0) continue;
    order.push_back(&p);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](const PairInfo* a, const PairInfo* b) {
                     if (nout[a->u] != nout[b->u]) return nout[a->u] > nout[b->u];
                     if (nsv[a->u] != nsv[b->u]) return nsv[a->u] < nsv[b->u];
                     if (!full) return false;
                     const std::size_t amin = std::min(a->n_extra(0), a->n_extra(1));
                     const std::size_t bmin = std::min(b->n_extra(0), b->n_extra(1));
                     if (amin != bmin) return amin > bmin;
                     const std::size_t amax = std::max(a->n_extra(0), a->n_extra(1));
                     const std::size_t bmax = std::max(b->n_extra(0), b->n_extra(1));
                     return amax > bmax;
                   });
  return order;
}

TEST(Ranking, KeyedOrderEqualsComparatorOrder) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Small value ranges, so that every criterion ties often.
    const std::size_t L = 1 + rng.next_below(12);
    std::vector<std::size_t> nout(L), nsv(L + 1);
    for (auto& v : nout) v = rng.next_below(4);
    for (auto& v : nsv) v = rng.next_below(4);
    std::vector<PairInfo> pairs(rng.next_below(80));
    for (PairInfo& p : pairs) {
      p.u = static_cast<std::uint32_t>(rng.next_below(L + 1));
      p.i = static_cast<std::uint32_t>(rng.next_below(8));
      for (int a = 0; a < 2; ++a) {
        p.conf[a] = rng.next_below(8) == 0;
        p.detect[a] = rng.next_below(8) == 0;
        p.extra_size[a] = static_cast<std::uint32_t>(rng.next_below(trial % 2 ? 6 : 300));
      }
    }
    for (const SelectionPolicy policy :
         {SelectionPolicy::Full, SelectionPolicy::TimeOnly,
          SelectionPolicy::Random}) {
      const std::vector<const PairInfo*> want = rank_by_comparator(
          pairs, nout, nsv, policy == SelectionPolicy::Full);
      EXPECT_EQ(ExpansionRanking(pairs, nout, nsv, policy).drain(), want);
      // Popped one at a time, to exhaustion.
      ExpansionRanking ranking(pairs, nout, nsv, policy);
      std::vector<const PairInfo*> popped;
      while (!ranking.empty()) {
        popped.push_back(ranking.top());
        ranking.pop();
      }
      EXPECT_EQ(popped, want);
    }
  }
}

TEST(Ranking, LazyWalkPicksWhatTheSortedCursorPicks) {
  // select_pair's walk: take the first valid pair in rank order, where a
  // pair found invalid never becomes valid again (specification is
  // monotone). The heap's first_valid() must pick exactly the pairs a
  // cursor over the fully sorted order picks.
  Rng rng(977);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t L = 1 + rng.next_below(10);
    std::vector<std::size_t> nout(L), nsv(L + 1);
    for (auto& v : nout) v = rng.next_below(4);
    for (auto& v : nsv) v = rng.next_below(4);
    std::vector<PairInfo> pairs(rng.next_below(120));
    for (PairInfo& p : pairs) {
      p.u = static_cast<std::uint32_t>(rng.next_below(L + 1));
      p.i = static_cast<std::uint32_t>(rng.next_below(8));
      for (int a = 0; a < 2; ++a) {
        p.conf[a] = rng.next_below(8) == 0;
        p.detect[a] = rng.next_below(8) == 0;
        p.extra_size[a] = static_cast<std::uint32_t>(rng.next_below(20));
      }
    }
    const SelectionPolicy policy =
        trial % 2 ? SelectionPolicy::Full : SelectionPolicy::TimeOnly;
    const std::vector<const PairInfo*> sorted =
        rank_by_comparator(pairs, nout, nsv, policy == SelectionPolicy::Full);
    ExpansionRanking ranking(pairs, nout, nsv, policy);

    // Each round invalidates a random set of pairs for good, then both
    // walks pick; the picked pair itself is invalidated half the time,
    // as an expansion that specifies its own variables does.
    std::vector<std::uint8_t> invalid(pairs.size(), 0);
    const auto valid = [&](const PairInfo* p) { return !invalid[p - pairs.data()]; };
    std::size_t cursor = 0;
    for (int round = 0; round < 12; ++round) {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (rng.next_below(6) == 0) invalid[k] = 1;
      }
      while (cursor < sorted.size() && !valid(sorted[cursor])) ++cursor;
      const PairInfo* want = cursor < sorted.size() ? sorted[cursor] : nullptr;
      const PairInfo* got = ranking.first_valid(valid);
      ASSERT_EQ(got, want) << "round " << round;
      if (got == nullptr) break;
      if (rng.next_bool()) invalid[got - pairs.data()] = 1;
    }
  }
}

// ------------------------------------------------------- plain walk ----

/// [4]'s plain pool built pair by pair, as the collector once built it:
/// every (u, i) with y_i unspecified at u and u = 0 or N_out(u-1) > 0, in
/// (u, i) order, cut to the first `max_pairs`; each side specifies only y_i.
std::vector<PairInfo> plain_pool(const std::vector<std::vector<Val>>& states,
                                 const std::vector<std::size_t>& nout,
                                 std::size_t max_pairs, bool& capped) {
  std::vector<PairInfo> pool;
  capped = false;
  for (std::uint32_t u = 0; u < states.size(); ++u) {
    if (u > 0 && nout[u - 1] == 0) continue;
    for (std::uint32_t i = 0; i < states[u].size(); ++i) {
      if (is_specified(states[u][i])) continue;
      if (pool.size() >= max_pairs) {
        capped = true;
        return pool;
      }
      PairInfo p;
      p.u = u;
      p.i = i;
      p.extra_size[0] = p.extra_size[1] = 1;
      pool.push_back(p);
    }
  }
  return pool;
}

/// The (u, i) of each pair, in order; every one splits y_i alone.
std::vector<std::pair<std::uint32_t, std::uint32_t>> unit_pairs(
    const std::vector<PairInfo>& pairs) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const PairInfo& p : pairs) {
    EXPECT_TRUE(p.both_open() && p.n_extra(0) == 1 && p.n_extra(1) == 1);
    out.emplace_back(p.u, p.i);
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> unit_pairs(
    const std::vector<const PairInfo*>& ranked) {
  std::vector<PairInfo> pairs;
  for (const PairInfo* p : ranked) pairs.push_back(*p);
  return unit_pairs(pairs);
}

TEST(PlainWalk, FollowsTheRankingOfTheMaterialisedPool) {
  Rng rng(2718);
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Few flip-flops and small N_out values, so that units tie on N_out and
    // N_sv often; rows that are fully specified (zero units) or fully
    // unspecified; random N_out, including zeros, so that the pool skips
    // units and the last unit u = L joins it or not.
    const std::size_t L = 1 + rng.next_below(10);
    const std::size_t nff = 1 + rng.next_below(6);
    std::vector<std::vector<Val>> states(L + 1, std::vector<Val>(nff));
    for (auto& row : states) {
      const std::uint64_t kind = rng.next_below(4);
      for (Val& v : row) {
        v = kind == 0   ? Val::One
            : kind == 1 ? Val::X
                        : (rng.next_bool() ? Val::X : Val::Zero);
      }
    }
    std::vector<std::size_t> nout(L), nsv(L + 1);
    for (auto& v : nout) v = rng.next_below(3);
    for (std::size_t u = 0; u <= L; ++u) {
      nsv[u] = static_cast<std::size_t>(
          std::ranges::count_if(states[u], [](Val v) { return !is_specified(v); }));
    }
    const std::size_t max_pairs =
        trial % 3 == 0 ? rng.next_below(3 * nff) : MotOptions{}.max_pairs;

    bool capped = false;
    const std::vector<PairInfo> pool = plain_pool(states, nout, max_pairs, capped);
    const PlainWalk walk(states, nout, nsv, max_pairs);
    EXPECT_EQ(walk.capped(), capped);
    EXPECT_EQ(walk.probed_pairs(),
              static_cast<std::size_t>(std::ranges::count_if(
                  pool, [](const PairInfo& p) { return p.u > 0; })));
    for (const SelectionPolicy policy :
         {SelectionPolicy::Full, SelectionPolicy::TimeOnly,
          SelectionPolicy::Random}) {
      EXPECT_EQ(unit_pairs(PlainWalk(states, nout, nsv, max_pairs).drain()),
                unit_pairs(ExpansionRanking(pool, nout, nsv, policy).drain()));
    }

    // select_pair's lazy walk: rounds of permanent invalidation, each
    // followed by a pick from the heap and from the walk.
    ExpansionRanking ranking(pool, nout, nsv, SelectionPolicy::Full);
    PlainWalk lazy(states, nout, nsv, max_pairs);
    std::vector<std::vector<std::uint8_t>> invalid(
        L + 1, std::vector<std::uint8_t>(nff, 0));
    for (int round = 0; round < 8; ++round) {
      for (auto& row : invalid) {
        for (auto& bad : row) bad |= rng.next_below(5) == 0 ? 1 : 0;
      }
      const PairInfo* want = ranking.first_valid(
          [&](const PairInfo* p) { return !invalid[p->u][p->i]; });
      const PairInfo* got = lazy.first_valid(
          [&](const PairInfo* p) { return !invalid[p->u][p->i]; });
      ASSERT_EQ(got != nullptr, want != nullptr) << "round " << round;
      if (want == nullptr) break;
      EXPECT_EQ(unit_pairs({got}), unit_pairs({want})) << "round " << round;
      if (rng.next_bool()) invalid[got->u][got->i] = 1;
    }
  }
}

}  // namespace
}  // namespace motsim
