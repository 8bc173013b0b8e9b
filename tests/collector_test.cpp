// Tests for the backward-implication collector (Procedure 1, steps 1-2).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "circuits/registry.hpp"
#include "faultsim/conventional.hpp"
#include "mot/collector.hpp"
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
  s.faulty = sim.run(test, *s.fv, /*keep_lines=*/true);
  return s;
}

TEST(Collector, SynthesizesTime0Pairs) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "1011"}));
  BackwardCollector collector(s.c, MotOptions{});
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  // All three state variables are unspecified at time 0.
  std::size_t u0 = 0;
  for (const PairInfo& p : r.pairs) {
    if (p.u != 0) continue;
    ++u0;
    EXPECT_FALSE(p.conf[0] || p.conf[1] || p.detect[0] || p.detect[1]);
    ASSERT_EQ(p.n_extra(0), 1u);
    ASSERT_EQ(p.n_extra(1), 1u);
    EXPECT_EQ(*r.extra(p, 0).begin(), (ExtraVal{p.i, Val::Zero}));
    EXPECT_EQ(*r.extra(p, 1).begin(), (ExtraVal{p.i, Val::One}));
  }
  EXPECT_EQ(u0, 3u);
}

TEST(Collector, ExtraAlwaysContainsTheSeedPair) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "1011", "1011"}));
  BackwardCollector collector(s.c, MotOptions{});
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  for (const PairInfo& p : r.pairs) {
    for (int a : {0, 1}) {
      if (p.side_closed(a)) continue;
      const Val v = a == 0 ? Val::Zero : Val::One;
      bool found = false;
      for (const auto& [j, beta] : r.extra(p, a)) {
        found = found || (j == p.i && beta == v);
      }
      EXPECT_TRUE(found) << "u=" << p.u << " i=" << p.i << " a=" << a;
    }
  }
}

TEST(Collector, ExtraVariablesWereUnspecifiedInConventionalTrace) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "0110", "1011"}));
  BackwardCollector collector(s.c, MotOptions{});
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  for (const PairInfo& p : r.pairs) {
    for (int a : {0, 1}) {
      for (const auto& [j, beta] : r.extra(p, a)) {
        (void)beta;
        EXPECT_FALSE(is_specified(s.faulty.states[p.u][j]));
      }
    }
  }
}

TEST(Collector, Fig4ConflictIsRecorded) {
  // The Figure 4 circuit extended with a monitoring output z = AND(L1, L2):
  // fault-free under input 0, z = 0 (specified). Faulting z's first pin
  // stuck-at-1 makes the faulty z = L2 = X, so N_out(u) > 0 and the (u=1)
  // pair is collected — where backward implication must find that the
  // present-state value 1 is impossible (the paper's conflict).
  CircuitBuilder b("fig4ext");
  const GateId l1 = b.add_input("L1");
  const GateId l2 = b.declare("L2");
  const GateId l11 = b.declare("L11");
  b.define(l2, GateType::Dff, {l11});
  const GateId l3 = b.add_gate(GateType::And, "L3", {l1, l2});
  const GateId l4 = b.add_gate(GateType::Buf, "L4", {l1});
  const GateId l5 = b.add_gate(GateType::Or, "L5", {l3, l2});
  const GateId l6 = b.add_gate(GateType::Or, "L6", {l4, l2});
  const GateId l7 = b.add_gate(GateType::Not, "L7", {l6});
  b.define(l11, GateType::And, {l5, l7});
  const GateId z = b.add_gate(GateType::And, "z", {l1, l2});
  b.mark_output(z);
  const Circuit c = b.build_or_throw();

  const TestSequence t = seq({"0", "0"});
  TestBed s = make_setup(c, t, Fault{z, 0, Val::One});
  ASSERT_TRUE(passes_condition_c(s.good, s.faulty));
  BackwardCollector collector(c, MotOptions{});
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  bool saw_u1 = false;
  for (const PairInfo& p : r.pairs) {
    if (p.u == 1) {
      saw_u1 = true;
      EXPECT_TRUE(p.conf[1]) << "value 1 at time 1 must conflict";
      EXPECT_FALSE(p.conf[0]);
    }
  }
  EXPECT_TRUE(saw_u1);
}

TEST(Collector, DetectsViaSection32Check) {
  // One flip-flop that directly drives the only output through a buffer,
  // with next-state = NOT(state): whatever the initial state, the output
  // differs from the fault-free response once the fault forces the good
  // output to a constant the faulty machine cannot hold for both values.
  //
  // Build: z = BUF(ff), ff' = NOT(ff). Good machine: output X forever.
  // Fault: input stem I stuck... we need good specified & faulty X. Use:
  // z = AND(i, ff_n) where ff_n toggles: good machine with i=0 gives z=0;
  // fault i stuck-at-1 makes z = ff (X), and backward implication of either
  // ff value sets z to that value at u-1 — value 1 detects (good z = 0),
  // value 0 does not... to get both sides closed, route ff and NOT(ff) to
  // two outputs.
  CircuitBuilder b("sec32");
  const GateId i = b.add_input("i");
  const GateId ff = b.declare("ff");
  const GateId ffn = b.add_gate(GateType::Not, "ffn", {ff});
  b.define(ff, GateType::Dff, {ffn});  // ff' = NOT(ff): toggles, never inits
  const GateId z1 = b.add_gate(GateType::And, "z1", {i, ff});
  const GateId z2 = b.add_gate(GateType::And, "z2", {i, ffn});
  b.mark_output(z1);
  b.mark_output(z2);
  const Circuit c = b.build_or_throw();

  // Good machine with i=0: z1 = z2 = 0. Faulty machine (i stuck-at-1):
  // z1 = ff = X, z2 = NOT(ff) = X. For either value of ff at time 1,
  // backward implication sets ff at time 0 (toggle), forcing one of the
  // outputs to 1 at time 0 — conflicting with the good 0: detect on both
  // sides, the fault is detected by the Section 3.2 check alone.
  const TestSequence t = seq({"0", "0"});
  TestBed s = make_setup(c, t, Fault{i, kOutputPin, Val::One});
  ASSERT_TRUE(passes_condition_c(s.good, s.faulty));
  BackwardCollector collector(c, MotOptions{});
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  EXPECT_TRUE(r.detected_by_check);
}

TEST(Collector, MaxPairsCapIsReportedNotSilent) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "1011", "1011"}));
  MotOptions opt;
  opt.max_pairs = 2;  // s27 has three unspecified state variables at u = 0
  BackwardCollector collector(s.c, opt);
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  EXPECT_TRUE(r.capped);
  EXPECT_LE(r.pairs.size(), 2u);
}

TEST(Collector, TraceLinesAreRestoredAfterCollection) {
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "0110", "1011"}));
  const SeqTrace before = s.faulty;
  BackwardCollector collector(s.c, MotOptions{});
  collector.collect(s.good, s.faulty, *s.fv);
  ASSERT_EQ(before.lines.size(), s.faulty.lines.size());
  for (std::size_t u = 0; u < before.lines.size(); ++u) {
    EXPECT_EQ(before.lines[u], s.faulty.lines[u]) << "frame " << u;
  }
}

TEST(Collector, RejectsTracesItCannotProbe) {
  // Checked in every build, not only under assert: a Release build would
  // otherwise index the missing line values.
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "0110", "1011"}));
  for (const KernelKind kernel : {KernelKind::Legacy, KernelKind::SoA}) {
    MotOptions opt;
    opt.kernel = kernel;
    BackwardCollector collector(s.c, opt);
    SeqTrace no_lines = SequentialSimulator(s.c).run(s.test, *s.fv);
    ASSERT_TRUE(no_lines.lines.empty());
    EXPECT_THROW(collector.collect(s.good, no_lines, *s.fv),
                 std::invalid_argument);
    const std::vector<std::size_t> nout = count_nout(s.good, s.faulty);
    EXPECT_THROW(collector.collect(s.good, no_lines, *s.fv, nout),
                 std::invalid_argument);
    EXPECT_THROW(collector.collect(s.good, s.faulty, *s.fv,
                                   std::span(nout).first(2)),
                 std::invalid_argument);
    SeqTrace short_faulty = s.faulty;
    short_faulty.outputs.pop_back();
    short_faulty.states.pop_back();
    short_faulty.lines.pop_back();
    EXPECT_THROW(collector.collect(s.good, short_faulty, *s.fv),
                 std::invalid_argument);
    SeqTrace short_good = s.good;
    short_good.outputs.pop_back();
    EXPECT_THROW(collector.collect(short_good, s.faulty, *s.fv),
                 std::invalid_argument);
  }
}

TEST(Collector, MultiFrameBackwardDepthIsSoundOnS27) {
  // backward_depth = 2 pushes newly specified state variables one more
  // frame back; the collected sets must still only contain PSVs that were
  // unspecified, with the seed pair present.
  TestBed s = make_setup(circuits::make_s27(), seq({"1011", "1011", "1011"}));
  MotOptions opt;
  opt.backward_depth = 2;
  BackwardCollector collector(s.c, opt);
  const CollectionResult r = collector.collect(s.good, s.faulty, *s.fv);
  for (const PairInfo& p : r.pairs) {
    for (int a : {0, 1}) {
      for (const auto& [j, beta] : r.extra(p, a)) {
        (void)beta;
        EXPECT_LT(j, s.c.num_dffs());
        EXPECT_FALSE(is_specified(s.faulty.states[p.u][j]));
      }
    }
  }
  // Line values restored despite multi-frame probing.
  const SeqTrace fresh = SequentialSimulator(s.c).run(s.test, *s.fv, true);
  for (std::size_t u = 0; u < fresh.lines.size(); ++u) {
    EXPECT_EQ(fresh.lines[u], s.faulty.lines[u]);
  }
}

// ------------------------------- serial vs packed collection at scale ----

/// Each side's n_extra is the length of its extra() view, whose j ascend.
void expect_views_match_sizes(const CollectionResult& r) {
  for (std::size_t k = 0; k < r.pairs.size(); ++k) {
    const PairInfo& p = r.pairs[k];
    for (int a = 0; a < 2; ++a) {
      auto view = r.extra(p, a);
      EXPECT_EQ(std::ranges::distance(view), p.n_extra(a))
          << "pair " << k << " side " << a;
      EXPECT_TRUE(std::ranges::is_sorted(view, std::less<>(), &ExtraVal::first))
          << "pair " << k << " side " << a;
    }
  }
}

/// Pair by pair: u, i, conf, detect and each side's extras in order.
void expect_same_collection(const CollectionResult& want,
                            const CollectionResult& got) {
  EXPECT_EQ(want.detected_by_check, got.detected_by_check);
  EXPECT_EQ(want.capped, got.capped);
  ASSERT_EQ(want.pairs.size(), got.pairs.size());
  for (std::size_t k = 0; k < want.pairs.size(); ++k) {
    const PairInfo& p = want.pairs[k];
    const PairInfo& q = got.pairs[k];
    ASSERT_EQ(p.u, q.u) << "pair " << k;
    ASSERT_EQ(p.i, q.i) << "pair " << k;
    for (int a = 0; a < 2; ++a) {
      EXPECT_EQ(p.conf[a], q.conf[a]) << "pair " << k << " side " << a;
      EXPECT_EQ(p.detect[a], q.detect[a]) << "pair " << k << " side " << a;
      EXPECT_TRUE(std::ranges::equal(want.extra(p, a), got.extra(q, a)))
          << "pair " << k << " side " << a;
    }
  }
}

struct Coverage {
  std::size_t pairs = 0;
  std::size_t froze_beside_ok = 0;  ///< a lane conflicted while its twin ran on
  std::size_t pi_driven_d = 0;      ///< pairs probed on a primary input line
  std::size_t pi_driven_detect = 0; ///< ... with a detecting side
  std::size_t d_pin_faults = 0;     ///< faults on a flip-flop's D pin
  /// Faults whose probed time units span three or more 64-lane windows of
  /// the packed collector, the last one partial.
  std::size_t three_windows_partial = 0;
  /// Faults with N_out = 0 frames after their last probed time unit (the
  /// packed window scan skips them).
  std::size_t nout_zero_skips = 0;
  /// Faults the §3.2 check detects at a time unit that is neither the first
  /// lane of its window nor the last time unit with candidates.
  std::size_t detected_mid_window = 0;
};

/// Time units u > 0 with at least one pair, ascending: the lanes the packed
/// collector binds, 64 to a window.
std::vector<std::uint32_t> probed_units(const CollectionResult& r) {
  std::vector<std::uint32_t> units;
  for (const PairInfo& p : r.pairs) {
    if (p.u > 0 && (units.empty() || units.back() != p.u)) units.push_back(p.u);
  }
  return units;
}

/// Collects `f` with the Legacy serial collector and with the SoA packed
/// collector under `opt` (kernel overridden) and compares the two results,
/// also after copying and moving the packed one (the runs its extra() views
/// read live in the result itself). With `work_limit` > 0 each collection runs under its
/// own WorkBudget of that many units, and the budgets must agree too.
/// Returns the serial result.
CollectionResult compare_collectors(const Circuit& c, const TestSequence& test,
                                    const SeqTrace& legacy_good,
                                    const SeqTrace& soa_good, const Fault& f,
                                    Coverage& cov, MotOptions opt = {},
                                    std::uint64_t work_limit = 0) {
  MotOptions legacy_opt = opt;
  legacy_opt.kernel = KernelKind::Legacy;
  opt.kernel = KernelKind::SoA;
  BackwardCollector legacy(c, legacy_opt);
  BackwardCollector soa(c, opt);
  SeqTrace legacy_faulty = ConventionalFaultSimulator(c, KernelKind::Legacy)
                               .simulate_fault(test, f, /*keep_lines=*/true);
  SeqTrace soa_faulty = ConventionalFaultSimulator(c, KernelKind::SoA)
                            .simulate_fault(test, f, true, &soa_good);
  const FaultView fv(c, f);
  WorkBudget legacy_budget(Deadline{}, work_limit);
  WorkBudget soa_budget(Deadline{}, work_limit);
  const CollectionResult want =
      legacy.collect(legacy_good, legacy_faulty, fv,
                     work_limit > 0 ? &legacy_budget : nullptr);
  CollectionResult got =
      soa.collect(soa_good, soa_faulty, fv, work_limit > 0 ? &soa_budget : nullptr);
  expect_same_collection(want, got);
  expect_views_match_sizes(want);
  expect_views_match_sizes(got);
  EXPECT_EQ(legacy_budget.work_used(), soa_budget.work_used());
  EXPECT_EQ(legacy_budget.stop(), soa_budget.stop());
  const CollectionResult copied = got;
  const CollectionResult moved = std::move(got);
  expect_same_collection(want, copied);
  expect_same_collection(want, moved);

  cov.pairs += want.pairs.size();
  if (f.pin == 0 && c.gate(f.gate).type == GateType::Dff) ++cov.d_pin_faults;
  for (const PairInfo& p : want.pairs) {
    if (p.u > 0 && c.gate(c.dff_input(p.i)).type == GateType::Input) {
      ++cov.pi_driven_d;
      if (p.detect[0] || p.detect[1]) ++cov.pi_driven_detect;
    }
    for (int a = 0; a < 2; ++a) {
      if (p.conf[a] && !p.side_closed(1 - a)) ++cov.froze_beside_ok;
    }
  }
  const std::vector<std::uint32_t> units = probed_units(want);
  if (units.size() > 128 && units.size() % 64 != 0) ++cov.three_windows_partial;
  const std::vector<std::size_t> nout = count_nout(legacy_good, legacy_faulty);
  if (!units.empty() && nout.back() == 0 && nout.size() > units.back()) {
    ++cov.nout_zero_skips;
  }
  if (want.detected_by_check && units.size() % 64 != 1) {
    const std::vector<std::size_t> nsv = count_nsv(legacy_faulty);
    for (std::size_t u = want.pairs.back().u + 1; u <= nout.size(); ++u) {
      if (nout[u - 1] > 0 && nsv[u] > 0) {
        ++cov.detected_mid_window;
        break;
      }
    }
  }
  return want;
}

/// The s5378 stand-in under `vectors` random vectors, with every
/// `stride`-th condition-(C) candidate fault plus D-pin stuck faults on two
/// flip-flops.
struct S5378Slice {
  Circuit c = circuits::build_benchmark("s5378");
  TestSequence test;
  SeqTrace legacy_good, soa_good;
  std::vector<Fault> faults;

  S5378Slice(std::size_t vectors, std::size_t stride) {
    Rng rng(5378);
    test = random_sequence(c.num_inputs(), vectors, rng);
    legacy_good =
        SequentialSimulator(c, KernelKind::Legacy).run_fault_free(test, true);
    soa_good = SequentialSimulator(c, KernelKind::SoA).run_fault_free(test, true);
    const std::vector<Fault> all = collapsed_fault_list(c);
    const std::vector<ConvOutcome> conv =
        ConventionalFaultSimulator(c).run(test, soa_good, all);
    std::size_t candidates = 0;
    for (std::size_t k = 0; k < all.size(); ++k) {
      if (conv[k].passes_c && candidates++ % stride == 0) faults.push_back(all[k]);
    }
    for (const std::size_t j : {std::size_t{0}, c.num_dffs() / 2}) {
      faults.push_back(Fault{c.dffs()[j], 0, j == 0 ? Val::Zero : Val::One});
    }
  }
};

TEST(CollectorScale, S5378SliceSerialAndPackedAgreePairByPair) {
  // Every 64th condition-(C) candidate of the s5378 stand-in under 40
  // random vectors (one packed window), plus D-pin stuck faults on two
  // flip-flops.
  const S5378Slice bed(40, 64);
  ASSERT_GE(bed.faults.size(), 12u);
  Coverage cov;
  for (const Fault& f : bed.faults) {
    SCOPED_TRACE(fault_name(bed.c, f));
    compare_collectors(bed.c, bed.test, bed.legacy_good, bed.soa_good, f, cov);
  }
  EXPECT_GT(cov.pairs, 1000u);
  EXPECT_GT(cov.froze_beside_ok, 0u);
  EXPECT_EQ(cov.d_pin_faults, 2u);
}

/// 150 vectors: most faults' probed time units span three 64-lane windows
/// of the packed collector.
const S5378Slice& s5378_slice_150() {
  static const S5378Slice bed(150, 320);
  return bed;
}

TEST(CollectorScale, S5378WindowBoundariesAgreePairByPair) {
  // Probed time units spanning three or more windows, the last one partial
  // and followed by N_out = 0 frames the window scan skips; a §3.2
  // detection mid-window; the D-pin stuck faults.
  const S5378Slice& bed = s5378_slice_150();
  ASSERT_GE(bed.faults.size(), 10u);
  Coverage cov;
  for (const Fault& f : bed.faults) {
    SCOPED_TRACE(fault_name(bed.c, f));
    compare_collectors(bed.c, bed.test, bed.legacy_good, bed.soa_good, f, cov);
  }
  EXPECT_GT(cov.pairs, 50000u);
  EXPECT_GT(cov.three_windows_partial, 0u);
  EXPECT_GT(cov.nout_zero_skips, 0u);
  EXPECT_GT(cov.detected_mid_window, 0u);
  EXPECT_EQ(cov.d_pin_faults, 2u);
}

TEST(CollectorScale, S5378StopsMidWindowAgree) {
  // A max_pairs cap and a work budget that each stop the collection at the
  // second candidate of the 70th probed time unit: mid-frame, and six lanes
  // into the second window. The serial and packed paths must agree on the
  // pairs, the cap flag, the arena size and the work used — and so must
  // whole MotResults under that work limit.
  const S5378Slice& bed = s5378_slice_150();
  std::size_t stopped = 0;
  for (const Fault& f : bed.faults) {
    if (stopped == 2) break;
    SCOPED_TRACE(fault_name(bed.c, f));
    SeqTrace faulty = ConventionalFaultSimulator(bed.c).simulate_fault(
        bed.test, f, true, &bed.soa_good);
    const CollectionResult full = BackwardCollector(bed.c, MotOptions{})
                                      .collect(bed.soa_good, faulty,
                                               FaultView(bed.c, f));
    const std::vector<std::uint32_t> units = probed_units(full);
    if (units.size() < 80) continue;
    const auto at = std::ranges::find_if(
        full.pairs, [&](const PairInfo& p) { return p.u == units[69]; });
    const std::size_t k = static_cast<std::size_t>(at - full.pairs.begin()) + 1;
    if (full.pairs[k].u != units[69]) continue;  // one candidate only
    ++stopped;

    Coverage cov;
    MotOptions cap;
    cap.max_pairs = k;
    const CollectionResult capped = compare_collectors(
        bed.c, bed.test, bed.legacy_good, bed.soa_good, f, cov, cap);
    EXPECT_TRUE(capped.capped);
    EXPECT_EQ(capped.pairs.size(), k);

    // The u = 0 pairs are synthesized without a poll; every later pair
    // polls two units, so pair k's poll exhausts this budget.
    const auto n0 = static_cast<std::uint64_t>(std::ranges::count_if(
        full.pairs, [](const PairInfo& p) { return p.u == 0; }));
    const std::uint64_t limit = 2 * (k - n0) + 1;
    const CollectionResult budgeted = compare_collectors(
        bed.c, bed.test, bed.legacy_good, bed.soa_good, f, cov, {}, limit);
    EXPECT_FALSE(budgeted.capped);
    EXPECT_EQ(budgeted.pairs.size(), k);

    MotOptions legacy_opt, soa_opt;
    legacy_opt.kernel = KernelKind::Legacy;
    legacy_opt.per_fault_work_limit = soa_opt.per_fault_work_limit = limit;
    const MotResult want = MotFaultSimulator(bed.c, legacy_opt)
                               .simulate_fault(bed.test, bed.legacy_good, f);
    const MotResult got = MotFaultSimulator(bed.c, soa_opt)
                              .simulate_fault(bed.test, bed.soa_good, f);
    EXPECT_EQ(want, got);
    EXPECT_EQ(got.unresolved, UnresolvedReason::WorkLimit);
    EXPECT_EQ(got.work_used, limit + 1);  // the stopping poll's two units
  }
  EXPECT_EQ(stopped, 2u);
}

TEST(CollectorScale, PrimaryInputDrivenDPinAgrees) {
  // q's D pin is the primary input `a`; an X on `a` leaves q unknown, so
  // its probes seed an input line directly, and only the input's readers
  // carry the seed on. With `c` stuck-at-1 and c = 0, z = AND(a, c) is 0
  // fault-free but `a` in the faulty machine: the probe a = 1 detects.
  CircuitBuilder b("pi_d");
  const GateId a = b.add_input("a");
  const GateId in_c = b.add_input("c");
  const GateId q = b.declare("q");
  b.define(q, GateType::Dff, {a});
  b.mark_output(b.add_gate(GateType::And, "z", {a, in_c}));
  b.mark_output(b.add_gate(GateType::Not, "zq", {q}));
  const Circuit c = b.build_or_throw();
  const TestSequence test = seq({"x0", "00", "x0", "10", "x1", "00"});
  const SeqTrace legacy_good =
      SequentialSimulator(c, KernelKind::Legacy).run_fault_free(test, true);
  const SeqTrace soa_good =
      SequentialSimulator(c, KernelKind::SoA).run_fault_free(test, true);
  Coverage cov;
  for (const Fault& f : enumerate_faults(c)) {
    SCOPED_TRACE(fault_name(c, f));
    compare_collectors(c, test, legacy_good, soa_good, f, cov);
  }
  EXPECT_GT(cov.pi_driven_d, 0u);
  EXPECT_GT(cov.pi_driven_detect, 0u);
}

TEST(CollectorScale, SharedDPinDriverAgrees) {
  // g = NAND(a, q3) drives the D pins of both q1 and q2, so one implied line
  // extends two flip-flops' extra() sets at once; q3 = DFF(q1) chains them.
  // Every fault of the uncollapsed list, D-pin faults on q1 and q2
  // included.
  CircuitBuilder b("shared_d");
  const GateId a = b.add_input("a");
  const GateId in_b = b.add_input("b");
  const GateId q1 = b.declare("q1");
  const GateId q2 = b.declare("q2");
  const GateId q3 = b.declare("q3");
  const GateId g = b.add_gate(GateType::Nand, "g", {a, q3});
  b.define(q1, GateType::Dff, {g});
  b.define(q2, GateType::Dff, {g});
  b.define(q3, GateType::Dff, {q1});
  b.mark_output(b.add_gate(GateType::Xor, "z", {q2, in_b}));
  b.mark_output(b.add_gate(GateType::And, "y", {q1, q3, in_b}));
  const Circuit c = b.build_or_throw();
  const TestSequence test =
      seq({"x1", "1x", "x0", "01", "x1", "11", "xx", "10", "x1", "01"});
  const SeqTrace legacy_good =
      SequentialSimulator(c, KernelKind::Legacy).run_fault_free(test, true);
  const SeqTrace soa_good =
      SequentialSimulator(c, KernelKind::SoA).run_fault_free(test, true);
  Coverage cov;
  std::size_t both_d_pins = 0;
  for (const Fault& f : enumerate_faults(c)) {
    SCOPED_TRACE(fault_name(c, f));
    const CollectionResult r =
        compare_collectors(c, test, legacy_good, soa_good, f, cov);
    for (const PairInfo& p : r.pairs) {
      for (int side = 0; side < 2; ++side) {
        std::size_t hits = 0;
        for (const auto& [j, v] : r.extra(p, side)) {
          (void)v;
          hits += j == 0 || j == 1;
        }
        both_d_pins += p.u > 0 && hits == 2;
      }
    }
  }
  EXPECT_GT(cov.pairs, 0u);
  EXPECT_EQ(cov.d_pin_faults, 6u);
  EXPECT_GT(both_d_pins, 0u);
}

TEST(CollectorScale, StateLeftUnknownBesideASpecifiedDPinAgrees) {
  // Each fault's trace is edited so that one state y_j at a probed time
  // unit u is X although its D pin is specified at u - 1. The probes read
  // that D pin as it stands, so y_j enters every Ok probe's extra() set at
  // u without any implication writing it; serial and packed agree on that
  // too.
  const Circuit c = circuits::make_s27();
  Rng rng(27);
  const TestSequence test = random_sequence(c.num_inputs(), 12, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(test, true);
  MotOptions serial_opt, packed_opt;
  serial_opt.kernel = KernelKind::Legacy;
  packed_opt.kernel = KernelKind::SoA;
  std::size_t edited = 0;
  for (const Fault& f : enumerate_faults(c)) {
    SCOPED_TRACE(fault_name(c, f));
    SeqTrace faulty = ConventionalFaultSimulator(c).simulate_fault(
        test, f, /*keep_lines=*/true, &good);
    const std::vector<std::size_t> nout = count_nout(good, faulty);
    bool done = false;
    for (std::size_t u = 1; u <= test.length() && !done; ++u) {
      if (nout[u - 1] == 0) continue;
      for (std::size_t j = 0; j < c.num_dffs() && !done; ++j) {
        if (!is_specified(faulty.states[u][j])) continue;
        faulty.states[u][j] = Val::X;
        done = true;
      }
    }
    edited += done;
    SeqTrace copy = faulty;
    const FaultView fv(c, f);
    const CollectionResult want =
        BackwardCollector(c, serial_opt).collect(good, faulty, fv);
    const CollectionResult got =
        BackwardCollector(c, packed_opt).collect(good, copy, fv);
    expect_same_collection(want, got);
  }
  EXPECT_GT(edited, 0u);
}

}  // namespace
}  // namespace motsim
