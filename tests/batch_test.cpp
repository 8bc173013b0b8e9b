// Tests for MotBatchRunner: determinism across thread counts, equivalence
// of the 1-thread path with the historical serial experiment loop, and
// thread-count invariance of the parallel conventional pre-pass.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "circuits/embedded.hpp"
#include "circuits/generator.hpp"
#include "circuits/registry.hpp"
#include "experiments/experiments.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/parallel.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

struct Pipeline {
  Circuit circuit;
  TestSequence test;
  SeqTrace good;
  std::vector<Fault> faults;
  std::vector<std::size_t> candidates;  // undetected, passes condition (C)
};

Pipeline prepare(Circuit c, std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  TestSequence test = random_sequence(c.num_inputs(), length, rng);
  const SequentialSimulator sim(c);
  SeqTrace good = sim.run_fault_free(test);
  std::vector<Fault> faults = collapsed_fault_list(c);
  const ParallelFaultSimulator pfs(c);
  const std::vector<ConvOutcome> conv = pfs.run(test, good, faults);
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (!conv[k].detected && conv[k].passes_c) candidates.push_back(k);
  }
  return {std::move(c), std::move(test), std::move(good), std::move(faults),
          std::move(candidates)};
}

void expect_items_identical(const std::vector<MotBatchItem>& a,
                            const std::vector<MotBatchItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault_index, b[i].fault_index) << "item " << i;
    EXPECT_EQ(a[i].mot, b[i].mot) << "item " << i;
    EXPECT_EQ(a[i].baseline, b[i].baseline) << "item " << i;
  }
}

TEST(PerFaultSelectionSeed, DeterministicAndSpread) {
  EXPECT_EQ(per_fault_selection_seed(7, 3), per_fault_selection_seed(7, 3));
  EXPECT_NE(per_fault_selection_seed(7, 3), per_fault_selection_seed(7, 4));
  EXPECT_NE(per_fault_selection_seed(7, 3), per_fault_selection_seed(8, 3));
}

// The 1-thread runner must be bit-identical to the historical serial loop:
// one conventional trace per fault shared by the proposed procedure and the
// [4] baseline, faults in input order, one long-lived simulator pair.
TEST(MotBatchRunner, OneThreadMatchesHistoricalSerialLoop) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;

  MotFaultSimulator proposed(p.circuit, opt);
  ExpansionBaseline baseline(p.circuit, opt);
  const ConventionalFaultSimulator conv(p.circuit);
  const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> items =
      runner.run(p.test, p.good, p.faults, p.candidates);

  ASSERT_EQ(items.size(), p.candidates.size());
  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    const std::size_t k = p.candidates[i];
    EXPECT_EQ(items[i].fault_index, k);
    SeqTrace faulty =
        conv.simulate_fault(p.test, p.faults[k], /*keep_lines=*/true);
    const MotResult want =
        proposed.simulate_fault(p.test, p.good, p.faults[k], faulty);
    const BaselineResult want_base =
        baseline.simulate_fault(p.test, p.good, p.faults[k], faulty);
    EXPECT_EQ(items[i].mot, want) << "fault " << k;
    EXPECT_EQ(items[i].baseline, want_base) << "fault " << k;
  }
}

TEST(MotBatchRunner, IdenticalResultsAtOneTwoAndEightThreads) {
  for (const char* name : {"table1", "s27"}) {
    const Pipeline p =
        prepare(std::string(name) == "table1" ? circuits::make_table1_example()
                                              : circuits::build_benchmark(name),
                24, 11);
    MotOptions opt;
    std::vector<std::vector<MotBatchItem>> runs;
    for (std::size_t threads : {1u, 2u, 8u}) {
      opt.num_threads = threads;
      const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/true);
      EXPECT_EQ(runner.threads(), threads);
      runs.push_back(runner.run(p.test, p.good, p.faults, p.candidates));
    }
    expect_items_identical(runs[0], runs[1]);
    expect_items_identical(runs[0], runs[2]);
  }
}

// SelectionPolicy::Random draws from the per-simulator RNG; the per-fault
// reseed makes results independent of which thread simulates which fault.
TEST(MotBatchRunner, RandomSelectionPolicyIsThreadCountInvariant) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 5);
  MotOptions opt;
  opt.selection = SelectionPolicy::Random;
  opt.selection_seed = 0xfeedULL;
  std::vector<std::vector<MotBatchItem>> runs;
  for (std::size_t threads : {1u, 8u}) {
    opt.num_threads = threads;
    const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/false);
    runs.push_back(runner.run(p.test, p.good, p.faults, p.candidates));
  }
  expect_items_identical(runs[0], runs[1]);
}

TEST(MotBatchRunner, RunAllCoversEveryFaultInOrder) {
  const Pipeline p = prepare(circuits::make_table1_example(), 12, 9);
  MotOptions opt;
  opt.num_threads = 2;
  const MotBatchRunner runner(p.circuit, opt);
  const std::vector<MotBatchItem> items =
      runner.run(p.test, p.good, p.faults, std::vector<std::size_t>{});
  EXPECT_TRUE(items.empty());
  const std::vector<MotBatchItem> all = runner.run_all(p.test, p.good, p.faults);
  ASSERT_EQ(all.size(), p.faults.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].fault_index, i);
  }
}

// A cancelled campaign still yields one outcome per requested fault, in
// order, with every skipped fault explicitly Unresolved{Cancelled}.
TEST(MotBatchRunner, PreCancelledCampaignLosesNoOutcome) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 4;
  const MotBatchRunner runner(p.circuit, opt, /*run_baseline=*/true);
  CancelToken cancel;
  cancel.cancel();
  const std::vector<MotBatchItem> items =
      runner.run(p.test, p.good, p.faults, p.candidates, nullptr, &cancel);
  ASSERT_EQ(items.size(), p.candidates.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].fault_index, p.candidates[i]);
    EXPECT_FALSE(items[i].completed);
    EXPECT_EQ(items[i].mot.unresolved, UnresolvedReason::Cancelled);
    EXPECT_EQ(items[i].baseline.unresolved, UnresolvedReason::Cancelled);
  }
}

// A campaign deadline mid-batch: lanes stop claiming faults, the in-flight
// ones stop through their budget polls, and the result still has exactly
// one outcome per fault — every completed item identical to the
// uninterrupted run's, every other item marked Unresolved{Cancelled}.
TEST(MotBatchRunner, CampaignDeadlineStopsCleanlyWithoutLosingOutcomes) {
  circuits::GeneratorParams params;
  params.name = "grind";
  params.num_inputs = 6;
  params.num_outputs = 4;
  params.num_dffs = 18;
  params.num_comb_gates = 90;
  params.uninit_fraction = 0.8;
  params.seed = 5;
  Pipeline p = prepare(circuits::generate(params), 40, 23);
  ASSERT_GE(p.candidates.size(), 4u);
  if (p.candidates.size() > 10) p.candidates.resize(10);

  MotOptions opt;
  opt.n_states = 256;
  opt.num_threads = 4;
  const MotBatchRunner unbounded(p.circuit, opt, /*run_baseline=*/false);
  const std::vector<MotBatchItem> reference =
      unbounded.run(p.test, p.good, p.faults, p.candidates);

  opt.campaign_time_ms = 1;
  const MotBatchRunner bounded(p.circuit, opt, /*run_baseline=*/false);
  const std::vector<MotBatchItem> items =
      bounded.run(p.test, p.good, p.faults, p.candidates);
  ASSERT_EQ(items.size(), p.candidates.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].fault_index, p.candidates[i]);
    if (items[i].completed) {
      EXPECT_EQ(items[i], reference[i]) << "item " << i;
    } else {
      EXPECT_EQ(items[i].mot.unresolved, UnresolvedReason::Cancelled);
    }
  }
}

TEST(ParallelFaultSimulator, ThreadCountDoesNotChangeOutcomes) {
  const Circuit c = circuits::build_benchmark("s27");
  Rng rng(17);
  const TestSequence test = random_sequence(c.num_inputs(), 32, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(test);
  const std::vector<Fault> faults = collapsed_fault_list(c);
  const ParallelFaultSimulator pfs(c);
  const std::vector<ConvOutcome> serial = pfs.run(test, good, faults, 1);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const std::vector<ConvOutcome> par = pfs.run(test, good, faults, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t k = 0; k < serial.size(); ++k) {
      EXPECT_EQ(par[k].detected, serial[k].detected) << k;
      EXPECT_EQ(par[k].passes_c, serial[k].passes_c) << k;
    }
  }
}

// The whole experiment pipeline: every aggregate is identical no matter the
// thread count.
TEST(Experiments, RunCircuitThreadCountInvariant) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(3);
  const TestSequence t = random_sequence(c.num_inputs(), 20, rng);
  experiments::RunConfig config;
  config.mot.num_threads = 1;
  const experiments::RunResult serial = experiments::run_circuit(c, t, config);
  config.mot.num_threads = 3;
  const experiments::RunResult par = experiments::run_circuit(c, t, config);
  EXPECT_EQ(par.threads, 3u);
  EXPECT_EQ(par.conv_detected, serial.conv_detected);
  EXPECT_EQ(par.candidates, serial.candidates);
  EXPECT_EQ(par.proposed_extra, serial.proposed_extra);
  EXPECT_EQ(par.baseline_extra, serial.baseline_extra);
  EXPECT_EQ(par.baseline_only, serial.baseline_only);
  EXPECT_EQ(par.proposed_detected_baseline_aborted,
            serial.proposed_detected_baseline_aborted);
  EXPECT_EQ(par.avg_det, serial.avg_det);
  EXPECT_EQ(par.avg_conf, serial.avg_conf);
  EXPECT_EQ(par.avg_extra, serial.avg_extra);
  EXPECT_GT(serial.prepass_stats.gates_evaluated, 0u);
  EXPECT_EQ(par.prepass_stats.group_frames, serial.prepass_stats.group_frames);
  EXPECT_EQ(par.prepass_stats.gates_evaluated,
            serial.prepass_stats.gates_evaluated);
}

}  // namespace
}  // namespace motsim
