// Tests for the experiment harness: pipeline consistency and the table
// renderers.
#include <gtest/gtest.h>

#include "circuits/embedded.hpp"
#include "experiments/experiments.hpp"
#include "experiments/report.hpp"
#include "testgen/random_gen.hpp"

namespace motsim {
namespace {

using namespace experiments;

RunResult small_run() {
  const Circuit c = circuits::make_table1_example();
  Rng rng(3);
  const TestSequence t = random_sequence(c.num_inputs(), 20, rng);
  return run_circuit(c, t, RunConfig{});
}

TEST(Experiments, PipelineFieldConsistency) {
  const RunResult r = small_run();
  EXPECT_EQ(r.circuit, "table1");
  EXPECT_GT(r.total_faults, 0u);
  EXPECT_LE(r.conv_detected, r.total_faults);
  EXPECT_LE(r.proposed_extra + r.conv_detected, r.total_faults);
  EXPECT_LE(r.processed, r.candidates);
  EXPECT_FALSE(r.capped);
  EXPECT_TRUE(r.baseline_available);
  // Dominance holds by construction (fallback enabled).
  EXPECT_EQ(r.baseline_only, 0u);
  EXPECT_GE(r.proposed_extra, r.baseline_extra);
}

TEST(Experiments, MotMachineryFindsExtraDetections) {
  const RunResult r = small_run();
  EXPECT_GT(r.proposed_extra, 0u);
  EXPECT_GT(r.avg_extra, 0.0);
}

TEST(Experiments, CapIsAppliedAndReported) {
  const Circuit c = circuits::make_table1_example();
  Rng rng(3);
  const TestSequence t = random_sequence(c.num_inputs(), 20, rng);
  RunConfig config;
  config.max_mot_faults = 1;
  const RunResult r = run_circuit(c, t, config);
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(r.processed, 1u);
}

TEST(Experiments, RunBenchmarkSmallProfile) {
  const auto* profile = circuits::find_profile("s298");
  ASSERT_NE(profile, nullptr);
  RunConfig config;
  config.max_mot_faults = 10;  // keep the unit test fast
  const RunResult r = run_benchmark(*profile, config);
  EXPECT_EQ(r.circuit, "s298");
  EXPECT_GT(r.conv_detected, 0u);
  EXPECT_TRUE(r.baseline_available);
}

TEST(Experiments, HeavyProfileDisablesBaselineAndCaps) {
  // Use the s15850 profile but shrink the work through the cap; baseline
  // must be reported NA as in the paper.
  const auto* profile = circuits::find_profile("s15850");
  ASSERT_NE(profile, nullptr);
  ASSERT_TRUE(profile->heavy);
  // Building the full 9772-gate circuit is fine; just cap the MOT work.
  RunConfig config;
  config.max_mot_faults = 2;
  const RunResult r = run_benchmark(*profile, config);
  EXPECT_FALSE(r.baseline_available);
  EXPECT_LE(r.processed, 2u);
}

TEST(Report, Table2ContainsRowsAndNA) {
  RunResult a = small_run();
  RunResult b = a;
  b.circuit = "other";
  b.baseline_available = false;
  const std::string table = render_table2({a, b});
  EXPECT_NE(table.find("table1"), std::string::npos);
  EXPECT_NE(table.find("other"), std::string::npos);
  EXPECT_NE(table.find("NA"), std::string::npos);
  EXPECT_NE(table.find("proposed"), std::string::npos);
}

TEST(Report, Table3AndDiagnosticsRender) {
  const RunResult r = small_run();
  const std::string t3 = render_table3({r});
  EXPECT_NE(t3.find("detect"), std::string::npos);
  EXPECT_NE(t3.find("table1"), std::string::npos);
  const std::string diag = render_diagnostics({r});
  EXPECT_NE(diag.find("cand. (C)"), std::string::npos);
  EXPECT_NE(diag.find("seconds"), std::string::npos);
}

TEST(Report, PrepassWorkRendersTheCountsOfEveryRow) {
  RunResult a = small_run();
  ASSERT_GT(a.prepass_stats.gates_evaluated, 0u);
  RunResult b;
  b.circuit = "b";
  b.prepass_stats = PrepassStats{78000, 16218970, 423412, 425755};
  const std::string work = render_prepass_work({a, b});
  for (const char* h : {"circuit", "group-frames", "gates evaluated",
                        "state entries", "latch entries"}) {
    EXPECT_NE(work.find(h), std::string::npos) << h;
  }
  EXPECT_NE(work.find("| table1 "), std::string::npos);
  const std::size_t row = work.find("| b ");
  ASSERT_NE(row, std::string::npos) << work;
  std::size_t at = row;
  for (const char* cell : {" 78000 |", " 16218970 |", " 423412 |",
                           " 425755 |"}) {
    at = work.find(cell, at);
    ASSERT_NE(at, std::string::npos) << cell << " in\n" << work;
  }
  EXPECT_NE(work.find(std::to_string(a.prepass_stats.gates_evaluated)),
            std::string::npos);
  // No timing column: the table is the same for every run of one input.
  EXPECT_EQ(work.find("second"), std::string::npos);
}

TEST(Experiments, HitecExperimentRunsOnS27) {
  RunConfig config;
  const HitecExperimentResult r = run_hitec_experiment("s27", config);
  EXPECT_GT(r.sequence_length, 0u);
  EXPECT_EQ(r.run.circuit, "s27");
  EXPECT_GT(r.run.conv_detected, 0u);
}

}  // namespace
}  // namespace motsim
