// Golden-file pinning of the Table 3 effectiveness counters.
//
// The EffectivenessCounters (n_det / n_conf / n_extra) are the paper's
// evidence that backward implications do useful work per selected pair.
// Heuristic reorderings elsewhere in the engine can silently change them
// without failing any soundness test, so this test pins their exact values
// (plus the detection counts) for the embedded paper circuits under fixed
// stimulus.
//
// GoldenTables pins every Table 2 / Table 3 row of the uncapped 13-circuit
// suite (tests/golden/table2_suite.txt). It takes minutes, so it runs as the
// nightly ctest golden_tables_nightly and the tier-1 entry filters it out.
//
// To regenerate after an intentional engine change:
//   MOTSIM_UPDATE_GOLDEN=1 ./build/tests/golden_counters_test
// then review the diff of tests/golden/*.txt like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuits/embedded.hpp"
#include "experiments/experiments.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"
#include "util/strings.hpp"

#ifndef MOTSIM_GOLDEN_DIR
#error "MOTSIM_GOLDEN_DIR must point at tests/golden"
#endif

namespace motsim {
namespace {

struct GoldenRow {
  std::string circuit;
  std::uint64_t n_det = 0;
  std::uint64_t n_conf = 0;
  std::uint64_t n_extra = 0;
  std::size_t detected = 0;
  std::size_t detected_conventional = 0;
};

GoldenRow measure(const Circuit& c, std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  const TestSequence test = random_sequence(c.num_inputs(), length, rng);
  const SequentialSimulator sim(c);
  const SeqTrace good = sim.run_fault_free(test);
  MotOptions options;
  options.n_states = 16;
  MotFaultSimulator mot(c, options);
  GoldenRow row;
  row.circuit = c.name();
  for (const Fault& f : collapsed_fault_list(c)) {
    const MotResult r = mot.simulate_fault(test, good, f);
    row.n_det += r.counters.n_det;
    row.n_conf += r.counters.n_conf;
    row.n_extra += r.counters.n_extra;
    row.detected += r.detected;
    row.detected_conventional += r.detected_conventional;
  }
  return row;
}

std::string render(const GoldenRow& r) {
  std::ostringstream out;
  out << r.circuit << " n_det=" << r.n_det << " n_conf=" << r.n_conf
      << " n_extra=" << r.n_extra << " detected=" << r.detected
      << " conv=" << r.detected_conventional;
  return out.str();
}

// Compares `rows` line by line against the golden file `name`, or rewrites
// it (and skips) when MOTSIM_UPDATE_GOLDEN is set.
void expect_golden(const std::string& name, const std::string& title,
                   const std::vector<std::string>& rows) {
  const std::string path = std::string(MOTSIM_GOLDEN_DIR) + "/" + name;
  if (std::getenv("MOTSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "# " << title << ", pinned. Regenerate with\n"
        << "# MOTSIM_UPDATE_GOLDEN=1 and review the diff.\n";
    for (const std::string& r : rows) out << r << "\n";
    GTEST_SKIP() << "golden file regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with MOTSIM_UPDATE_GOLDEN=1 to create it)";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], expected[i]);
  }
}

TEST(GoldenCounters, EmbeddedCircuitsMatchPinnedValues) {
  std::vector<std::string> rows;
  rows.push_back(render(measure(circuits::make_s27(), 11, 16)));
  rows.push_back(render(measure(circuits::make_table1_example(), 12, 12)));
  rows.push_back(render(measure(circuits::make_fig4_conflict(), 13, 12)));
  expect_golden("effectiveness_counters.txt",
                "Table 3 effectiveness counters", rows);
}

// One Table 2 row with its diagnostics and Table 3 cells, in the precision
// the tables print them. [4]'s columns read NA on the heavy circuits.
std::string render_suite_row(const experiments::RunResult& r) {
  const auto baseline = [&](std::size_t v) {
    return r.baseline_available ? std::to_string(v) : std::string("NA");
  };
  std::ostringstream out;
  out << r.circuit << " total=" << r.total_faults
      << " conv=" << r.conv_detected << " cand=" << r.candidates
      << " processed=" << r.processed
      << " b4_extra=" << baseline(r.baseline_extra)
      << " prop_extra=" << r.proposed_extra
      << " baseline_only=" << baseline(r.baseline_only)
      << " prop_det_b4_abort=" << baseline(r.proposed_detected_baseline_aborted)
      << " pair_capped=" << r.collection_capped_faults
      << " t3=" << str_format("%.2f/%.2f/%.2f", r.avg_det, r.avg_conf,
                               r.avg_extra);
  return out.str();
}

TEST(GoldenTables, UncappedSuiteMatchesPinnedRows) {
  experiments::RunConfig config;
  config.mot.num_threads = 0;  // all hardware threads; rows are invariant
  std::vector<std::string> rows;
  for (const auto& profile : circuits::benchmark_suite()) {
    const experiments::RunResult r =
        experiments::run_benchmark(profile, config);
    ASSERT_FALSE(r.capped) << r.circuit;
    ASSERT_EQ(r.processed, r.candidates) << r.circuit;
    rows.push_back(render_suite_row(r));
  }
  expect_golden("table2_suite.txt",
                "Table 2 / Table 3 rows of the uncapped suite", rows);
}

}  // namespace
}  // namespace motsim
