// Regenerates the paper's Tables 2 and 3 from one run of the full 13-circuit
// suite, N_STATES = 64, every condition-(C) candidate processed.
//
// Table 2: detected faults under random patterns — conventional vs. the [4]
// expansion baseline vs. the proposed backward-implication procedure.
// Table 3: the effectiveness of backward implications, as per-fault
// averages of detection sides (N_det), conflict sides (N_conf) and implied
// state-variable values (N_extra) over the faults the proposed procedure
// detected. Without backward implications N_det = N_conf = 0 and
// N_extra <= 12 (six expansions, two values each); values far above that
// quantify what the implications contribute.
//
// The circuits are registry stand-ins matched to the published benchmark
// interfaces (see DESIGN.md §3); absolute counts differ from the paper, the
// comparisons (proposed ⊇ [4] ⊇ conventional; where the extra detections
// concentrate) are the reproduced result. As in the paper, the baseline is
// NA on the two heavy circuits.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "experiments/report.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"

namespace {

using namespace motsim;
using namespace motsim::experiments;

void reproduction() {
  benchutil::heading("Tables 2 and 3: random patterns (N_STATES = 64)");
  RunConfig config;
  std::vector<RunResult> rows;
  for (const auto& profile : circuits::benchmark_suite()) {
    std::printf("running %-8s ...\n", profile.name.c_str());
    std::fflush(stdout);
    rows.push_back(run_benchmark(profile, config));
  }
  std::printf("\nTable 2: detected faults using random patterns\n%s\n",
              render_table2(rows).c_str());
  std::printf("Table 3: effectiveness of backward implications\n%s\n",
              render_table3(rows).c_str());
  std::printf("Diagnostics (no counterpart in the paper):\n%s\n",
              render_diagnostics(rows).c_str());
  std::printf("Paper-shape checks:\n");
  bool dominance = true;
  std::size_t proposed_wins = 0;
  std::size_t above = 0;
  for (const RunResult& r : rows) {
    dominance = dominance && r.baseline_only == 0;
    if (r.baseline_available && r.proposed_extra > r.baseline_extra) {
      ++proposed_wins;
    }
    above += r.avg_extra > 12.0;
  }
  std::printf("  every [4]-detected fault also detected by proposed: %s\n",
              dominance ? "yes (matches the paper)" : "NO");
  std::printf("  circuits where proposed finds strictly more than [4]: %zu\n",
              proposed_wins);
  std::printf("  rows with extra above the no-implication ceiling of 12: "
              "%zu/%zu\n", above, rows.size());
}

void bm_run_small_circuit(benchmark::State& state) {
  const auto* profile = circuits::find_profile("s298");
  RunConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_benchmark(*profile, config));
  }
}
BENCHMARK(bm_run_small_circuit)->Unit(benchmark::kMillisecond)->Iterations(3);

void bm_counters_per_fault(benchmark::State& state) {
  const Circuit c = circuits::build_benchmark("s344");
  Rng rng(7);
  const TestSequence t = random_sequence(c.num_inputs(), 120, rng);
  const SeqTrace good = SequentialSimulator(c).run_fault_free(t);
  // A condition-(C) candidate to time the collection machinery on.
  MotFaultSimulator proposed(c);
  const auto faults = collapsed_fault_list(c);
  const Fault* candidate = nullptr;
  for (const Fault& f : faults) {
    const MotResult r = proposed.simulate_fault(t, good, f);
    if (r.passes_c) {
      candidate = &f;
      break;
    }
  }
  if (candidate == nullptr) {
    state.SkipWithError("no condition-C candidate");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(proposed.simulate_fault(t, good, *candidate));
  }
}
BENCHMARK(bm_counters_per_fault)->Unit(benchmark::kMillisecond);

}  // namespace

MOTSIM_BENCH_MAIN(reproduction)
