// Reproduces the paper's Table 1 — the worked example where conventional
// simulation cannot identify a detected fault and one state expansion can —
// on the embedded 2-FF/3-PO illustration machine, and times the full
// proposed procedure on that fault.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "circuits/embedded.hpp"
#include "mot/baseline.hpp"
#include "mot/collector.hpp"
#include "mot/proposed.hpp"
#include "mot/state_set.hpp"
#include "testgen/random_gen.hpp"

namespace {

using namespace motsim;

struct Workload {
  Circuit c = circuits::make_table1_example();
  TestSequence test;
  SeqTrace good;
  Fault fault{};
};

/// Finds a fault that conventional simulation misses and the proposed
/// procedure detects, over a short random sequence (as in Table 1).
std::optional<Workload> find_workload() {
  Workload w;
  Rng rng(31);
  w.test = random_sequence(w.c.num_inputs(), 8, rng);
  w.good = SequentialSimulator(w.c).run_fault_free(w.test);
  MotFaultSimulator proposed(w.c);
  for (const Fault& f : collapsed_fault_list(w.c)) {
    const MotResult r = proposed.simulate_fault(w.test, w.good, f);
    if (r.detected && !r.detected_conventional && r.expansions > 0) {
      w.fault = f;
      return w;
    }
  }
  return std::nullopt;
}

void print_rows(const char* label, const std::vector<std::vector<Val>>& rows,
                std::size_t limit) {
  std::printf("  %-8s", label);
  for (std::size_t u = 0; u < limit; ++u) {
    std::printf(" %s", vals_to_string(rows[u].data(), rows[u].size()).c_str());
  }
  std::printf("\n");
}

void reproduction() {
  benchutil::heading("Table 1: state expansion on a fault conventional "
                     "simulation cannot identify");
  const auto w = find_workload();
  if (!w) {
    std::printf("no suitable fault found (unexpected)\n");
    return;
  }
  const std::size_t L = w->test.length();
  std::printf("circuit: %s, fault: %s, test length %zu\n\n",
              w->c.name().c_str(), fault_name(w->c, w->fault).c_str(), L);

  std::printf("(a) conventional simulation — time units 0..%zu\n", L - 1);
  print_rows("ff state", w->good.states, L);
  print_rows("ff out", w->good.outputs, L);
  const FaultView fv(w->c, w->fault);
  const SequentialSimulator sim(w->c);
  SeqTrace faulty = sim.run(w->test, fv, /*keep_lines=*/true);
  print_rows("f state", faulty.states, L);
  print_rows("f out", faulty.outputs, L);
  std::printf("  -> no output conflicts: the fault is NOT declared detected "
              "conventionally\n\n");

  // One expansion, as in Table 1(b): collect, pick the first valid pair,
  // duplicate, resimulate.
  BackwardCollector collector(w->c, MotOptions{});
  const CollectionResult collected = collector.collect(w->good, faulty, fv);
  StateSet set(w->c, w->test, w->good, fv, faulty);
  const std::vector<std::size_t> nout = count_nout(w->good, faulty);
  for (const PairInfo& p : collected.pairs) {
    if (!p.both_open() || p.u >= nout.size() || nout[p.u] == 0) continue;
    std::printf("(b) after expansion of state variable y%u at time unit %u\n",
                p.i, p.u);
    auto e0 = collected.extra(p, 0);
    auto e1 = collected.extra(p, 1);
    set.split(p.u, std::vector<StateAssign>(e0.begin(), e0.end()),
              std::vector<StateAssign>(e1.begin(), e1.end()));
    break;
  }
  set.resimulate();
  for (std::size_t s = 0; s < set.size(); ++s) {
    const SeqStatus status = set.status(s);
    std::printf("  sequence %zu (%s):\n", s + 1,
                status == SeqStatus::Detected
                    ? "fault detected"
                    : status == SeqStatus::Infeasible ? "infeasible"
                                                      : "still active");
    std::vector<std::vector<Val>> states(L + 1);
    for (std::size_t u = 0; u <= L; ++u) {
      for (std::size_t j = 0; j < w->c.num_dffs(); ++j) {
        states[u].push_back(set.state(s, u, j));
      }
    }
    print_rows("state", states, L);
  }

  MotFaultSimulator proposed(w->c);
  const MotResult r = proposed.simulate_fault(w->test, w->good, w->fault);
  std::printf("\nproposed procedure verdict: %s (expansions: %zu, "
              "sequences: %zu)\n",
              r.detected ? "DETECTED under restricted MOT" : "not detected",
              r.expansions, r.final_sequences);
}

void bm_proposed_on_table1_fault(benchmark::State& state) {
  const auto w = find_workload();
  if (!w) {
    state.SkipWithError("no workload");
    return;
  }
  MotFaultSimulator proposed(w->c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proposed.simulate_fault(w->test, w->good, w->fault));
  }
}
BENCHMARK(bm_proposed_on_table1_fault);

void bm_baseline_on_table1_fault(benchmark::State& state) {
  const auto w = find_workload();
  if (!w) {
    state.SkipWithError("no workload");
    return;
  }
  ExpansionBaseline baseline(w->c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline.simulate_fault(w->test, w->good, w->fault));
  }
}
BENCHMARK(bm_baseline_on_table1_fault);

}  // namespace

MOTSIM_BENCH_MAIN(reproduction)
