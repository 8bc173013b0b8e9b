// Quickstart: load a circuit, simulate a test sequence, and run the three
// fault-simulation procedures (conventional, [4] expansion baseline, and the
// proposed backward-implication procedure) on its fault list.
//
// Usage:
//   quickstart [--bench path/to/circuit.bench] [--length 32] [--seed 7]
//              [--patterns stimulus.txt]
//
// Without --bench it runs on the embedded ISCAS-89 s27; without --patterns
// a random sequence is used.
#include <cstdio>

#include "circuits/embedded.hpp"
#include "fault/fault.hpp"
#include "mot/baseline.hpp"
#include "mot/proposed.hpp"
#include "netlist/bench_io.hpp"
#include "sim/pattern_io.hpp"
#include "testgen/random_gen.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace motsim;
  const CliArgs args(argc, argv);
  const std::string bench_path = args.get("bench", "");
  const std::string patterns_path = args.get("patterns", "");
  const std::size_t length = args.get_count("length", 32);
  const std::uint64_t seed = args.get_count("seed", 7);
  if (!args.finish()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }

  Circuit circuit;
  if (bench_path.empty()) {
    circuit = circuits::make_s27();
  } else {
    BenchParseResult parsed = parse_bench_file(bench_path);
    if (!parsed.ok) {
      std::fprintf(stderr, "error: %s (line %zu)\n", parsed.error.c_str(),
                   parsed.error_line);
      return 1;
    }
    circuit = std::move(parsed.circuit);
  }
  std::printf("circuit: %s\n", circuit.summary().c_str());

  // Stimulus: a pattern file or a random sequence; plus the single
  // fault-free reference response.
  TestSequence test;
  if (!patterns_path.empty()) {
    PatternParseResult patterns = parse_patterns_file(patterns_path);
    if (!patterns.ok) {
      std::fprintf(stderr, "error: %s (line %zu)\n", patterns.error.c_str(),
                   patterns.error_line);
      return 1;
    }
    if (patterns.sequence.num_inputs() != circuit.num_inputs()) {
      std::fprintf(stderr, "error: patterns have %zu inputs, circuit has %zu\n",
                   patterns.sequence.num_inputs(), circuit.num_inputs());
      return 1;
    }
    test = std::move(patterns.sequence);
  } else {
    Rng rng(seed);
    test = random_sequence(circuit.num_inputs(), length, rng);
  }
  const SequentialSimulator sim(circuit);
  const SeqTrace good = sim.run_fault_free(test);

  const std::vector<Fault> faults = collapsed_fault_list(circuit);
  std::printf("test length: %zu, collapsed faults: %zu\n\n", test.length(),
              faults.size());

  MotFaultSimulator proposed(circuit);
  ExpansionBaseline baseline(circuit);

  std::size_t conv = 0;
  std::size_t base_extra = 0;
  std::size_t prop_extra = 0;
  for (const Fault& f : faults) {
    const MotResult pr = proposed.simulate_fault(test, good, f);
    if (pr.detected_conventional) {
      ++conv;
      continue;
    }
    if (baseline.simulate_fault(test, good, f).detected) ++base_extra;
    if (pr.detected) {
      ++prop_extra;
      std::printf("  MOT-only detection: %-28s (phase: %s)\n",
                  fault_name(circuit, f).c_str(),
                  pr.phase == MotPhase::Collection ? "collection check"
                                                   : "expansion+resim");
    }
  }
  std::printf("\nconventionally detected : %zu / %zu\n", conv, faults.size());
  std::printf("extra via [4] expansion : %zu\n", base_extra);
  std::printf("extra via proposed      : %zu\n", prop_extra);
  return 0;
}
