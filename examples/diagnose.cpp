// Fault-dictionary diagnosis demo: inject a hidden fault, observe the
// machine's response to a test sequence, and narrow down the candidates —
// first with the full response, then with progressively fewer observed time
// units (showing how the candidate set widens).
//
// Usage:
//   diagnose [--bench circuit.bench] [--length 32] [--seed 11]
//            [--fault-index 5]
#include <cstdio>

#include "circuits/embedded.hpp"
#include "faultsim/dictionary.hpp"
#include "netlist/bench_io.hpp"
#include "testgen/random_gen.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace motsim;
  const CliArgs args(argc, argv);
  const std::string bench_path = args.get("bench", "");
  const std::size_t length = args.get_count("length", 32);
  const std::uint64_t seed = args.get_count("seed", 11);
  const std::int64_t fault_index = args.get_int("fault-index", -1);
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

  Rng rng(seed);
  const TestSequence test = random_sequence(circuit.num_inputs(), length, rng);
  const SequentialSimulator sim(circuit);
  const SeqTrace good = sim.run_fault_free(test);
  const std::vector<Fault> faults = collapsed_fault_list(circuit);
  const FaultDictionary dict = FaultDictionary::build(circuit, test, good, faults);

  // Pick the hidden fault: the requested index, or the first detected one.
  std::size_t hidden = dict.num_faults();
  if (fault_index >= 0 && static_cast<std::size_t>(fault_index) < dict.num_faults()) {
    hidden = static_cast<std::size_t>(fault_index);
  } else {
    for (std::size_t k = 0; k < dict.num_faults(); ++k) {
      if (dict.is_detected(k)) {
        hidden = k;
        break;
      }
    }
  }
  if (hidden == dict.num_faults()) {
    std::fprintf(stderr, "no detected fault to diagnose\n");
    return 1;
  }
  std::printf("hidden fault: #%zu %s\n\n", hidden,
              fault_name(circuit, faults[hidden]).c_str());

  // Diagnose with shrinking observation windows.
  auto observed = dict.response(hidden);
  for (std::size_t window : {length, length / 2, length / 4, std::size_t(2)}) {
    auto masked = observed;
    for (std::size_t u = window; u < masked.size(); ++u) {
      for (Val& v : masked[u]) v = Val::X;
    }
    bool fault_free_ok = false;
    const auto candidates = dict.diagnose(masked, &fault_free_ok);
    std::printf("observing time units 0..%-3zu: %3zu candidate fault(s)%s\n",
                window - 1, candidates.size(),
                fault_free_ok ? " (+ fault-free machine still possible)" : "");
    if (candidates.size() <= 8) {
      for (std::size_t k : candidates) {
        std::printf("    #%zu %s%s\n", k, fault_name(circuit, faults[k]).c_str(),
                    k == hidden ? "   <-- injected" : "");
      }
    }
  }

  const auto classes = dict.equivalence_classes();
  std::printf("\nresponse-equivalence classes under this test: %zu "
              "(of %zu faults)\n", classes.size(), dict.num_faults());
  return 0;
}
