// Deterministic test generation demo: PODEM-driven sequence vs a random
// sequence of the same length, then the MOT procedures on the leftovers.
//
// Usage:
//   atpg_demo [--circuit s298] [--length 80] [--seed 3] [--save patterns.txt]
#include <cstdio>

#include "circuits/registry.hpp"
#include "faultsim/parallel.hpp"
#include "mot/proposed.hpp"
#include "sim/pattern_io.hpp"
#include "testgen/deterministic_atpg.hpp"
#include "testgen/random_gen.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace motsim;
  const CliArgs args(argc, argv);
  const std::string name = args.get("circuit", "s298");
  const std::size_t length = args.get_count("length", 80);
  const std::uint64_t seed = args.get_count("seed", 3);
  const std::string save = args.get("save", "");
  for (const std::string& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }

  Circuit c;
  try {
    c = circuits::build_benchmark(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("circuit: %s\n", c.summary().c_str());
  const auto faults = collapsed_fault_list(c);

  AtpgParams params;
  params.max_length = length;
  params.seed = seed;
  const AtpgResult atpg = generate_deterministic(c, faults, params);
  std::printf("ATPG sequence: %zu frames (%zu targeted, %zu random fill), "
              "detects %zu/%zu\n",
              atpg.sequence.length(), atpg.targeted_patterns,
              atpg.random_patterns, atpg.detected, faults.size());

  Rng rng(seed);
  const TestSequence random = random_sequence(c.num_inputs(),
                                              atpg.sequence.length(), rng);
  const SeqTrace rgood = SequentialSimulator(c).run_fault_free(random);
  const auto routcomes = ParallelFaultSimulator(c).run(random, rgood, faults);
  std::size_t random_detected = 0;
  for (const auto& o : routcomes) random_detected += o.detected;
  std::printf("random sequence of the same length detects %zu/%zu\n",
              random_detected, faults.size());

  // What does MOT add on the deterministic sequence's leftovers?
  const SeqTrace good = SequentialSimulator(c).run_fault_free(atpg.sequence);
  MotFaultSimulator proposed(c);
  std::size_t mot_extra = 0;
  for (const Fault& f : faults) {
    const MotResult r = proposed.simulate_fault(atpg.sequence, good, f);
    mot_extra += r.detected && !r.detected_conventional;
  }
  std::printf("restricted-MOT extras on the ATPG sequence: %zu\n", mot_extra);

  if (!save.empty()) {
    if (write_patterns_file(atpg.sequence, save)) {
      std::printf("wrote %s\n", save.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n", save.c_str());
      return 1;
    }
  }
  return 0;
}
