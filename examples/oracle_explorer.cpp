// Accuracy study: how close does each simulation scheme come to the exact
// restricted-MOT detectability computed by exhaustive enumeration of the
// faulty machine's initial states?
//
// The paper argues state expansion gives an *accurate* implementation of the
// restricted multiple observation time approach (unlike implication-only
// methods [6]); this tool quantifies that on small seeded circuits where the
// exhaustive oracle is tractable.
//
// Usage:
//   oracle_explorer [--circuits 30] [--ffs 6] [--gates 40] [--length 24]
//                   [--seed 1] [--nstates 64]
#include <cstdio>

#include "circuits/generator.hpp"
#include "mot/baseline.hpp"
#include "mot/general.hpp"
#include "mot/implication_only.hpp"
#include "mot/oracle.hpp"
#include "mot/proposed.hpp"
#include "testgen/random_gen.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace motsim;
  const CliArgs args(argc, argv);
  const std::size_t n_circuits = args.get_count("circuits", 30);
  const std::size_t n_ffs = args.get_count("ffs", 6);
  const std::size_t n_gates = args.get_count("gates", 40);
  const std::size_t length = args.get_count("length", 24);
  const std::uint64_t seed0 = args.get_count("seed", 1);
  MotOptions opt;
  opt.n_states = args.get_count("nstates", 64);
  if (!args.finish()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }
  if (n_ffs > 14) {
    std::fprintf(stderr, "error: --ffs %zu makes the 2^k oracle intractable\n", n_ffs);
    return 1;
  }

  std::size_t faults = 0;
  std::size_t oracle_det = 0, conv_det = 0, base_det = 0, prop_det = 0;
  std::size_t impl_det = 0, general_det = 0, general_oracle_det = 0;
  std::size_t unsound = 0;

  for (std::uint64_t k = 0; k < n_circuits; ++k) {
    circuits::GeneratorParams p;
    p.name = "oracle";
    p.seed = seed0 + k;
    p.num_inputs = 4;
    p.num_outputs = 3;
    p.num_dffs = n_ffs;
    p.num_comb_gates = n_gates;
    p.uninit_fraction = 0.4;
    const Circuit c = circuits::generate(p);
    Rng rng(seed0 * 97 + k);
    const TestSequence t = random_sequence(c.num_inputs(), length, rng);
    const SequentialSimulator sim(c);
    const SeqTrace good = sim.run_fault_free(t);
    MotFaultSimulator proposed(c, opt);
    ExpansionBaseline baseline(c, opt);
    ImplicationOnlySimulator impl_only(c, opt);
    GeneralMotOptions gopt;
    gopt.mot = opt;
    GeneralMotSimulator general(c, gopt);
    for (const Fault& f : collapsed_fault_list(c)) {
      const OracleVerdict v = restricted_mot_oracle(c, t, good, f);
      if (!v.computable) continue;
      ++faults;
      const MotResult pr = proposed.simulate_fault(t, good, f);
      const bool bd = baseline.simulate_fault(t, good, f).detected;
      const bool id = impl_only.simulate_fault(t, good, f).detected;
      const bool gd = general.simulate_fault(t, good, f).detected;
      const OracleVerdict gv = general_mot_oracle(c, t, f, n_ffs);
      oracle_det += v.detected;
      conv_det += pr.detected_conventional;
      base_det += bd;
      prop_det += pr.detected;
      impl_det += id;
      general_det += gd;
      general_oracle_det += gv.computable && gv.detected;
      if ((pr.detected || bd || id) && !v.detected) {
        ++unsound;
        std::printf("UNSOUND: circuit seed %llu fault %s\n",
                    static_cast<unsigned long long>(p.seed),
                    fault_name(c, f).c_str());
      }
      if (gd && gv.computable && !gv.detected) {
        ++unsound;
        std::printf("UNSOUND (general): circuit seed %llu fault %s\n",
                    static_cast<unsigned long long>(p.seed),
                    fault_name(c, f).c_str());
      }
    }
  }

  Table table({"scheme", "detected", "% of oracle"});
  auto pct = [&](std::size_t n) {
    return oracle_det == 0 ? 0.0
                           : 100.0 * static_cast<double>(n) /
                                 static_cast<double>(oracle_det);
  };
  table.new_row().add("restricted-MOT oracle").add(oracle_det).add(100.0, 1);
  table.new_row().add("conventional").add(conv_det).add(pct(conv_det), 1);
  table.new_row().add("implication-only [6]").add(impl_det).add(pct(impl_det), 1);
  table.new_row().add("[4] expansion").add(base_det).add(pct(base_det), 1);
  table.new_row().add("proposed").add(prop_det).add(pct(prop_det), 1);
  table.new_row().add("general MOT (ext.)").add(general_det).add(pct(general_det), 1);
  table.new_row()
      .add("general-MOT oracle")
      .add(general_oracle_det)
      .add(pct(general_oracle_det), 1);
  std::printf("%zu circuits, %zu faults with a computable oracle, "
              "N_STATES=%zu\n\n%s\n", n_circuits, faults, opt.n_states,
              table.render().c_str());
  std::printf("unsound detections (must be 0): %zu\n", unsound);
  return unsound == 0 ? 0 : 1;
}
