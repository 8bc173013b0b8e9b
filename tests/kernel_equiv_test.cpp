// Kernel equivalence: the levelized SoA kernel (with its 64-way packed
// collection probes and packed sequence expansion) must be bit-identical to
// the legacy event-driven kernel — same detections, same phases, same
// effectiveness counters, same work accounting — on every circuit, fault
// and thread count. The SoA kernel is a pure performance substitution; any
// observable divergence is a bug.
//
// Four layers of evidence:
//   * the embedded paper circuits (s27, the Table 1 example, the Figure 4
//     conflict circuit) through the full experiment pipeline at 1 and 8
//     threads,
//   * 100 structured-random fuzz circuits compared per fault (MotResult,
//     BaselineResult and ConvOutcome under operator==),
//   * every committed corpus bundle in tests/corpus/ compared per fault,
//     both also at N_STATES = 256 (four packs of 64 expansion lanes),
//   * the committed ISCAS-85 conformance goldens in tests/testcases/
//     reproduced byte-identically by both kernels at 1 and 8 threads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include "circuits/embedded.hpp"
#include "circuits/registry.hpp"
#include "experiments/experiments.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/conventional.hpp"
#include "faultsim/full_faultsim.hpp"
#include "mot/baseline.hpp"
#include "mot/proposed.hpp"
#include "netlist/iscas_io.hpp"
#include "testgen/random_gen.hpp"
#include "util/sha256.hpp"
#include "verify/bundle.hpp"

#ifndef MOTSIM_CORPUS_DIR
#error "MOTSIM_CORPUS_DIR must point at tests/corpus"
#endif
#ifndef MOTSIM_TESTCASES_DIR
#error "MOTSIM_TESTCASES_DIR must point at tests/testcases"
#endif

namespace motsim {
namespace {

using experiments::RunConfig;
using experiments::RunResult;
using experiments::run_circuit;

RunResult run_with(const Circuit& c, const TestSequence& test, KernelKind k,
                   std::size_t threads) {
  RunConfig config;
  config.mot.kernel = k;
  config.mot.num_threads = threads;
  return run_circuit(c, test, config);
}

void expect_same_outcome(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.conv_detected, b.conv_detected);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.proposed_extra, b.proposed_extra);
  EXPECT_EQ(a.baseline_extra, b.baseline_extra);
  EXPECT_EQ(a.baseline_only, b.baseline_only);
  EXPECT_EQ(a.proposed_detected_baseline_aborted,
            b.proposed_detected_baseline_aborted);
  EXPECT_EQ(a.collection_capped_faults, b.collection_capped_faults);
  EXPECT_EQ(a.budget_stopped_faults, b.budget_stopped_faults);
  EXPECT_DOUBLE_EQ(a.avg_det, b.avg_det);
  EXPECT_DOUBLE_EQ(a.avg_conf, b.avg_conf);
  EXPECT_DOUBLE_EQ(a.avg_extra, b.avg_extra);
}

class KernelEquivalenceCircuits
    : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelEquivalenceCircuits, FullPipelineMatchesAcrossKernelsAndThreads) {
  const std::string which = GetParam();
  const Circuit c = which == "s27"      ? circuits::make_s27()
                    : which == "table1" ? circuits::make_table1_example()
                                        : circuits::make_fig4_conflict();
  Rng rng(2024);
  const TestSequence test = random_sequence(c.num_inputs(), 24, rng);

  const RunResult legacy = run_with(c, test, KernelKind::Legacy, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_outcome(legacy, run_with(c, test, KernelKind::SoA, threads));
    if (threads != 1) {
      expect_same_outcome(legacy,
                          run_with(c, test, KernelKind::Legacy, threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EmbeddedCircuits, KernelEquivalenceCircuits,
                         ::testing::Values("s27", "table1", "fig4"));

// Per-fault engine comparison: every MotResult / BaselineResult / ConvOutcome
// field must match bit for bit (defaulted operator==), not just the
// aggregate counts. Selection seeds are reseeded identically on both sides
// so random pair selection cannot mask a divergence. Adds to `multi_pack`
// the faults that ended with more than 64 sequences (more than one pack of
// expansion lanes).
void expect_per_fault_equivalence(const Circuit& c, const TestSequence& test,
                                  std::span<const Fault> faults,
                                  std::uint64_t selection_salt,
                                  std::size_t n_states,
                                  std::size_t& multi_pack) {
  MotOptions legacy_opt;
  legacy_opt.kernel = KernelKind::Legacy;
  legacy_opt.n_states = n_states;
  MotOptions soa_opt;
  soa_opt.kernel = KernelKind::SoA;
  soa_opt.n_states = n_states;

  const SequentialSimulator legacy_sim(c, KernelKind::Legacy);
  const SequentialSimulator soa_sim(c, KernelKind::SoA);
  const SeqTrace legacy_good = legacy_sim.run_fault_free(test, true);
  const SeqTrace soa_good = soa_sim.run_fault_free(test, true);
  ASSERT_EQ(legacy_good.outputs, soa_good.outputs);
  ASSERT_EQ(legacy_good.lines, soa_good.lines);

  ConventionalFaultSimulator legacy_conv(c, KernelKind::Legacy);
  ConventionalFaultSimulator soa_conv(c, KernelKind::SoA);
  MotFaultSimulator legacy_mot(c, legacy_opt);
  MotFaultSimulator soa_mot(c, soa_opt);
  ExpansionBaseline legacy_base(c, legacy_opt);
  ExpansionBaseline soa_base(c, soa_opt);

  for (std::size_t k = 0; k < faults.size(); ++k) {
    SCOPED_TRACE("fault " + std::to_string(k));
    const Fault& f = faults[k];
    SeqTrace legacy_faulty =
        legacy_conv.simulate_fault(test, f, /*keep_lines=*/true);
    SeqTrace soa_faulty =
        soa_conv.simulate_fault(test, f, /*keep_lines=*/true, &soa_good);
    ASSERT_EQ(legacy_faulty.outputs, soa_faulty.outputs);
    ASSERT_EQ(legacy_faulty.lines, soa_faulty.lines);

    const std::uint64_t seed = per_fault_selection_seed(selection_salt, k);
    legacy_mot.reseed_selection(seed);
    soa_mot.reseed_selection(seed);
    const MotResult lm =
        legacy_mot.simulate_fault(test, legacy_good, f, legacy_faulty);
    const MotResult sm = soa_mot.simulate_fault(test, soa_good, f, soa_faulty);
    EXPECT_EQ(lm, sm);
    multi_pack += sm.final_sequences > 64;

    legacy_base.reseed_selection(~seed);
    soa_base.reseed_selection(~seed);
    const BaselineResult lb =
        legacy_base.simulate_fault(test, legacy_good, f, legacy_faulty);
    const BaselineResult sb =
        soa_base.simulate_fault(test, soa_good, f, soa_faulty);
    EXPECT_EQ(lb, sb);
  }
}

std::uint64_t mix(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The first `seeds` of the structured-random fuzz circuits, four faults
/// each, compared per fault at `n_states`; returns the multi-pack count.
std::size_t expect_fuzz_equivalence(std::size_t seeds, std::size_t n_states) {
  std::size_t multi_pack = 0;
  constexpr std::size_t kFaultsPerCircuit = 4;
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::uint64_t case_seed = mix(41, i);
    SCOPED_TRACE("seed " + std::to_string(case_seed));
    Rng rng(case_seed);
    circuits::GeneratorParams p;
    p.name = "kernel_equiv_fuzz";
    p.seed = rng.next_u64();
    p.mode = static_cast<circuits::StructureMode>(rng.next_below(4));
    p.num_inputs = 2 + rng.next_below(4);
    p.num_outputs = 1 + rng.next_below(3);
    p.num_dffs = 1 + rng.next_below(8);
    p.num_comb_gates = 6 + rng.next_below(41);
    const Circuit c = circuits::generate(p);
    const TestSequence test =
        rng.next_bool(0.2)
            ? random_sequence_with_x(p.num_inputs, 3 + rng.next_below(10),
                                     0.15, rng)
            : random_sequence(p.num_inputs, 3 + rng.next_below(10), rng);

    std::vector<Fault> faults = collapsed_fault_list(c);
    rng.shuffle(faults);
    if (faults.size() > kFaultsPerCircuit) faults.resize(kFaultsPerCircuit);
    expect_per_fault_equivalence(c, test, faults, case_seed, n_states,
                                 multi_pack);
  }
  return multi_pack;
}

TEST(KernelEquivalence, HundredFuzzCircuitsMatchPerFault) {
  expect_fuzz_equivalence(100, MotOptions{}.n_states);
}

// 256 sequences are four packs of 64 lanes: expansions and resimulation
// cross pack boundaries, which the default N_STATES never does.
TEST(KernelEquivalence, FuzzCircuitsMatchPerFaultAcrossPacks) {
  EXPECT_GT(expect_fuzz_equivalence(100, 256), 0u);
}

void expect_corpus_equivalence(std::size_t n_states, std::size_t& multi_pack) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(MOTSIM_CORPUS_DIR)) {
    if (entry.path().extension() == ".bundle") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    verify::FailureBundle bundle;
    std::string error;
    ASSERT_TRUE(verify::load_bundle(path.string(), bundle, error)) << error;
    expect_per_fault_equivalence(bundle.circuit, bundle.test, bundle.faults,
                                 bundle.seed, n_states, multi_pack);
  }
}

TEST(KernelEquivalence, CommittedCorpusMatchesPerFault) {
  std::size_t multi_pack = 0;
  expect_corpus_equivalence(MotOptions{}.n_states, multi_pack);
}

TEST(KernelEquivalence, CommittedCorpusMatchesPerFaultAcrossPacks) {
  std::size_t multi_pack = 0;
  expect_corpus_equivalence(256, multi_pack);
  EXPECT_GT(multi_pack, 0u);
}

// ------------------------------------------------- iscas conformance ----
//
// Fourth layer of evidence: on the committed ISCAS-85 conformance testcases
// both kernels must reproduce the committed .ans goldens BYTE-identically
// (not just outcome-identically) at 1 and 8 threads. The combinational
// full-fault-simulation driver is a different consumer of the kernels than
// the MOT pipeline above, so this catches divergences the sequential
// experiments cannot reach.

std::string read_testcase_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class IscasAnsEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(IscasAnsEquivalence, KernelsReproduceCommittedAnsBytes) {
  const std::string base =
      std::string(MOTSIM_TESTCASES_DIR) + "/" + GetParam();
  const IscasParseResult parsed = parse_iscas_file(base + ".v");
  ASSERT_TRUE(parsed.ok) << parsed.error << " (line " << parsed.error_line
                         << ")";
  const InParseResult in =
      parse_conformance_in_file(base + ".in", parsed.circuit);
  ASSERT_TRUE(in.ok) << in.error << " (line " << in.error_line << ")";
  const std::string golden = read_testcase_file(base + ".ans");
  ASSERT_FALSE(golden.empty());
  // The committed golden must still match its SHA-256 pin (drift guard).
  const std::string pin = read_testcase_file(base + ".ans.sha");
  EXPECT_EQ(sha256_hex(golden) + "\n", pin);

  for (const KernelKind kernel : {KernelKind::Legacy, KernelKind::SoA}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(kernel == KernelKind::Legacy ? "legacy"
                                                            : "soa") +
                   " threads=" + std::to_string(threads));
      FullFaultSimOptions opts;
      opts.kernel = kernel;
      opts.num_threads = threads;
      const FullFaultSimResult r =
          run_full_faultsim(parsed.circuit, in.patterns, opts);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.ans, golden);
      EXPECT_EQ(r.ans_sha256, sha256_hex(golden));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, IscasAnsEquivalence,
                         ::testing::Values("c17", "c432", "c499", "c880",
                                           "c1355", "c1908"));

}  // namespace
}  // namespace motsim
