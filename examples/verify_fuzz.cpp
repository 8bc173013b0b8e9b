// Differential verification fuzzer.
//
// Runs structured-random circuits through every fault-simulation engine and
// checks the invariant lattice (subsumption, oracle soundness, baseline
// agreement, budget monotonicity, thread invariance, resume equivalence).
// Violations are shrunk and written as replayable bundles.
//
//   verify_fuzz --seeds 500 --budget-ms 60000 --corpus-dir failures/
//   verify_fuzz --replay tests/corpus/fail_proposed-sound_0123456789abcdef.bundle
//   verify_fuzz --mutant unsound-abort --seeds 200      # self-test: expect a catch
//   verify_fuzz --emit-corpus 20 --corpus-dir tests/corpus --seeds 400
//
// Exit status: 0 = clean (or, under --mutant, the planted bug WAS caught);
// 1 = violations found (or a planted bug escaped); 2 = usage error.
#include <sys/stat.h>

#include <cstdio>
#include <iostream>

#include "util/cli.hpp"
#include "verify/checks.hpp"
#include "verify/fuzz.hpp"

using namespace motsim;
using namespace motsim::verify;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed-base S] [--budget-ms MS]\n"
               "          [--max-faults N] [--mutant NAME] [--no-shrink]\n"
               "          [--corpus-dir DIR] [--emit-corpus N]\n"
               "          [--replay FILE]\n"
               "          [--iscas DIR]   # run only the iscas-conformance "
               "check\n",
               argv0);
  return 2;
}

/// The iscas-conformance check is not driven by fuzzed circuits — it needs
/// the committed testcase directory — so it gets its own entry point here
/// rather than a slot in the per-seed lattice.
int run_iscas(const std::string& dir) {
  IscasConformanceOptions opts;
  opts.testcases_dir = dir;
  const std::vector<Violation> violations = check_iscas_conformance(opts);
  std::printf("iscas-conformance: %zu violation(s) in %s\n", violations.size(),
              dir.c_str());
  for (const Violation& v : violations) {
    std::printf("violation [%s] %s\n", std::string(check_name(v.check)).c_str(),
                v.detail.c_str());
  }
  return violations.empty() ? 0 : 1;
}

int replay(const std::string& path) {
  FailureBundle bundle;
  std::string error;
  if (!load_bundle(path, bundle, error)) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  std::printf("replaying %s\n  check=%s mutant=%s seed=%016llx nstates=%zu "
              "gates=%zu frames=%zu faults=%zu\n",
              path.c_str(), std::string(check_name(bundle.check)).c_str(),
              std::string(mutant_name(bundle.mutant)).c_str(),
              static_cast<unsigned long long>(bundle.seed), bundle.n_states,
              bundle.circuit.num_gates(), bundle.test.length(),
              bundle.faults.size());
  const std::vector<Violation> violations = replay_bundle(bundle);
  if (violations.empty()) {
    std::printf("bundle passes: no violation reproduced\n");
    // A corpus (check=all) bundle passing is the expected outcome; a
    // failure bundle passing means the bug it pinned is fixed.
    return bundle.check == CheckId::All ? 0 : 1;
  }
  for (const Violation& v : violations) {
    std::printf("violation [%s] %s\n", std::string(check_name(v.check)).c_str(),
                v.detail.c_str());
  }
  return bundle.check == CheckId::All ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto rejected = [&] {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return usage(argv[0]);
  };

  if (args.has("iscas")) {
    const std::string dir = args.get("iscas", "");
    if (!args.finish()) return rejected();
    return run_iscas(dir);
  }

  if (args.has("replay")) {
    const std::string path = args.get("replay", "");
    if (!args.finish()) return rejected();
    return replay(path);
  }

  FuzzOptions options;
  options.num_seeds = args.get_count("seeds", 100);
  options.seed_base = args.get_count("seed-base", 1);
  options.budget_ms = args.get_count("budget-ms", 0);
  options.max_faults_per_seed = args.get_count("max-faults", 5);
  options.shrink = !args.get_bool("no-shrink");
  options.corpus_dir = args.get("corpus-dir", "");
  options.log = &std::cout;
  const std::string mutant_arg = args.get("mutant", "none");
  if (!mutant_from_name(mutant_arg, options.mutant)) {
    std::fprintf(stderr, "unknown mutant '%s'\n", mutant_arg.c_str());
    return usage(argv[0]);
  }
  if (args.has("emit-corpus")) {
    options.emit_corpus = true;
    options.emit_corpus_limit = args.get_count("emit-corpus", 20);
    if (options.corpus_dir.empty()) {
      std::fprintf(stderr, "--emit-corpus requires --corpus-dir\n");
      return usage(argv[0]);
    }
  }
  // A planted bug should stop the run at the first catch.
  options.stop_on_first = options.mutant != Mutant::None;
  if (!args.finish()) return rejected();
  if (!options.corpus_dir.empty()) {
    ::mkdir(options.corpus_dir.c_str(), 0755);  // best effort; may exist
  }

  const FuzzResult result = run_fuzz(options);
  std::printf("seeds=%zu faults=%zu violations=%zu%s\n", result.seeds_run,
              result.faults_checked, result.violations.size(),
              result.budget_expired ? " (budget expired)" : "");
  for (const FuzzViolationReport& v : result.violations) {
    std::printf("  [%s] seed=%016llx %s\n",
                std::string(check_name(v.check)).c_str(),
                static_cast<unsigned long long>(v.seed),
                v.bundle_path.empty() ? "(bundle not written)"
                                      : v.bundle_path.c_str());
  }

  if (options.mutant != Mutant::None) {
    // Self-test mode: success means the planted bug was caught.
    if (result.violations.empty()) {
      std::printf("mutant %s ESCAPED — the harness failed its self-test\n",
                  std::string(mutant_name(options.mutant)).c_str());
      return 1;
    }
    std::printf("mutant %s caught\n",
                std::string(mutant_name(options.mutant)).c_str());
    return 0;
  }
  return result.violations.empty() ? 0 : 1;
}
