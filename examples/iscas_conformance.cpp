// ISCAS-85 conformance driver.
//
// Checks motsim's combinational full-fault-simulation path against the
// committed third-party-format goldens (tests/testcases/<ckt>.{v,in,ans,
// ans.sha}): the .ans bytes must reproduce byte-identically under both the
// Legacy and SoA kernels at 1 and 8 threads, and every golden must match its
// SHA-256 pin.
//
//   iscas_conformance --testcases tests/testcases             # check all
//   iscas_conformance --testcases tests/testcases --circuits c17,c432
//   iscas_conformance --selfcheck --circuits c2670,c7552      # no files:
//       # generate the stand-in netlist + patterns in memory and demand
//       # Legacy/SoA byte-identity (the nightly large-circuit mode)
//   MOTSIM_UPDATE_GOLDEN=1 iscas_conformance --testcases tests/testcases
//       [--circuits c17,...] # regenerate .v (if absent), .in, .ans, .ans.sha
//
// Exit status: 0 = conformant; 1 = any violation; 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuits/iscas_standin.hpp"
#include "faultsim/full_faultsim.hpp"
#include "netlist/iscas_io.hpp"
#include "util/cli.hpp"
#include "util/sha256.hpp"
#include "util/strings.hpp"
#include "verify/checks.hpp"

using namespace motsim;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --testcases DIR [--circuits a,b,c] [--threads 1,8]\n"
               "       %s --selfcheck --circuits a,b,c [--patterns N] "
               "[--threads 1,8]\n"
               "       MOTSIM_UPDATE_GOLDEN=1 %s --testcases DIR "
               "[--circuits a,b,c]\n",
               argv0, argv0, argv0);
  return 2;
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  for (std::string_view part : split(csv, ',')) {
    part = trim(part);
    if (!part.empty()) out.emplace_back(part);
  }
  return out;
}

/// Committed-golden pattern counts: enough to exercise every net, small
/// enough that the .ans files stay reviewable. Unknown names get 8.
std::size_t default_pattern_count(std::string_view name) {
  if (name == "c17") return 32;
  if (name == "c432" || name == "c499") return 16;
  if (name == "c880") return 12;
  if (name == "c1355") return 10;
  return 8;
}

// The related testcase suites generate with seed 42 by default; so do we.
constexpr std::uint64_t kPatternSeed = 42;

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

/// Runs the driver under every (kernel, threads) combination and demands
/// byte-identity; returns the agreed .ans bytes via `ans`.
bool run_all_ways(const Circuit& c, const ConformancePatterns& pat,
                  const std::vector<std::size_t>& thread_counts,
                  std::string& ans, std::string& error) {
  bool first = true;
  for (const KernelKind kernel : {KernelKind::Legacy, KernelKind::SoA}) {
    for (const std::size_t threads : thread_counts) {
      FullFaultSimOptions opts;
      opts.kernel = kernel;
      opts.num_threads = threads;
      const FullFaultSimResult r = run_full_faultsim(c, pat, opts);
      const char* kname = kernel == KernelKind::Legacy ? "legacy" : "soa";
      if (!r.ok) {
        error = str_format("[%s, %zu threads] %s", kname, threads,
                           r.error.c_str());
        return false;
      }
      if (first) {
        ans = r.ans;
        first = false;
      } else if (r.ans != ans) {
        error = str_format(
            "[%s, %zu threads] .ans bytes diverge from the first kernel's",
            kname, threads);
        return false;
      }
    }
  }
  return true;
}

int update_goldens(const std::string& dir, std::vector<std::string> circuits,
                   const std::vector<std::size_t>& thread_counts) {
  if (circuits.empty()) {
    for (const IscasStandinSpec& s : iscas_testcase_specs()) {
      if (s.name == "c2670") break;  // large circuits are nightly-only
      circuits.emplace_back(s.name);
    }
  }
  for (const std::string& ckt : circuits) {
    const std::string base = dir + "/" + ckt;
    if (!file_exists(base + ".v")) {
      IscasStandinSpec spec;
      if (!find_iscas_testcase(ckt, spec)) {
        std::fprintf(stderr, "%s: no %s.v and no known generator\n",
                     ckt.c_str(), ckt.c_str());
        return 1;
      }
      if (!write_file(base + ".v", iscas_testcase_netlist(spec))) {
        std::fprintf(stderr, "%s: cannot write %s.v\n", ckt.c_str(), ckt.c_str());
        return 1;
      }
      std::printf("%s: wrote %s.v\n", ckt.c_str(), ckt.c_str());
    }
    const IscasParseResult parsed = parse_iscas_file(base + ".v");
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: parse error: %s (line %zu)\n", ckt.c_str(),
                   parsed.error.c_str(), parsed.error_line);
      return 1;
    }
    const ConformancePatterns pat = generate_conformance_patterns(
        parsed.circuit, default_pattern_count(ckt), kPatternSeed);
    std::string ans, error;
    if (!run_all_ways(parsed.circuit, pat, thread_counts, ans, error)) {
      std::fprintf(stderr, "%s: %s\n", ckt.c_str(), error.c_str());
      return 1;
    }
    const std::string sha = sha256_hex(ans);
    if (!write_file(base + ".in", write_conformance_in(parsed.circuit, pat)) ||
        !write_file(base + ".ans", ans) ||
        !write_file(base + ".ans.sha", sha + "\n")) {
      std::fprintf(stderr, "%s: cannot write goldens under %s\n", ckt.c_str(),
                   dir.c_str());
      return 1;
    }
    std::printf("%s: %zu patterns, %zu nets, sha256 %s\n", ckt.c_str(),
                pat.size(), parsed.circuit.num_gates(), sha.c_str());
  }
  return 0;
}

int selfcheck(const std::vector<std::string>& circuits, std::size_t patterns,
              const std::vector<std::size_t>& thread_counts) {
  if (circuits.empty()) {
    std::fprintf(stderr, "--selfcheck requires --circuits\n");
    return 2;
  }
  int rc = 0;
  for (const std::string& ckt : circuits) {
    IscasStandinSpec spec;
    if (!find_iscas_testcase(ckt, spec)) {
      std::fprintf(stderr, "%s: unknown circuit\n", ckt.c_str());
      return 2;
    }
    const IscasParseResult parsed =
        parse_iscas(iscas_testcase_netlist(spec), ckt);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: generated netlist fails to parse: %s\n",
                   ckt.c_str(), parsed.error.c_str());
      return 1;
    }
    const ConformancePatterns pat =
        generate_conformance_patterns(parsed.circuit, patterns, kPatternSeed);
    std::string ans, error;
    if (!run_all_ways(parsed.circuit, pat, thread_counts, ans, error)) {
      std::fprintf(stderr, "%s: %s\n", ckt.c_str(), error.c_str());
      rc = 1;
      continue;
    }
    std::printf("%s: %zu patterns, %zu nets, %zu ans lines, sha256 %s\n",
                ckt.c_str(), pat.size(), parsed.circuit.num_gates(),
                pat.size() * parsed.circuit.num_gates(),
                sha256_hex(ans).c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string dir = args.get("testcases", "");
  const std::vector<std::string> circuits = split_names(args.get("circuits", ""));
  const bool self = args.get_bool("selfcheck");
  const std::size_t patterns = args.get_count("patterns", 8);
  std::vector<std::size_t> thread_counts;
  for (std::string_view t : split(args.get("threads", "1,8"), ',')) {
    std::uint64_t n = 0;
    if (!parse_u64(trim(t), n) || n == 0) {
      std::fprintf(stderr, "bad --threads value\n");
      return usage(argv[0]);
    }
    thread_counts.push_back(static_cast<std::size_t>(n));
  }
  const char* update_env = std::getenv("MOTSIM_UPDATE_GOLDEN");
  const bool update = args.get_bool("update-golden") ||
                      (update_env != nullptr && *update_env == '1');
  if (!args.finish()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return usage(argv[0]);
  }

  if (self) return selfcheck(circuits, patterns, thread_counts);
  if (dir.empty()) return usage(argv[0]);
  if (update) return update_goldens(dir, circuits, thread_counts);

  verify::IscasConformanceOptions opts;
  opts.testcases_dir = dir;
  opts.circuits = circuits;
  opts.thread_counts = thread_counts;
  const std::vector<verify::Violation> violations =
      verify::check_iscas_conformance(opts);
  if (violations.empty()) {
    std::printf("iscas-conformance: OK (%s)\n", dir.c_str());
    return 0;
  }
  for (const verify::Violation& v : violations) {
    std::printf("violation [iscas-conformance] %s\n", v.detail.c_str());
  }
  return 1;
}
