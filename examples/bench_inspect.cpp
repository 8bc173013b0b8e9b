// Netlist tooling on .bench files: parse, validate, summarize, levelize,
// run cleanup passes, list the fault universe, and round-trip to .bench.
//
// Usage:
//   bench_inspect circuit.bench [--write-back out.bench] [--faults] [--stats]
//                 [--sweep] [--const-prop] [--no-buffers]
//   bench_inspect --generate s5378 [--write-back out.bench]   # registry stand-in
//   bench_inspect            # inspects the embedded s27
#include <cstdio>
#include <fstream>

#include "circuits/embedded.hpp"
#include "circuits/registry.hpp"
#include "fault/fault.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/transform.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace motsim;
  const CliArgs args(argc, argv);
  const std::string generate = args.get("generate", "");
  const std::string write_back = args.get("write-back", "");
  const bool list_faults = args.get_bool("faults");
  const bool show_stats = args.get_bool("stats");
  const bool do_sweep = args.get_bool("sweep");
  const bool do_const_prop = args.get_bool("const-prop");
  const bool do_remove_buffers = args.get_bool("no-buffers");
  if (!args.finish()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }

  Circuit c;
  if (!generate.empty()) {
    try {
      c = circuits::build_benchmark(generate);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else if (!args.positional().empty()) {
    BenchParseResult parsed = parse_bench_file(args.positional().front());
    if (!parsed.ok) {
      std::fprintf(stderr, "error: %s (line %zu)\n", parsed.error.c_str(),
                   parsed.error_line);
      return 1;
    }
    c = std::move(parsed.circuit);
  } else {
    c = circuits::make_s27();
  }

  // Optional cleanup passes (in a fixed, sensible order).
  TransformStats tstats;
  if (do_const_prop) c = propagate_constants(c, &tstats);
  if (do_remove_buffers) c = remove_buffers(c, &tstats);
  if (do_sweep) c = sweep_dead_logic(c, &tstats);
  if (do_const_prop || do_remove_buffers || do_sweep) {
    std::printf("cleanup: %zu gates removed, %zu folded to constants, %zu "
                "pins rewired\n", tstats.removed_gates, tstats.folded_gates,
                tstats.rewired_pins);
  }

  std::printf("%s\n", c.summary().c_str());
  std::printf("pins: %zu\n", c.num_pins());
  if (show_stats) std::printf("%s", render_stats(analyze(c)).c_str());

  // Level histogram.
  std::vector<std::size_t> per_level(c.max_level() + 1, 0);
  for (GateId g : c.topo_order()) ++per_level[c.level(g)];
  std::printf("combinational depth: %u, gates per level:", c.max_level());
  for (std::size_t lvl = 1; lvl < per_level.size(); ++lvl) {
    std::printf(" %zu", per_level[lvl]);
  }
  std::printf("\n");

  const std::vector<Fault> uncollapsed = enumerate_faults(c);
  const std::vector<Fault> collapsed = collapse_faults(c, uncollapsed);
  std::printf("faults: %zu uncollapsed, %zu collapsed (%.1f%% reduction)\n",
              uncollapsed.size(), collapsed.size(),
              100.0 * static_cast<double>(uncollapsed.size() - collapsed.size()) /
                  static_cast<double>(uncollapsed.size()));
  if (list_faults) {
    for (const Fault& f : collapsed) {
      std::printf("  %s\n", fault_name(c, f).c_str());
    }
  }

  if (!write_back.empty()) {
    std::ofstream out(write_back);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", write_back.c_str());
      return 1;
    }
    out << write_bench(c);
    std::printf("wrote %s\n", write_back.c_str());
  }
  return 0;
}
