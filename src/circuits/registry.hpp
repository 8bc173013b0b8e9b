// Registry of the benchmark suite used in the paper's Tables 2 and 3.
//
// Each profile records the published interface of one benchmark circuit
// (s208..s35932 from ISCAS-89, am2910/mp1_16/mp2 from Rudnick's thesis [8])
// and the generator parameters used to synthesize a structurally comparable
// stand-in (see generator.hpp for why stand-ins are used). `test_length`
// is the random test sequence length used by the Table 2 experiment.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "netlist/circuit.hpp"

namespace motsim::circuits {

struct BenchmarkProfile {
  std::string name;         ///< paper's circuit name, e.g. "s5378"
  GeneratorParams params;   ///< generator configuration of the stand-in
  std::size_t test_length;  ///< random test sequence length for Table 2
  bool heavy;               ///< true for circuits where [4] was "NA" / large
};

/// All 13 circuits of Table 2, in the paper's row order.
const std::vector<BenchmarkProfile>& benchmark_suite();

/// Lookup by paper name ("s298", "am2910", ...). Null when unknown.
const BenchmarkProfile* find_profile(const std::string& name);

/// Builds the stand-in circuit for a profile. s27 (not in Table 2 but used
/// by the figure experiments) returns the genuine ISCAS-89 netlist.
Circuit build_benchmark(const std::string& name);

}  // namespace motsim::circuits
