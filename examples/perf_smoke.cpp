// CI performance smoke: a bounded s5378 slice through the full pipeline
// under both simulation kernels. Guards the SoA kernel's speedup without a
// host-dependent absolute threshold: the same slice runs on the same host
// with the legacy event-driven engines and with the levelized SoA kernel,
// and the run fails when the SoA advantage on the per-candidate MOT stage
// drops below the floor. The slice measures ~2.3x here; the default floor
// of 1.3x is what a 2x slowdown of the SoA stage falls through, so
// scheduler noise does not flap the job but a real regression fails it.
//
// Detection counts must also be identical across the kernels — a cheap
// full-pipeline equivalence check riding along with the timing.
//
// Usage: perf_smoke [min_ratio] [mot_cap]
// min_ratio is a non-negative decimal (default 1.3), mot_cap a
// non-negative integer (default 25, 0 = every candidate).
// Exit codes: 0 ok, 1 regression or kernel mismatch, 2 usage or setup error.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "experiments/experiments.hpp"
#include "util/strings.hpp"

using namespace motsim;
using namespace motsim::experiments;

namespace {

void print_row(const char* kernel, const RunResult& r) {
  std::printf(
      "%-7s wall %6.2fs  prepass %5.2fs  mot %6.2fs  processed %zu  "
      "conv %zu  proposed+%zu  baseline+%zu\n",
      kernel, r.seconds, r.seconds_prepass, r.seconds_mot, r.processed,
      r.conv_detected, r.proposed_extra, r.baseline_extra);
}

// A plain non-negative decimal such as "1.3": no sign, no whitespace, no
// trailing characters, finite.
bool parse_ratio(const char* s, double& out) {
  if (!std::isdigit(static_cast<unsigned char>(s[0])) && s[0] != '.') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno == 0 && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  double min_ratio = 1.3;
  std::uint64_t mot_cap = 25;
  if (argc > 3) {
    std::fprintf(stderr, "usage: perf_smoke [min_ratio] [mot_cap]\n");
    return 2;
  }
  if (argc > 1 && !parse_ratio(argv[1], min_ratio)) {
    std::fprintf(stderr,
                 "error: min_ratio '%s' is not a non-negative decimal\n",
                 argv[1]);
    return 2;
  }
  if (argc > 2 && !parse_u64(argv[2], mot_cap)) {
    std::fprintf(stderr,
                 "error: mot_cap '%s' is not a non-negative integer\n",
                 argv[2]);
    return 2;
  }

  const auto* profile = circuits::find_profile("s5378");
  if (profile == nullptr) {
    std::fprintf(stderr, "error: no s5378 profile in the registry\n");
    return 2;
  }

  // Same config except the kernel: same test seed, so run_benchmark draws
  // the identical random sequence and both runs see the same candidates.
  RunConfig soa_config;
  soa_config.mot.num_threads = 1;
  soa_config.max_mot_faults = mot_cap;
  soa_config.mot.kernel = KernelKind::SoA;
  RunConfig legacy_config = soa_config;
  legacy_config.mot.kernel = KernelKind::Legacy;

  std::printf("perf smoke: s5378 slice, mot_cap=%llu, min mot-stage ratio "
              "%.2f\n", static_cast<unsigned long long>(mot_cap), min_ratio);
  const RunResult soa = run_benchmark(*profile, soa_config);
  print_row("soa", soa);
  const RunResult legacy = run_benchmark(*profile, legacy_config);
  print_row("legacy", legacy);

  const bool identical = legacy.conv_detected == soa.conv_detected &&
                         legacy.candidates == soa.candidates &&
                         legacy.proposed_extra == soa.proposed_extra &&
                         legacy.baseline_extra == soa.baseline_extra &&
                         legacy.baseline_only == soa.baseline_only;
  if (!identical) {
    std::fprintf(stderr, "FAIL: detection counts differ across kernels\n");
    return 1;
  }
  if (soa.seconds_mot <= 0.0 || legacy.seconds_mot <= 0.0) {
    std::fprintf(stderr, "error: degenerate stage timings\n");
    return 2;
  }
  const double ratio = legacy.seconds_mot / soa.seconds_mot;
  std::printf("mot-stage speedup legacy/soa: %.2fx (floor %.2fx)\n", ratio,
              min_ratio);
  if (ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: SoA kernel speedup %.2fx fell below the %.2fx floor\n",
                 ratio, min_ratio);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
