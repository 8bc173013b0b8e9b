// Shared plumbing for the experiment benchmarks: every binary first prints
// its paper-reproduction output (tables/figures), then runs its
// google-benchmark timings. Invoke with --skip-repro to time only. Any other
// argument that google-benchmark does not know is an error (exit 1) before
// the reproduction starts.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

namespace motsim::benchutil {

inline void heading(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Standard main body: reproduction first (unless --skip-repro), then the
/// registered benchmarks.
inline int run(int argc, char** argv, void (*reproduction)()) {
  bool skip = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip-repro") == 0) {
      skip = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argv[kept] = nullptr;
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!skip) reproduction();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace motsim::benchutil

#define MOTSIM_BENCH_MAIN(reproduction_fn)                       \
  int main(int argc, char** argv) {                              \
    return motsim::benchutil::run(argc, argv, reproduction_fn);  \
  }
