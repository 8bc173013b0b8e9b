// Per-fault effectiveness counters (paper, Section 4 / Table 3).
//
// Incremented once per (time unit, state variable) pair *selected for
// expansion*: a detection side adds to n_det, a conflict side to n_conf, and
// n_extra accumulates the sizes of the applied extra() sets. Without
// backward implications n_det = n_conf = 0 and n_extra <= 2 * expansions
// (each plain expansion specifies only the selected variable, once per
// value); values far above that measure what backward implications added.
#pragma once

#include <cstdint>

namespace motsim {

struct EffectivenessCounters {
  std::uint64_t n_det = 0;
  std::uint64_t n_conf = 0;
  std::uint64_t n_extra = 0;

  friend bool operator==(const EffectivenessCounters&,
                         const EffectivenessCounters&) = default;

  void operator+=(const EffectivenessCounters& o) {
    n_det += o.n_det;
    n_conf += o.n_conf;
    n_extra += o.n_extra;
  }
};

/// Work counts of the MOT stage (Procedure 1 and 2 per fault, plus the
/// plain [4]-style expansions). Diagnostics only: deterministic functions of
/// the faults simulated, so equal for every thread count, and part of no
/// result, report comparison or journal record.
struct MotStats {
  std::uint64_t packed_windows = 0;  ///< 64-time-unit windows of packed probes
  std::uint64_t packed_runs = 0;     ///< packed implication runs, one per (i, α)
  /// extra() elements the probes produced (all lanes of every run).
  std::uint64_t extras_produced = 0;
  /// extra() elements copied from the probe output into per-pair arrays.
  std::uint64_t extras_copied = 0;
  std::uint64_t phase1_reads = 0;  ///< extra() elements phase 1 applied
  /// extra() elements read by select_pair's sv(u,i) validity checks.
  std::uint64_t select_reads = 0;
  std::uint64_t split_reads = 0;  ///< extra() elements handed to splits
  /// Plain (u, i) pairs generated or examined for [4]-style expansion.
  std::uint64_t plain_enumerated = 0;
  /// Plain pairs stored as PairInfo entries of a candidate pool.
  std::uint64_t plain_materialised = 0;
  /// Expansions made by the plain-expansion fallback.
  std::uint64_t fallback_expansions = 0;

  MotStats& operator+=(const MotStats& o) {
    packed_windows += o.packed_windows;
    packed_runs += o.packed_runs;
    extras_produced += o.extras_produced;
    extras_copied += o.extras_copied;
    phase1_reads += o.phase1_reads;
    select_reads += o.select_reads;
    split_reads += o.split_reads;
    plain_enumerated += o.plain_enumerated;
    plain_materialised += o.plain_materialised;
    fallback_expansions += o.fallback_expansions;
    return *this;
  }
};

}  // namespace motsim
