// Backward-implication collection — Procedure 1, steps 1-2 (paper §3.1-3.2).
//
// For every unspecified present-state variable y_i at time unit u (with
// unspecified-but-detectable outputs remaining at u-1 or later), the
// collector probes both values α ∈ {0,1}: it seeds Y_i = α into frame u-1 of
// the conventionally simulated faulty trace, runs the frame implicator, and
// records the first of
//
//   conf(u,i,α)    — the value is impossible,
//   detect(u,i,α)  — a primary output at u-1 became opposite to the
//                    fault-free value: the fault is detected for y_i = α,
//   extra(u,i,α)   — the set of present-state variables at u that become
//                    specified, including (i,α) itself.
//
// Synthesized pairs with u = 0 (extra = {(i,α)}) allow plain expansion of
// the initial state. The §3.2 check — detect on one side, conflict or
// detect on the other — concludes detection without any expansion.
//
// With options.backward_depth > 1, newly specified present-state variables
// at u-1 are pushed further back (Y at u-2, and so on), the multi-time-unit
// extension the paper describes at the end of its Section 2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mot/counters.hpp"
#include "mot/implicator.hpp"
#include "mot/options.hpp"
#include "mot/packed_implicator.hpp"
#include "util/deadline.hpp"

namespace motsim {

/// One element of an extra() set: present-state variable y_j = β.
using ExtraVal = std::pair<std::uint32_t, Val>;

struct PairInfo {
  std::uint32_t u = 0;  ///< time unit of the present-state variable
  std::uint32_t i = 0;  ///< state-variable index
  bool conf[2] = {false, false};
  bool detect[2] = {false, false};
  /// extra(u,i,a) — PSVs y_j = β at time u — is the run of
  /// extra_len[a] values at extra_off[a] in the owning CollectionResult's
  /// arena (read it through CollectionResult::extra); valid only when side
  /// `a` recorded neither conflict nor detection.
  std::uint32_t extra_off[2] = {0, 0};
  std::uint32_t extra_len[2] = {0, 0};

  bool side_closed(int a) const { return conf[a] || detect[a]; }
  bool one_sided() const { return side_closed(0) != side_closed(1); }
  bool both_open() const { return !side_closed(0) && !side_closed(1); }
  std::size_t n_extra(int a) const { return extra_len[a]; }
};

struct CollectionResult {
  std::vector<PairInfo> pairs;
  /// Every pair's extra() sets, lane-contiguous. Pairs hold offsets, not
  /// pointers, so a copied or moved result stays self-consistent.
  std::vector<ExtraVal> extras;
  /// Fault concluded detected by the §3.2 check (detect one side,
  /// conflict-or-detect the other).
  bool detected_by_check = false;
  /// True when options.max_pairs stopped the enumeration early.
  bool capped = false;

  /// extra(p.u, p.i, a), in ascending state-variable order.
  std::span<const ExtraVal> extra(const PairInfo& p, int a) const {
    return {extras.data() + p.extra_off[a], p.extra_len[a]};
  }

  /// Appends a pair whose sides specify only y_i itself (the [4]-style
  /// plain split, and the synthesized u = 0 pairs).
  void add_plain_pair(std::uint32_t u, std::uint32_t i);
};

class BackwardCollector {
 public:
  BackwardCollector(const Circuit& c, const MotOptions& opt);

  /// `faulty` must carry line values (keep_lines); they are probed in place
  /// and restored before returning. Requires good/faulty over the same test;
  /// a trace without line values or of mismatched length throws
  /// std::invalid_argument.
  ///
  /// `budget` (optional) is polled once per backward probe; when it runs out
  /// the enumeration stops and the partial pair list is returned — the
  /// caller must treat the fault as unresolved (budget.stop() says why), the
  /// same contract as `capped`.
  CollectionResult collect(const SeqTrace& good, SeqTrace& faulty,
                           const FaultView& fv, WorkBudget* budget = nullptr);

  /// Same, for callers that already hold `nout` = count_nout(good, faulty).
  CollectionResult collect(const SeqTrace& good, SeqTrace& faulty,
                           const FaultView& fv, std::span<const std::size_t> nout,
                           WorkBudget* budget = nullptr);

 private:
  /// Probes one (u, i, α); fills the pair's side, appending its extra() set
  /// to `extras`. Returns outcome.
  ImplOutcome probe(const SeqTrace& good, SeqTrace& faulty, const FaultView& fv,
                    std::uint32_t u, std::uint32_t i, int alpha, PairInfo& pair,
                    std::vector<ExtraVal>& extras);

  /// Per-window scratch of the packed path (collector.cpp), local to one
  /// collect() call so that its memory goes with the call.
  struct Window;

  /// Packed-probe body of collect() for one window of up to 64 time units
  /// (lane l probes u = w.frames[l] + 1): probes every candidate (u, i, α)
  /// of the window, one packed run per (i, α) across all lanes, then
  /// replays the serial pair order for the cap check, budget polls,
  /// classification, and the §3.2 early return. Returns false when
  /// collect() must return.
  bool collect_packed_window(const SeqTrace& good, const SeqTrace& faulty,
                             const FaultView& fv, Window& w,
                             WorkBudget* budget, CollectionResult& result);

  const Circuit* circuit_;
  MotOptions options_;
  std::vector<FrameImplicator> implicators_;  // one per backward frame depth
  /// Engaged for the SoA kernel at backward_depth 1 (the packed engine
  /// probes one frame per lane); deeper probes and the Legacy kernel use the
  /// serial path.
  std::optional<PackedFrameImplicator> packed_;
};

}  // namespace motsim
