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

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "logic/pval.hpp"
#include "mot/counters.hpp"
#include "mot/implicator.hpp"
#include "mot/options.hpp"
#include "mot/packed_implicator.hpp"
#include "util/deadline.hpp"

namespace motsim {

/// One element of an extra() set: present-state variable y_j = β.
using ExtraVal = std::pair<std::uint32_t, Val>;

/// One flip-flop of a probe run: y_j's value in every lane of the run (a set
/// bit of v.ones / v.zeros puts y_j = 1 / 0 into that lane's extra() set).
struct RunEntry {
  PVal v;
  std::uint32_t j = 0;
};

struct PairInfo {
  /// run[a] of a side in no run: a conflict or detection side, or a side
  /// whose extra() set is {(i, α)} alone (the synthesized u = 0 pairs and
  /// the plain walk's pairs).
  static constexpr std::uint32_t kSelf = ~std::uint32_t{0};

  std::uint32_t u = 0;  ///< time unit of the present-state variable
  std::uint32_t i = 0;  ///< state-variable index
  bool conf[2] = {false, false};
  bool detect[2] = {false, false};
  /// |extra(u,i,a)|; 0 when side `a` recorded a conflict or a detection.
  std::uint32_t extra_size[2] = {0, 0};
  /// extra(u,i,a) is lane `lane` of run `run[a]` of the owning
  /// CollectionResult (read it through CollectionResult::extra).
  std::uint32_t run[2] = {kSelf, kSelf};
  std::uint8_t lane = 0;

  bool side_closed(int a) const { return conf[a] || detect[a]; }
  bool one_sided() const { return side_closed(0) != side_closed(1); }
  bool both_open() const { return !side_closed(0) && !side_closed(1); }
  std::size_t n_extra(int a) const { return extra_size[a]; }
};

struct CollectionResult {
  std::vector<PairInfo> pairs;
  /// Every probe run's extra() sets as they came off the implication trail:
  /// run r is entries[runs[r].off, runs[r].off + runs[r].len), in ascending
  /// j. Pairs hold run indices, not pointers, so a copied or moved result
  /// stays self-consistent.
  struct Run {
    std::uint32_t off = 0, len = 0;
  };
  std::vector<Run> runs;
  std::vector<RunEntry> entries;
  /// Fault concluded detected by the §3.2 check (detect one side,
  /// conflict-or-detect the other).
  bool detected_by_check = false;
  /// True when options.max_pairs stopped the enumeration early.
  bool capped = false;

  /// extra(p.u, p.i, a) in ascending state-variable order, as a view of the
  /// run entries whose lane bit is set. A side in no run reads one shared
  /// entry: y_i = 0 in lane 0 and y_i = 1 in lane 1.
  auto extra(const PairInfo& p, int a) const {
    static constexpr RunEntry kSelfEntry{{2, 1}, PairInfo::kSelf};
    std::span<const RunEntry> run(&kSelfEntry, std::min(p.extra_size[a], 1u));
    std::uint64_t bit = 1ull << a;
    if (p.run[a] != PairInfo::kSelf) {
      run = std::span(entries).subspan(runs[p.run[a]].off, runs[p.run[a]].len);
      bit = 1ull << p.lane;
    }
    return run | std::views::filter([bit](const RunEntry& e) {
             return ((e.v.ones | e.v.zeros) & bit) != 0;
           }) |
           std::views::transform([bit, i = p.i](const RunEntry& e) {
             return ExtraVal{e.j == PairInfo::kSelf ? i : e.j,
                             (e.v.ones & bit) != 0 ? Val::One : Val::Zero};
           });
  }
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

  /// Collection work counted since the last call (the packed_* and
  /// extras_* fields of MotStats), which resets the counts.
  MotStats take_stats() { return std::exchange(stats_, MotStats{}); }

 private:
  /// Probes one (u, i, α); fills the pair's side, appending its extra() set
  /// to `result` as a one-lane run. Returns outcome.
  ImplOutcome probe(const SeqTrace& good, SeqTrace& faulty, const FaultView& fv,
                    std::uint32_t u, std::uint32_t i, int alpha, PairInfo& pair,
                    CollectionResult& result);

  /// Per-window scratch of the packed path (collector.cpp), local to one
  /// collect() call so that its memory goes with the call.
  struct Window;

  /// Packed-probe body of collect() for one window of up to 64 time units
  /// (lane l probes u = w.frames[l] + 1): probes every candidate (u, i, α)
  /// of the window, one packed run per (i, α) across all lanes, kept in
  /// `result` as it comes off the trail, then replays the serial pair order
  /// for the cap check, budget polls, classification, and the §3.2 early
  /// return. Returns false when collect() must return.
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
  MotStats stats_;
};

}  // namespace motsim
