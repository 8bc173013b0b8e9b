// Configuration shared by the MOT fault-simulation procedures.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/levelized.hpp"

namespace motsim {

/// How a frame-level implication pass propagates values.
enum class ImplMode : std::uint8_t {
  /// The paper's implementation: exactly one pass from outputs to inputs
  /// followed by one pass from inputs to outputs (Section 2).
  TwoPass,
  /// Event-driven local-rule fixpoint: strictly more implications than
  /// TwoPass (the paper notes "several passes ... may be required to
  /// determine all the implications"), and faster on large circuits because
  /// only the affected cone is touched.
  Fixpoint,
};

/// Pair-selection policy for the second expansion phase (ablation handle;
/// the paper uses Full).
enum class SelectionPolicy : std::uint8_t {
  Full,      ///< criteria (1)-(4) of Section 3.3
  TimeOnly,  ///< criteria (1)-(2) only — the information available to [4]
  Random,    ///< uniformly random valid pair
};

struct MotOptions {
  /// The paper's N_STATES: expansion stops when this many state sequences
  /// exist. 64 in all of the paper's experiments (6 doubling expansions).
  std::size_t n_states = 64;

  /// Which per-frame evaluator the engines run on. SoA (default) is the
  /// levelized struct-of-arrays kernel with 64-way packed resimulation and
  /// packed backward probes; Legacy is the original per-gate evaluator kept
  /// as reference semantics. Results are bit-identical (including budget
  /// work accounting) — enforced by the kernel equivalence tests.
  KernelKind kernel = KernelKind::SoA;

  /// When false, no backward implications are collected: every candidate
  /// pair degenerates to extra(u,i,α) = {(i,α)} with no conflict or
  /// detection information (walked by PlainWalk, never built), which makes
  /// the procedure the state-expansion method of [4] (same expansion
  /// skeleton, same budget, criteria (3)-(4) vacuous). This is the paper's
  /// controlled comparison.
  bool use_backward_implications = true;

  ImplMode impl_mode = ImplMode::Fixpoint;

  /// How many time units backward implications may cross. The paper's
  /// implementation uses 1; larger values are the extension discussed at the
  /// end of its Section 2.
  int backward_depth = 1;

  /// Cap on the number of (time unit, state variable) pairs examined during
  /// collection. Guards worst-case blowup on very large circuits; when the
  /// cap fires the result records `collection_capped` so no truncation is
  /// silent. The default never binds on the paper's benchmark sizes.
  std::size_t max_pairs = 1u << 20;

  /// Apply one-sided conflict/detection pairs in place (Procedure 2 step 2).
  /// Disabling this is an ablation: conflicts/detections then contribute
  /// nothing beyond ranking.
  bool use_phase1 = true;

  SelectionPolicy selection = SelectionPolicy::Full;
  std::uint64_t selection_seed = 0x5eed;  ///< used only by SelectionPolicy::Random

  /// Worker threads used by the batch drivers (MotBatchRunner and the
  /// ParallelFaultSimulator pre-pass). 0 = every CPU in the process's
  /// affinity mask (resolve_thread_count); 1 = fully serial, bit-identical
  /// to the single-threaded code path. The per-fault procedures themselves
  /// are single-threaded and one MotFaultSimulator / BackwardCollector
  /// instance must never be shared across threads — the batch drivers build
  /// one instance per worker.
  std::size_t num_threads = 0;

  /// Per-fault wall-clock budget in milliseconds (0 = unlimited). Polled at
  /// step granularity (backward probe / expansion / resimulated frame); a
  /// fault that exceeds it returns Unresolved{Deadline} instead of running
  /// on. Time-based budgets make results machine-dependent — keep this 0
  /// when bit-identical reruns matter and use per_fault_work_limit instead.
  std::uint64_t per_fault_time_ms = 0;

  /// Per-fault work-unit cap (0 = unlimited). One unit is one backward
  /// probe, one duplicated sequence during expansion, or one resimulated
  /// (sequence, frame) pair, so the count is a deterministic function of
  /// the fault — the same limit yields the same Unresolved{WorkLimit}
  /// outcomes at every thread count.
  std::uint64_t per_fault_work_limit = 0;

  /// Whole-campaign wall-clock budget for the batch drivers (0 = unlimited).
  /// When it expires, in-flight faults stop and every fault without a result
  /// is returned as Unresolved{Cancelled} — the campaign ends cleanly with
  /// one outcome per fault, never a hang and never a silent drop.
  std::uint64_t campaign_time_ms = 0;

  /// When the implication-enriched expansion fails to resolve a fault within
  /// the N_STATES budget, retry once with plain [4]-style expansion. The
  /// enriched extra() sets are a selection heuristic — occasionally a plain
  /// split of six individual variables resolves a fault the enriched split
  /// does not — and the fallback makes the paper's observation that the
  /// proposed procedure detects a superset of [4] hold by construction.
  bool fallback_plain_expansion = true;

  /// Graceful-degradation ladder for budget-stopped faults: when a fault's
  /// own budget (per_fault_time_ms / per_fault_work_limit) stops the
  /// proposed procedure, retry once with the cheaper plain [4]-style
  /// expansion under a fresh budget and, if that also fails to decide, fall
  /// back to the conventional classification. The downgrade is recorded in
  /// MotBatchItem::degrade — never silent — and is sound: a degraded result
  /// is at most *less precise* (a detection the full procedure would have
  /// found may be missed), never wrong. Engine *errors* always take this
  /// ladder regardless of the flag.
  bool degrade_on_budget = false;
};

}  // namespace motsim
