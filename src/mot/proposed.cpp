#include "mot/proposed.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

namespace motsim {

const char* to_string(UnresolvedReason r) {
  switch (r) {
    case UnresolvedReason::None: return "none";
    case UnresolvedReason::Deadline: return "deadline";
    case UnresolvedReason::WorkLimit: return "work_limit";
    case UnresolvedReason::PairCap: return "pair_cap";
    case UnresolvedReason::NStates: return "n_states";
    case UnresolvedReason::Cancelled: return "cancelled";
    case UnresolvedReason::EngineError: return "engine_error";
  }
  return "?";
}

MotFaultSimulator::MotFaultSimulator(const Circuit& c, MotOptions options)
    : circuit_(&c),
      options_(options),
      conv_(c, options.kernel),
      selection_rng_(options.selection_seed) {
  if (options.use_backward_implications) collector_.emplace(c, options);
}

namespace {

/// Where plain pairs read their extra() sets: they lie in no run.
const CollectionResult kNoRuns;

const PairInfo* as_pair(const PairInfo* p) { return p; }
const PairInfo* as_pair(const PairInfo& p) { return &p; }

UnresolvedReason reason_of(BudgetStop stop) {
  switch (stop) {
    case BudgetStop::Deadline: return UnresolvedReason::Deadline;
    case BudgetStop::WorkLimit: return UnresolvedReason::WorkLimit;
    case BudgetStop::Cancelled: return UnresolvedReason::Cancelled;
    case BudgetStop::None: break;
  }
  return UnresolvedReason::None;
}

}  // namespace

ExpansionRanking::ExpansionRanking(std::span<const PairInfo> pairs,
                                   std::span<const std::size_t> nout,
                                   std::span<const std::size_t> nsv,
                                   SelectionPolicy policy)
    : pairs_(pairs) {
  // Step 3's static part: candidates must be two-sided, with N_out(u) > 0
  // and N_sv(u) > 0 (there must be something left to specify, and somewhere
  // to observe it). Ranked once by the static criteria of steps 4-6; a
  // later walk takes the first pair whose sv(u,i) constraint holds, which
  // is exactly the filter cascade of Procedure 2 — state sequences only
  // become more specified, so a pair that fails the constraint once can be
  // discarded permanently.
  const auto eligible = [&](const PairInfo& p) {
    return p.both_open() && p.u < nout.size() && nout[p.u] > 0 && nsv[p.u] > 0;
  };
  const bool full = policy == SelectionPolicy::Full;

  // Criteria (1)-(2) depend only on u: rank the eligible time units once by
  // (N_out descending, N_sv ascending), equal classes sharing a rank.
  std::vector<std::uint32_t> units;
  for (std::uint32_t u = 0; u < nout.size(); ++u) {
    if (nout[u] > 0 && nsv[u] > 0) units.push_back(u);
  }
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    if (nout[a] != nout[b]) return nout[a] > nout[b];
    return nsv[a] < nsv[b];
  };
  std::sort(units.begin(), units.end(), before);
  std::vector<std::uint64_t> unit_rank(nout.size(), 0);
  for (std::size_t k = 1; k < units.size(); ++k) {
    unit_rank[units[k]] =
        unit_rank[units[k - 1]] + (before(units[k - 1], units[k]) ? 1 : 0);
  }

  // Criteria (3)-(4) under Full: larger min, then larger max extra() set
  // first — stored as complements so that one ascending integer key ranks
  // all four criteria.
  std::size_t max_extra = 0;
  if (full) {
    for (const PairInfo& p : pairs) {
      if (eligible(p)) max_extra = std::max({max_extra, p.n_extra(0), p.n_extra(1)});
    }
  }
  const int w = std::bit_width(max_extra);
  assert(std::bit_width(units.size()) + 2 * w <= 64);
  const std::uint64_t top = (std::uint64_t{1} << w) - 1;

  for (std::uint32_t k = 0; k < pairs.size(); ++k) {
    const PairInfo& p = pairs[k];
    if (!eligible(p)) continue;
    std::uint64_t key = unit_rank[p.u] << (2 * w);
    if (full) {
      const std::uint64_t lo = std::min(p.n_extra(0), p.n_extra(1));
      const std::uint64_t hi = std::max(p.n_extra(0), p.n_extra(1));
      key |= (top - lo) << w | (top - hi);
    }
    heap_.emplace_back(key, k);
  }
  // (key, index) entries are distinct: popping yields the stable order by
  // key.
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

PlainWalk::PlainWalk(std::span<const std::vector<Val>> states,
                     std::span<const std::size_t> nout,
                     std::span<const std::size_t> nsv, std::size_t max_pairs)
    : states_(states) {
  pair_.extra_size[0] = pair_.extra_size[1] = 1;
  // Pool units in (u, i) order, up to the one where max_pairs binds.
  for (std::uint32_t u = 0; u < states.size() && !capped_; ++u) {
    if (u > 0 && nout[u - 1] == 0) continue;
    std::size_t n = nsv[u];
    auto end = static_cast<std::uint32_t>(states[u].size());
    if (n > max_pairs) {
      capped_ = true;
      n = max_pairs;
      end = 0;
      for (std::size_t seen = 0; seen < n; ++end) {
        seen += is_specified(states[u][end]) ? 0 : 1;
      }
    }
    max_pairs -= n;
    if (u > 0) probed_pairs_ += n;
    if (n > 0 && u < nout.size() && nout[u] > 0) units_.push_back({u, end});
  }
  std::stable_sort(units_.begin(), units_.end(), [&](Unit a, Unit b) {
    if (nout[a.u] != nout[b.u]) return nout[a.u] > nout[b.u];
    return nsv[a.u] < nsv[b.u];
  });
}

std::vector<PairInfo> PlainWalk::drain() {
  // Every pair read as invalid: the walk steps over all of them in order.
  std::vector<PairInfo> order;
  first_valid([&](const PairInfo* p) {
    order.push_back(*p);
    return false;
  });
  return order;
}

void ExpansionRanking::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
}

std::vector<const PairInfo*> ExpansionRanking::drain() {
  std::vector<const PairInfo*> order;
  order.reserve(heap_.size());
  while (!empty()) {
    order.push_back(top());
    pop();
  }
  return order;
}

template <typename Ranking, typename Order>
const PairInfo* MotFaultSimulator::select_pair(const CollectionResult& pool,
                                               Ranking& ranking,
                                               Order& random_order,
                                               const StateSet& set) {
  // The constraint of step 3: every variable of sv(u,i) — the union of the
  // variables in both extra sets — must be unspecified at u in all active
  // sequences. Checked without materializing the union; duplicates are
  // cheaper to re-check than to deduplicate.
  auto valid = [&](const PairInfo* p) {
    for (int a : {0, 1}) {
      for (const auto& [j, beta] : pool.extra(*p, a)) {
        (void)beta;
        ++stats_.select_reads;
        if (!set.unspecified_everywhere(p->u, j)) return false;
      }
    }
    return true;
  };
  if (options_.selection == SelectionPolicy::Random) {
    std::erase_if(random_order, [&](const auto& p) { return !valid(as_pair(p)); });
    if (random_order.empty()) return nullptr;
    return as_pair(random_order[selection_rng_.next_below(random_order.size())]);
  }
  // The ranking is static and specification is monotone: pairs popped as
  // invalid can never become valid again, so walking the heap implements
  // the paper's filter cascade.
  return ranking.first_valid(valid);
}

MotStats MotFaultSimulator::take_stats() {
  MotStats s = std::exchange(stats_, MotStats{});
  if (collector_.has_value()) s += collector_->take_stats();
  return s;
}

WorkBudget MotFaultSimulator::make_budget() const {
  return WorkBudget(Deadline::after_ms(options_.per_fault_time_ms),
                    options_.per_fault_work_limit, campaign_, cancel_);
}

template <typename Ranking>
bool MotFaultSimulator::expand_and_resimulate(
    const CollectionResult& pool, Ranking& ranking, const TestSequence& test,
    const SeqTrace& good, const SeqTrace& faulty, const FaultView& fv,
    bool apply_phase1, WorkBudget& budget, MotResult& result) {
  StateSet set(*circuit_, test, good, fv, faulty, options_.kernel);

  // Procedure 2, step 2 (phase 1): one-sided pairs close one value of y_i —
  // conflict means the value is impossible, detection means every run with
  // that value is already detected. Either way only y_i = ᾱ survives, and
  // the values implied for that side refine S0 in place.
  if (apply_phase1) {
    for (const PairInfo& p : pool.pairs) {
      if (!p.one_sided()) continue;
      const int closed = p.side_closed(0) ? 0 : 1;
      const int open = 1 - closed;
      ++result.phase1_pairs;
      if (p.detect[closed]) {
        result.counters.n_det += 1;
      } else {
        result.counters.n_conf += 1;
      }
      result.counters.n_extra += p.n_extra(open);
      for (const auto& [j, beta] : pool.extra(p, open)) {
        set.assign(0, p.u, j, beta);
      }
      stats_.phase1_reads += p.n_extra(open);
    }
  }

  // Procedure 2, steps 3-10 (phase 2): duplicating expansions.
  decltype(ranking.drain()) random_order;
  if (options_.selection == SelectionPolicy::Random) random_order = ranking.drain();
  std::vector<StateAssign> side[2];
  while (set.size() * 2 <= options_.n_states) {
    // An expansion duplicates every active sequence, so its cost scales
    // with the set size — charge that many units (not 1) or the doubling
    // growth would reach a huge N_STATES in too few polls for the clock
    // stride to ever observe the deadline.
    if (budget.poll(set.size())) return false;  // caller reads the reason
    const PairInfo* pick = select_pair(pool, ranking, random_order, set);
    if (pick == nullptr) break;
    ++result.expansions;
    result.counters.n_extra += pick->n_extra(0) + pick->n_extra(1);

    // Originals take extra(u,i,0), copies take extra(u,i,1).
    for (int a : {0, 1}) {
      auto extra = pool.extra(*pick, a);
      side[a].assign(extra.begin(), extra.end());
    }
    stats_.split_reads += side[0].size() + side[1].size();
    set.split(pick->u, side[0], side[1]);
  }

  // §3.4: resimulate and check.
  set.resimulate(&budget);
  result.final_sequences = set.size();
  // An Active sequence left by an exhausted budget correctly reads as
  // "not all resolved": budget overrun can only lose detections, never
  // fabricate one.
  return set.all_resolved();
}

MotResult MotFaultSimulator::simulate_fault(const TestSequence& test,
                                            const SeqTrace& good, const Fault& f) {
  // Conventional simulation (with line values kept: the collector probes
  // them in place). When the fault-free trace carries line values, the
  // faulty trace is derived incrementally from it (fault-cone events only).
  SeqTrace faulty = conv_.simulate_fault(test, f, /*keep_lines=*/true, &good);
  return simulate_fault(test, good, f, faulty);
}

MotResult MotFaultSimulator::simulate_fault(const TestSequence& test,
                                            const SeqTrace& good, const Fault& f,
                                            SeqTrace& faulty) {
  MotResult result;
  const FaultView fv(*circuit_, f);

  if (traces_conflict(good, faulty)) {
    result.detected = true;
    result.detected_conventional = true;
    result.phase = MotPhase::Conventional;
    return result;
  }

  // N_out and N_sv of the conventional trace, shared by every stage below.
  const std::vector<std::size_t> nout = count_nout(good, faulty);
  const std::vector<std::size_t> nsv = count_nsv(faulty);

  // Necessary condition (C).
  if (!passes_condition_c(nout, nsv)) {
    result.phase = MotPhase::FailedCondC;
    return result;
  }
  result.passes_c = true;

  // One budget covers the whole per-fault pipeline (collection, expansion,
  // resimulation, fallback); every early return below records its verdict.
  WorkBudget budget = make_budget();
  const auto finish = [&](MotResult& r) -> MotResult& {
    r.work_used = budget.work_used();
    if (!r.detected && r.phase == MotPhase::NotDetected) {
      if (budget.exhausted()) {
        r.unresolved = reason_of(budget.stop());
      } else if (r.collection_capped) {
        r.unresolved = UnresolvedReason::PairCap;
      } else {
        r.unresolved = UnresolvedReason::NStates;
      }
    }
    return r;
  };

  // [4]'s plain expansion over `walk`'s pairs (no phase 1).
  const auto expand_plain = [&](PlainWalk& walk, MotResult& r) {
    const bool detected = expand_and_resimulate(kNoRuns, walk, test, good, faulty,
                                                fv, false, budget, r);
    stats_.plain_enumerated += walk.examined();
    // Under Random the walk was drained into a vector of all its pairs.
    if (options_.selection == SelectionPolicy::Random) {
      stats_.plain_materialised += walk.examined();
    }
    return detected;
  };

  if (!collector_.has_value()) {
    // [4]: no backward implications, so no collection step — the plain walk
    // stands in for the candidate pool. Each pool pair with u > 0 is still
    // charged the two units of the probes it would have taken, so budgets
    // stop the baseline exactly where a probing collector would.
    PlainWalk walk(faulty.states, nout, nsv, options_.max_pairs);
    for (std::size_t n = walk.probed_pairs(); n > 0; --n) {
      if (budget.poll(2)) return finish(result);
    }
    result.collection_capped = walk.capped();
    if (expand_plain(walk, result)) {
      result.detected = true;
      result.phase = MotPhase::Expansion;
    }
    return finish(result);
  }

  // Procedure 1, steps 1-2: collect and check.
  const CollectionResult collected =
      collector_->collect(good, faulty, fv, nout, &budget);
  result.collection_capped = collected.capped;
  if (collected.detected_by_check) {
    result.detected = true;
    result.phase = MotPhase::Collection;
    return finish(result);
  }
  if (budget.exhausted()) return finish(result);

  // Procedure 2 + §3.4 with the collected (implication-enriched) pairs.
  ExpansionRanking ranking(collected.pairs, nout, nsv, options_.selection);
  if (expand_and_resimulate(collected, ranking, test, good, faulty, fv,
                            options_.use_phase1, budget, result)) {
    result.detected = true;
    result.phase = MotPhase::Expansion;
    return finish(result);
  }

  // Optional fallback: plain [4]-style expansion (no extras, no phase 1).
  if (!budget.exhausted() && options_.fallback_plain_expansion) {
    MotResult fallback;  // separate accounting; counters stay with the
                         // enriched attempt, which reflects the paper's rules
    PlainWalk walk(faulty.states, nout, nsv);
    const bool detected = expand_plain(walk, fallback);
    stats_.fallback_expansions += fallback.expansions;
    if (detected) {
      result.detected = true;
      result.via_fallback = true;
      result.phase = MotPhase::Expansion;
      result.final_sequences = fallback.final_sequences;
      return finish(result);
    }
  }
  return finish(result);
}

}  // namespace motsim
