#include "mot/collector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace motsim {

BackwardCollector::BackwardCollector(const Circuit& c, const MotOptions& opt)
    : circuit_(&c), options_(opt) {
  const int depth = std::max(1, options_.backward_depth);
  implicators_.reserve(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) implicators_.emplace_back(c);
  if (options_.kernel == KernelKind::SoA && depth == 1 &&
      options_.use_backward_implications) {
    packed_.emplace(c);
  }
}

void CollectionResult::add_plain_pair(std::uint32_t u, std::uint32_t i) {
  PairInfo pair;
  pair.u = u;
  pair.i = i;
  for (int a = 0; a < 2; ++a) {
    pair.extra_off[a] = static_cast<std::uint32_t>(extras.size());
    pair.extra_len[a] = 1;
    extras.emplace_back(i, a == 0 ? Val::Zero : Val::One);
  }
  pairs.push_back(pair);
}

ImplOutcome BackwardCollector::probe(const SeqTrace& good, SeqTrace& faulty,
                                     const FaultView& fv, std::uint32_t u,
                                     std::uint32_t i, int alpha, PairInfo& pair,
                                     std::vector<ExtraVal>& extras) {
  const Circuit& c = *circuit_;
  const Val a = alpha == 0 ? Val::Zero : Val::One;

  // Seed Y_i = α at time unit u-1 and imply; optionally continue backward
  // through earlier frames while new present-state values appear.
  std::vector<std::pair<GateId, Val>> seeds = {{c.dff_input(i), a}};
  ImplOutcome outcome = ImplOutcome::Ok;
  std::size_t frames_used = 0;
  for (std::size_t d = 0; d < implicators_.size(); ++d) {
    const std::int64_t frame = static_cast<std::int64_t>(u) - 1 - static_cast<std::int64_t>(d);
    assert(frame >= 0 || d > 0);
    FrameImplicator& impl = implicators_[d];
    outcome = impl.run(faulty.lines[static_cast<std::size_t>(frame)], fv,
                       good.outputs[static_cast<std::size_t>(frame)], seeds,
                       options_.impl_mode);
    ++frames_used;
    if (outcome != ImplOutcome::Ok) break;
    if (d + 1 == implicators_.size() || frame == 0) break;
    // Newly specified present-state variables at `frame` are next-state
    // variables at frame-1.
    seeds.clear();
    for (const auto& [line, v] : impl.changes()) {
      const auto j = c.dff_index(line);
      if (j.has_value()) seeds.emplace_back(c.dff_input(*j), v);
    }
    if (seeds.empty()) break;
  }

  if (outcome == ImplOutcome::Conflict) {
    pair.conf[alpha] = true;
  } else if (outcome == ImplOutcome::Detected) {
    pair.detect[alpha] = true;
  } else {
    // extra(u,i,α): present-state variables at u that became specified —
    // read off the next-state (D-pin) values at frame u-1 for flip-flops
    // that conventional simulation left unspecified at u.
    const FrameVals& frame = faulty.lines[u - 1];
    pair.extra_off[alpha] = static_cast<std::uint32_t>(extras.size());
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      if (is_specified(faulty.states[u][j])) continue;
      const Val y = fv.next_state(j, frame);
      if (is_specified(y)) extras.emplace_back(static_cast<std::uint32_t>(j), y);
    }
    pair.extra_len[alpha] =
        static_cast<std::uint32_t>(extras.size()) - pair.extra_off[alpha];
  }

  // Roll every probed frame back, newest first.
  for (std::size_t d = frames_used; d-- > 0;) {
    const std::size_t frame = u - 1 - d;
    implicators_[d].undo(faulty.lines[frame]);
  }
  return outcome;
}

CollectionResult BackwardCollector::collect(const SeqTrace& good, SeqTrace& faulty,
                                            const FaultView& fv,
                                            WorkBudget* budget) {
  return collect(good, faulty, fv, count_nout(good, faulty), budget);
}

CollectionResult BackwardCollector::collect(const SeqTrace& good, SeqTrace& faulty,
                                            const FaultView& fv,
                                            std::span<const std::size_t> nout,
                                            WorkBudget* budget) {
  const Circuit& c = *circuit_;
  assert(!faulty.lines.empty() && "collector needs a trace with line values");
  const std::size_t L = good.length();
  assert(nout.size() == L);

  CollectionResult result;

  // Synthesized u = 0 pairs: plain expansion of the initial state, no
  // backward implication possible (paper §3.1, last paragraph).
  for (std::size_t i = 0; i < c.num_dffs(); ++i) {
    if (is_specified(faulty.states[0][i])) continue;
    if (result.pairs.size() >= options_.max_pairs) {
      result.capped = true;
      return result;
    }
    result.add_plain_pair(0, static_cast<std::uint32_t>(i));
  }

  for (std::uint32_t u = 1; u <= L; ++u) {
    if (nout[u - 1] == 0) continue;  // nothing left to specify from here on
    if (packed_.has_value()) {
      if (!collect_packed_frame(good, faulty, fv, u, budget, result)) {
        return result;
      }
      continue;
    }
    for (std::uint32_t i = 0; i < c.num_dffs(); ++i) {
      if (is_specified(faulty.states[u][i])) continue;
      if (result.pairs.size() >= options_.max_pairs) {
        result.capped = true;
        return result;
      }
      // Two backward probes per pair; the budget poll is what lets a
      // pathological fault stop mid-collection instead of hanging.
      if (budget != nullptr && budget->poll(2)) return result;
      if (!options_.use_backward_implications) {
        // [4]-style plain expansion: the pair specifies only itself.
        result.add_plain_pair(u, i);
        continue;
      }
      PairInfo pair;
      pair.u = u;
      pair.i = i;
      probe(good, faulty, fv, u, i, 0, pair, result.extras);
      probe(good, faulty, fv, u, i, 1, pair, result.extras);
      // Sound implications cannot refute both values: some concrete run of
      // the faulty machine realizes each reachable trace.
      assert(!(pair.conf[0] && pair.conf[1]));

      // §3.2: detection on one side and conflict-or-detection on the other
      // closes the fault without any expansion.
      if ((pair.detect[0] && pair.side_closed(1)) ||
          (pair.detect[1] && pair.side_closed(0))) {
        result.detected_by_check = true;
        result.pairs.push_back(pair);
        return result;
      }
      result.pairs.push_back(pair);
    }
  }
  return result;
}

bool BackwardCollector::collect_packed_frame(const SeqTrace& good,
                                             const SeqTrace& faulty,
                                             const FaultView& fv,
                                             std::uint32_t u, WorkBudget* budget,
                                             CollectionResult& result) {
  const Circuit& c = *circuit_;
  cand_.clear();
  for (std::uint32_t i = 0; i < c.num_dffs(); ++i) {
    if (!is_specified(faulty.states[u][i])) cand_.push_back(i);
  }

  // At most one flip-flop's D pin can be decoupled by the fault; resolve it
  // once so the extra() extraction below is a plain packed-value read.
  std::int64_t fixed_j = -1;
  if (fv.fault().has_value() && fv.fault()->pin == 0) {
    if (const auto idx = c.dff_index(fv.fault()->gate); idx.has_value()) {
      fixed_j = static_cast<std::int64_t>(*idx);
    }
  }

  PackedFrameImplicator::LaneSeed seeds[64];
  ImplOutcome outcomes[64];
  std::uint32_t lane_off[64], lane_len[64];
  std::vector<ExtraVal>& extras = result.extras;
  cand_vals_.resize(cand_.size());
  for (std::size_t chunk = 0; chunk < cand_.size(); chunk += 32) {
    const std::size_t nc = std::min<std::size_t>(32, cand_.size() - chunk);
    const std::size_t nl = 2 * nc;
    // The packed probe runs before the per-pair cap/budget checks below: a
    // stop mid-chunk wastes the remaining probed lanes, but the observable
    // results (pair list, classifications, budget charges, early returns)
    // replay the serial pair order exactly.
    for (std::size_t p = 0; p < nc; ++p) {
      const GateId d = c.dff_input(cand_[chunk + p]);
      seeds[2 * p] = {d, Val::Zero};
      seeds[2 * p + 1] = {d, Val::One};
    }
    packed_->run(faulty.lines[u - 1], fv, good.outputs[u - 1],
                 std::span<const PackedFrameImplicator::LaneSeed>(seeds, nl),
                 options_.impl_mode, outcomes);

    // extra(u,i,α) exactly as the serial probe reads it off the implied
    // frame: next-state (D-pin) values for flip-flops that conventional
    // simulation left unspecified at u — cand_ is precisely that list, in
    // ascending order. Each candidate's D pin is read once for all Ok
    // lanes; the sets are then laid out lane after lane (pair order) in the
    // arena, each run in candidate order.
    std::uint64_t ok = 0;
    for (std::size_t l = 0; l < nl; ++l) {
      if (outcomes[l] == ImplOutcome::Ok) ok |= 1ull << l;
      lane_len[l] = 0;
    }
    for (std::size_t k = 0; k < cand_.size(); ++k) {
      const std::uint32_t j = cand_[k];
      const PVal y = j == fixed_j ? pv_splat(fv.fault()->stuck)
                                  : packed_->packed_value(c.dff_input(j));
      const std::uint64_t spec = (y.ones | y.zeros) & ok;
      cand_vals_[k] = {y.ones & spec, y.zeros & spec};
      for (std::uint64_t m = spec; m; m &= m - 1) ++lane_len[std::countr_zero(m)];
    }
    std::uint32_t end = static_cast<std::uint32_t>(extras.size());
    for (std::size_t l = 0; l < nl; ++l) {
      lane_off[l] = end;
      end += lane_len[l];
    }
    extras.resize(end);
    std::uint32_t fill[64];
    std::copy(lane_off, lane_off + nl, fill);
    for (std::size_t k = 0; k < cand_.size(); ++k) {
      const PVal y = cand_vals_[k];
      for (std::uint64_t m = y.ones | y.zeros; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        extras[fill[l]++] = {cand_[k], (y.ones >> l) & 1 ? Val::One : Val::Zero};
      }
    }

    for (std::size_t p = 0; p < nc; ++p) {
      const std::uint32_t i = cand_[chunk + p];
      // A stop drops the sets of this pair and the rest of the chunk.
      if (result.pairs.size() >= options_.max_pairs) {
        result.capped = true;
        extras.resize(lane_off[2 * p]);
        return false;
      }
      if (budget != nullptr && budget->poll(2)) {
        extras.resize(lane_off[2 * p]);
        return false;
      }
      PairInfo pair;
      pair.u = u;
      pair.i = i;
      for (int a = 0; a < 2; ++a) {
        const std::size_t lane = 2 * p + static_cast<std::size_t>(a);
        pair.conf[a] = outcomes[lane] == ImplOutcome::Conflict;
        pair.detect[a] = outcomes[lane] == ImplOutcome::Detected;
        pair.extra_off[a] = lane_off[lane];
        pair.extra_len[a] = lane_len[lane];
      }
      // Sound implications cannot refute both values: some concrete run of
      // the faulty machine realizes each reachable trace.
      assert(!(pair.conf[0] && pair.conf[1]));
      result.pairs.push_back(pair);

      // §3.2: detection on one side and conflict-or-detection on the other
      // closes the fault without any expansion.
      if ((pair.detect[0] && pair.side_closed(1)) ||
          (pair.detect[1] && pair.side_closed(0))) {
        result.detected_by_check = true;
        extras.resize(pair.extra_off[1] + pair.extra_len[1]);
        return false;
      }
    }
  }
  return true;
}

}  // namespace motsim
