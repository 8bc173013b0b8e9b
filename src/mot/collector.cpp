#include "mot/collector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

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

struct BackwardCollector::Window {
  std::vector<std::uint32_t> frames;  // lane l is bound to frame frames[l]
  /// The lane where options.max_pairs binds (0 if none) probes only the
  /// candidates i < cap_end.
  std::uint64_t cap_lane = 0;
  std::uint32_t cap_end = 0;
  std::vector<std::uint64_t> unspec;  // per flip-flop j: lanes where y_j is X
  std::vector<std::uint32_t> cand;    // flip-flops unspecified in some lane
  /// Per (i, α): lanes that conflicted / detected.
  std::vector<PackedFrameImplicator::Outcome> outcome;
  /// Per (lane, i, α): extra() set as a run of `extras`.
  struct Run {
    std::uint32_t off = 0, len = 0;
  };
  std::vector<Run> runs;
  std::vector<ExtraVal> extras;
  /// Candidate positions k (into cand) by D-pin driver: first_reader[g] is
  /// the first k whose flip-flop's D pin g drives, next_reader[k] the next
  /// (a gate can drive several D pins); kNoReader ends a list.
  static constexpr std::uint32_t kNoReader = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_reader, next_reader;
  /// Positions whose D-pin value is specified in one of their unspec lanes
  /// before any probe: none on a trace whose states are the latched D-pin
  /// values, kept so the extra() sets do not rest on that.
  std::vector<std::uint32_t> base;
  std::vector<std::uint32_t> touched;  // positions one probe may extend
  std::vector<PVal> cand_vals;         // per touched position, Ok lanes
};

namespace {

/// collect()'s preconditions, checked in every build: the probes read
/// faulty.lines[u - 1], faulty.states[u] and good.outputs[u - 1] for every
/// time unit u of the test.
void check_traces(const SeqTrace& good, const SeqTrace& faulty,
                  std::size_t num_gates) {
  const std::size_t L = good.length();
  if (faulty.length() != L || faulty.states.size() != L + 1) {
    throw std::invalid_argument(
        "BackwardCollector::collect: fault-free and faulty traces differ in "
        "length");
  }
  if (faulty.lines.size() != L ||
      std::ranges::any_of(faulty.lines, [&](const FrameVals& f) {
        return f.size() != num_gates;
      })) {
    throw std::invalid_argument(
        "BackwardCollector::collect: the faulty trace carries no line values "
        "(simulate it with keep_lines)");
  }
}

}  // namespace

CollectionResult BackwardCollector::collect(const SeqTrace& good, SeqTrace& faulty,
                                            const FaultView& fv,
                                            WorkBudget* budget) {
  check_traces(good, faulty, circuit_->num_gates());
  return collect(good, faulty, fv, count_nout(good, faulty), budget);
}

CollectionResult BackwardCollector::collect(const SeqTrace& good, SeqTrace& faulty,
                                            const FaultView& fv,
                                            std::span<const std::size_t> nout,
                                            WorkBudget* budget) {
  const Circuit& c = *circuit_;
  check_traces(good, faulty, c.num_gates());
  const std::size_t L = good.length();
  if (nout.size() != L) {
    throw std::invalid_argument(
        "BackwardCollector::collect: nout does not match the trace length");
  }

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

  if (packed_.has_value()) {
    // Windows of up to 64 time units, skipping those with N_out = 0 or no
    // candidate. A window ends at the time unit where max_pairs binds; that
    // lane probes only the candidates before the cap.
    Window w;
    std::uint32_t u = 1;
    while (u <= L) {
      w.frames.clear();
      w.unspec.assign(c.num_dffs(), 0);
      w.cap_lane = 0;
      std::size_t planned = result.pairs.size();
      for (; u <= L && w.frames.size() < 64 && w.cap_lane == 0; ++u) {
        if (nout[u - 1] == 0) continue;
        const std::uint64_t bit = 1ull << w.frames.size();
        bool any = false;
        for (std::uint32_t i = 0; i < c.num_dffs(); ++i) {
          if (is_specified(faulty.states[u][i])) continue;
          w.unspec[i] |= bit;
          any = true;
          if (w.cap_lane == 0 && planned++ == options_.max_pairs) {
            w.cap_lane = bit;
            w.cap_end = i;
          }
        }
        if (any) w.frames.push_back(u - 1);
      }
      if (w.frames.empty()) break;
      if (!collect_packed_window(good, faulty, fv, w, budget, result)) {
        return result;
      }
      assert(w.cap_lane == 0);
    }
    return result;
  }

  for (std::uint32_t u = 1; u <= L; ++u) {
    if (nout[u - 1] == 0) continue;  // nothing left to specify from here on
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

bool BackwardCollector::collect_packed_window(
    const SeqTrace& good, const SeqTrace& faulty, const FaultView& fv,
    Window& w, WorkBudget* budget, CollectionResult& result) {
  const Circuit& c = *circuit_;
  const std::size_t nd = c.num_dffs();
  const std::size_t nl = w.frames.size();
  if (w.first_reader.empty()) {
    w.first_reader.assign(c.num_gates(), Window::kNoReader);
  }
  for (const std::uint32_t j : w.cand) {  // the previous window's lists
    w.first_reader[c.dff_input(j)] = Window::kNoReader;
  }
  w.cand.clear();
  for (std::uint32_t j = 0; j < nd; ++j) {
    if (w.unspec[j] != 0) w.cand.push_back(j);
  }
  w.next_reader.resize(w.cand.size());
  for (std::uint32_t k = 0; k < w.cand.size(); ++k) {
    const GateId d = c.dff_input(w.cand[k]);
    w.next_reader[k] = w.first_reader[d];
    w.first_reader[d] = k;
  }

  // At most one flip-flop's D pin can be decoupled by the fault; resolve it
  // once so the extra() extraction below is a plain packed-value read.
  std::int64_t fixed_j = -1;
  if (fv.fault().has_value() && fv.fault()->pin == 0) {
    if (const auto idx = c.dff_index(fv.fault()->gate); idx.has_value()) {
      fixed_j = static_cast<std::int64_t>(*idx);
    }
  }

  // Probe: one packed run per (i, α), lane l seeding Y_i = α at frame
  // w.frames[l] wherever y_i is a candidate. The probes run before the
  // per-pair cap/budget checks below: a budget or §3.2 stop wastes the rest
  // of the window, but the observable results (pair list, classifications,
  // budget charges, early returns) replay the serial pair order exactly.
  packed_->bind(good, faulty, w.frames);
  w.outcome.resize(2 * nd);
  w.runs.resize(2 * nd * nl);
  w.extras.clear();
  auto d_pin = [&](std::uint32_t j) -> PVal {
    return j == fixed_j ? pv_splat(fv.fault()->stuck)
                        : packed_->packed_value(c.dff_input(j));
  };
  w.base.clear();
  for (std::uint32_t k = 0; k < w.cand.size(); ++k) {
    const std::uint32_t j = w.cand[k];
    const PVal y = d_pin(j);
    if (((y.ones | y.zeros) & w.unspec[j]) != 0) w.base.push_back(k);
  }
  for (const std::uint32_t i : w.cand) {
    const std::uint64_t seeded =
        w.unspec[i] & (i < w.cap_end ? ~0ull : ~w.cap_lane);
    if (seeded == 0) continue;
    for (int a = 0; a < 2; ++a) {
      const PackedFrameImplicator::Outcome out = packed_->run(
          seeded, c.dff_input(i), a == 0 ? Val::Zero : Val::One, fv,
          options_.impl_mode);
      w.outcome[2 * i + a] = out;

      // extra(u,i,α) exactly as the serial probe reads it off the implied
      // frame: next-state (D-pin) values for flip-flops that conventional
      // simulation left unspecified at u (w.unspec, per lane). A D pin off
      // the run's trail holds its bound value, so only the base positions
      // and the D pins the run wrote can contribute. Each such D pin is read
      // once for all Ok lanes; the sets are then laid out lane after lane in
      // w.extras, each run in ascending candidate order.
      const std::uint64_t ok = seeded & ~(out.conflict | out.detected);
      std::uint32_t len[64] = {};
      if (ok != 0) {
        w.touched.assign(w.base.begin(), w.base.end());
        for (const auto& ch : packed_->changes()) {
          for (std::uint32_t k = w.first_reader[ch.line];
               k != Window::kNoReader; k = w.next_reader[k]) {
            w.touched.push_back(k);
          }
        }
        std::ranges::sort(w.touched);
        w.touched.erase(std::ranges::unique(w.touched).begin(),
                        w.touched.end());
        w.cand_vals.resize(w.touched.size());
        for (std::size_t t = 0; t < w.touched.size(); ++t) {
          const std::uint32_t j = w.cand[w.touched[t]];
          const PVal y = d_pin(j);
          const std::uint64_t spec = (y.ones | y.zeros) & ok & w.unspec[j];
          w.cand_vals[t] = {y.ones & spec, y.zeros & spec};
          for (std::uint64_t m = spec; m; m &= m - 1) {
            ++len[std::countr_zero(m)];
          }
        }
      }
      std::uint32_t fill[64];
      auto end = static_cast<std::uint32_t>(w.extras.size());
      for (std::uint64_t m = seeded; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        w.runs[(l * nd + i) * 2 + a] = {end, len[l]};
        fill[l] = end;
        end += len[l];
      }
      if (ok == 0) continue;
      w.extras.resize(end);
      for (std::size_t t = 0; t < w.touched.size(); ++t) {
        const PVal y = w.cand_vals[t];
        for (std::uint64_t m = y.ones | y.zeros; m; m &= m - 1) {
          const unsigned l = static_cast<unsigned>(std::countr_zero(m));
          w.extras[fill[l]++] = {w.cand[w.touched[t]],
                                 (y.ones >> l) & 1 ? Val::One : Val::Zero};
        }
      }
    }
  }

  // Replay in the serial (u, i) order.
  std::vector<ExtraVal>& extras = result.extras;
  for (std::size_t l = 0; l < nl; ++l) {
    const std::uint64_t bit = 1ull << l;
    for (const std::uint32_t i : w.cand) {
      if ((w.unspec[i] & bit) == 0) continue;
      if (result.pairs.size() >= options_.max_pairs) {
        result.capped = true;
        return false;
      }
      if (budget != nullptr && budget->poll(2)) return false;
      PairInfo pair;
      pair.u = w.frames[l] + 1;
      pair.i = i;
      for (int a = 0; a < 2; ++a) {
        const PackedFrameImplicator::Outcome& out = w.outcome[2 * i + a];
        const Window::Run run = w.runs[(l * nd + i) * 2 + a];
        pair.conf[a] = (out.conflict & bit) != 0;
        pair.detect[a] = (out.detected & bit) != 0;
        pair.extra_off[a] = static_cast<std::uint32_t>(extras.size());
        pair.extra_len[a] = run.len;
        extras.insert(extras.end(), w.extras.begin() + run.off,
                      w.extras.begin() + run.off + run.len);
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
        return false;
      }
    }
  }
  return true;
}

}  // namespace motsim
