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
  if (options_.kernel == KernelKind::SoA && depth == 1) packed_.emplace(c);
}

ImplOutcome BackwardCollector::probe(const SeqTrace& good, SeqTrace& faulty,
                                     const FaultView& fv, std::uint32_t u,
                                     std::uint32_t i, int alpha, PairInfo& pair,
                                     CollectionResult& result) {
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
    const auto off = static_cast<std::uint32_t>(result.entries.size());
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      if (is_specified(faulty.states[u][j])) continue;
      const Val y = fv.next_state(j, frame);
      if (!is_specified(y)) continue;
      result.entries.push_back({y == Val::One ? PVal{1, 0} : PVal{0, 1},
                                static_cast<std::uint32_t>(j)});
    }
    const auto len = static_cast<std::uint32_t>(result.entries.size()) - off;
    pair.extra_size[alpha] = len;
    pair.run[alpha] = static_cast<std::uint32_t>(result.runs.size());
    result.runs.push_back({off, len});
    stats_.extras_produced += len;
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
  /// Per (i, α): lanes that conflicted / detected, and the index of the run
  /// in CollectionResult::runs that holds the Ok lanes' extra() sets.
  std::vector<PackedFrameImplicator::Outcome> outcome;
  std::vector<std::uint32_t> run;
  /// Per (lane, i, α): |extra(u,i,α)| of an Ok lane.
  std::vector<std::uint32_t> extra_size;
  /// Candidate positions k (into cand) by D-pin driver: first_reader[g] is
  /// the first k whose flip-flop's D pin g drives, next_reader[k] the next
  /// (a gate can drive several D pins); kNoReader ends a list.
  static constexpr std::uint32_t kNoReader = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_reader, next_reader;
  /// Bitsets over candidate positions. `base`: positions whose D-pin value
  /// is specified in one of their unspec lanes before any probe — none on a
  /// trace whose states are the latched D-pin values, kept so the extra()
  /// sets do not rest on that. `touched`: positions one probe may extend.
  std::vector<std::uint64_t> base, touched;
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
    PairInfo pair;
    pair.i = static_cast<std::uint32_t>(i);
    pair.extra_size[0] = pair.extra_size[1] = 1;  // {(i, α)}, no run
    result.pairs.push_back(pair);
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
      PairInfo pair;
      pair.u = u;
      pair.i = i;
      probe(good, faulty, fv, u, i, 0, pair, result);
      probe(good, faulty, fv, u, i, 1, pair, result);
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
  ++stats_.packed_windows;
  w.outcome.resize(2 * nd);
  w.run.resize(2 * nd);
  w.extra_size.resize(2 * nd * nl);
  auto d_pin = [&](std::uint32_t j) -> PVal {
    return j == fixed_j ? pv_splat(fv.fault()->stuck)
                        : packed_->packed_value(c.dff_input(j));
  };
  w.base.assign((w.cand.size() + 63) / 64, 0);
  for (std::uint32_t k = 0; k < w.cand.size(); ++k) {
    const std::uint32_t j = w.cand[k];
    const PVal y = d_pin(j);
    if (((y.ones | y.zeros) & w.unspec[j]) != 0) w.base[k / 64] |= 1ull << (k % 64);
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
      ++stats_.packed_runs;

      // extra(u,i,α) exactly as the serial probe reads it off the implied
      // frame: next-state (D-pin) values for flip-flops that conventional
      // simulation left unspecified at u (w.unspec, per lane). A D pin off
      // the run's trail holds its bound value, so only the base positions
      // and the D pins the run wrote can contribute. Each such D pin is read
      // once for all Ok lanes into one run entry; the bitset yields the
      // positions in ascending candidate order.
      const std::uint64_t ok = seeded & ~(out.conflict | out.detected);
      if (ok == 0) continue;
      w.touched = w.base;
      for (const auto& ch : packed_->changes()) {
        for (std::uint32_t k = w.first_reader[ch.line]; k != Window::kNoReader;
             k = w.next_reader[k]) {
          w.touched[k / 64] |= 1ull << (k % 64);
        }
      }
      std::uint32_t size[64] = {};
      const auto off = static_cast<std::uint32_t>(result.entries.size());
      for (std::size_t word = 0; word < w.touched.size(); ++word) {
        for (std::uint64_t m = w.touched[word]; m; m &= m - 1) {
          const std::uint32_t j = w.cand[word * 64 + std::countr_zero(m)];
          const PVal y = d_pin(j);
          const std::uint64_t spec = (y.ones | y.zeros) & ok & w.unspec[j];
          if (spec == 0) continue;
          result.entries.push_back({{y.ones & spec, y.zeros & spec}, j});
          for (std::uint64_t l = spec; l; l &= l - 1) {
            ++size[std::countr_zero(l)];
          }
        }
      }
      w.run[2 * i + a] = static_cast<std::uint32_t>(result.runs.size());
      result.runs.push_back(
          {off, static_cast<std::uint32_t>(result.entries.size()) - off});
      for (std::uint64_t m = ok; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        w.extra_size[(l * nd + i) * 2 + a] = size[l];
        stats_.extras_produced += size[l];
      }
    }
  }

  // Replay in the serial (u, i) order.
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
      pair.lane = static_cast<std::uint8_t>(l);
      for (int a = 0; a < 2; ++a) {
        const PackedFrameImplicator::Outcome& out = w.outcome[2 * i + a];
        pair.conf[a] = (out.conflict & bit) != 0;
        pair.detect[a] = (out.detected & bit) != 0;
        if (pair.side_closed(a)) continue;
        pair.extra_size[a] = w.extra_size[(l * nd + i) * 2 + a];
        pair.run[a] = w.run[2 * i + a];
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
