#include "mot/state_set.hpp"

#include <algorithm>
#include <bit>

#include "sim/frame_kernel.hpp"

namespace motsim {

namespace {

/// Lanes of pack p whose sequence index is below n.
std::uint64_t lanes_below(std::size_t n, std::size_t p) {
  const std::size_t k = n > 64 * p ? n - 64 * p : 0;
  return k >= 64 ? ~0ull : (1ull << k) - 1;
}

}  // namespace

StateSet::StateSet(const Circuit& c, const TestSequence& test, const SeqTrace& good,
                   const FaultView& fv, const SeqTrace& faulty, KernelKind kernel)
    : circuit_(&c),
      test_(&test),
      good_(&good),
      fv_(&fv),
      faulty_(&faulty),
      lev_(kernel == KernelKind::SoA ? &c.levelized() : nullptr),
      num_ffs_(c.num_dffs()),
      packs_(1),
      slot_((test.length() + 1) * c.num_dffs(), 0),
      marked_(test.length(), 0) {
  if (lev_ != nullptr) {
    sweep_.emplace(*lev_);
    overlay_ = PackedOverlay(c.num_gates());
  } else {
    frame_.assign(c.num_gates(), Val::X);
    level_buckets_.assign(c.max_level() + 1, {});
    pending_.assign(c.num_gates(), 0);
  }
}

std::uint64_t StateSet::active(std::size_t p) const {
  return lanes_below(size_, p) & ~(packs_[p].detected | packs_[p].infeasible);
}

std::size_t StateSet::active_count() const {
  std::size_t n = 0;
  for (std::size_t p = 0; p < packs_.size(); ++p) n += std::popcount(active(p));
  return n;
}

SeqStatus StateSet::status(std::size_t s) const {
  const Pack& pack = packs_[s / 64];
  const std::uint64_t bit = 1ull << (s % 64);
  if (pack.detected & bit) return SeqStatus::Detected;
  if (pack.infeasible & bit) return SeqStatus::Infeasible;
  return SeqStatus::Active;
}

PVal StateSet::plane(std::size_t p, std::size_t u, std::size_t j) const {
  const std::uint32_t slot = slot_[u * num_ffs_ + j];
  return slot != 0 ? packs_[p].planes[slot - 1]
                   : pv_splat(faulty_->states[u][j]);
}

Val StateSet::state(std::size_t s, std::size_t u, std::size_t j) const {
  return pv_get(plane(s / 64, u, j), static_cast<unsigned>(s % 64));
}

StateSet::Refined StateSet::refine(std::size_t p, std::size_t u, std::size_t j,
                                   std::uint64_t lanes, PVal v) {
  const PVal cur = plane(p, u, j);
  Refined r;
  r.conflict = lanes & pv_conflict_mask(cur, v);
  r.changed = lanes & pv_specified_mask(v) & ~pv_specified_mask(cur);
  packs_[p].infeasible |= r.conflict;
  if (r.changed == 0) return r;
  std::uint32_t& slot = slot_[u * num_ffs_ + j];
  if (slot == 0) {
    // First refinement of (u, j), so the trace is X there: store the plane,
    // all-X, in every pack (lanes beyond size() included).
    for (Pack& pack : packs_) pack.planes.emplace_back();
    slot = static_cast<std::uint32_t>(packs_[0].planes.size());
  }
  PVal& stored = packs_[p].planes[slot - 1];
  stored.ones |= v.ones & r.changed;
  stored.zeros |= v.zeros & r.changed;
  return r;
}

void StateSet::assign_lanes(std::size_t p, std::size_t u,
                            std::span<const StateAssign> side,
                            std::uint64_t lanes) {
  for (const auto& [j, beta] : side) {
    if (lanes == 0) return;
    lanes &= ~refine(p, u, j, lanes, pv_splat(beta)).conflict;
    // Assignments to the final state (u == L) have no frame to resimulate
    // but can still conflict, which the refine above captured.
    if (lanes != 0 && u < marked_.size()) marked_[u] = 1;
  }
}

void StateSet::assign(std::size_t s, std::size_t u, std::size_t j, Val v) {
  const StateAssign a{static_cast<std::uint32_t>(j), v};
  assign_lanes(s / 64, u, {&a, 1}, active(s / 64) & (1ull << (s % 64)));
}

bool StateSet::unspecified_everywhere(std::size_t u, std::size_t j) const {
  for (std::size_t p = 0; p < packs_.size(); ++p) {
    if (pv_specified_mask(plane(p, u, j)) & active(p)) return false;
  }
  return true;
}

void StateSet::split(std::size_t u, std::span<const StateAssign> side0,
                     std::span<const StateAssign> side1) {
  const std::size_t originals = size_;
  // Copies move in runs of consecutive active sequences, cut where either
  // side starts a new pack; each run is one shift per stored plane.
  struct Run {
    std::size_t src, dst;
    unsigned len;
  };
  std::vector<Run> runs;
  std::size_t dst = size_;
  for (std::size_t s = 0; s < size_; ++s) {
    if (status(s) != SeqStatus::Active) continue;
    if (!runs.empty() && runs.back().src + runs.back().len == s &&
        s % 64 != 0 && dst % 64 != 0) {
      ++runs.back().len;
    } else {
      runs.push_back({s, dst, 1});
    }
    ++dst;
  }
  size_ = dst;
  const std::size_t stored = packs_[0].planes.size();
  while (packs_.size() * 64 < size_) {
    packs_.emplace_back().planes.resize(stored);
  }
  // A copy's lane is X in every stored plane: OR-ing the source bits in
  // reproduces the source exactly.
  for (const Run& r : runs) {
    const std::uint64_t mask = r.len == 64 ? ~0ull : (1ull << r.len) - 1;
    const unsigned from_lane = r.src % 64;
    const unsigned to_lane = r.dst % 64;
    const PVal* from = packs_[r.src / 64].planes.data();
    PVal* to = packs_[r.dst / 64].planes.data();
    for (std::size_t d = 0; d < stored; ++d) {
      to[d].ones |= ((from[d].ones >> from_lane) & mask) << to_lane;
      to[d].zeros |= ((from[d].zeros >> from_lane) & mask) << to_lane;
    }
  }
  // Originals take side 0, copies side 1.
  for (std::size_t p = 0; p < packs_.size(); ++p) {
    const std::uint64_t below = lanes_below(originals, p);
    const std::uint64_t act = active(p);
    assign_lanes(p, u, side0, act & below);
    assign_lanes(p, u, side1, act & ~below);
  }
}

void StateSet::plain_expand(std::size_t n_states, WorkBudget& budget) {
  const std::size_t L = test_->length();
  // all_resolved() also guards the vacuous case where no active sequence is
  // left: unspecified_everywhere() would then hold for every variable and
  // the empty duplication would loop forever.
  while (!all_resolved() && size_ * 2 <= n_states) {
    // Charge by set size: each split duplicates every active sequence, and
    // the doubling growth would otherwise outrun the poll clock stride.
    if (budget.poll(size_)) return;  // fault reported as unresolved
    bool found = false;
    for (std::size_t u = 0; u <= L && !found; ++u) {
      for (std::uint32_t i = 0; i < num_ffs_ && !found; ++i) {
        if (!unspecified_everywhere(u, i)) continue;
        found = true;
        const StateAssign zero{i, Val::Zero};
        const StateAssign one{i, Val::One};
        split(u, {&zero, 1}, {&one, 1});
      }
    }
    if (!found) return;
    resimulate(&budget);
  }
}

void StateSet::resimulate(WorkBudget* budget) {
  if (lev_ != nullptr) {
    for (std::size_t p = 0; p < packs_.size(); ++p) {
      if (!resimulate_pack(p, budget)) break;
    }
  } else {
    for (std::size_t s = 0; s < size_; ++s) {
      if (budget != nullptr && budget->exhausted()) break;
      if (status(s) == SeqStatus::Active) resimulate_one(s, marked_, budget);
    }
  }
  std::fill(marked_.begin(), marked_.end(), 0);
}

void StateSet::eval_seq_frame(std::size_t s, std::size_t u) {
  const Circuit& c = *circuit_;
  const bool incremental = !faulty_->lines.empty();
  if (!incremental) {
    // Full evaluation: drive inputs and present state, sweep in topo order.
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      frame_[c.inputs()[k]] = fv_->input_value(k, test_->at(u, k));
    }
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      frame_[c.dffs()[j]] = state(s, u, j);
    }
    SequentialSimulator(c, KernelKind::Legacy).eval_frame(frame_, *fv_);
    return;
  }

  // Incremental evaluation. The sequence's states refine the conventional
  // trace, so starting from the stored frame and re-evaluating only the
  // cone of the newly specified state variables is exact (monotone X ->
  // specified refinement; asserted by the state_set tests against the full
  // evaluation).
  frame_ = faulty_->lines[u];
  std::size_t max_dirty_level = 0;
  bool any = false;
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    const GateId q = c.dffs()[j];
    const Val v = state(s, u, j);
    if (frame_[q] == v) continue;
    frame_[q] = v;
    any = true;
    for (GateId reader : c.gate(q).fanouts) {
      if (!pending_[reader] && c.gate(reader).type != GateType::Dff) {
        pending_[reader] = 1;
        level_buckets_[c.level(reader)].push_back(reader);
        max_dirty_level = std::max<std::size_t>(max_dirty_level, c.level(reader));
      }
    }
  }
  if (!any) return;
  for (std::size_t lvl = 0; lvl <= max_dirty_level; ++lvl) {
    auto& bucket = level_buckets_[lvl];
    for (std::size_t b = 0; b < bucket.size(); ++b) {
      const GateId g = bucket[b];
      pending_[g] = 0;
      const Val newv = fv_->eval(g, frame_);
      if (newv == frame_[g]) continue;
      frame_[g] = newv;
      for (GateId reader : c.gate(g).fanouts) {
        if (!pending_[reader] && c.gate(reader).type != GateType::Dff) {
          pending_[reader] = 1;
          level_buckets_[c.level(reader)].push_back(reader);
          max_dirty_level =
              std::max<std::size_t>(max_dirty_level, c.level(reader));
        }
      }
    }
    bucket.clear();
  }
}

void StateSet::resimulate_one(std::size_t s, std::vector<std::uint8_t> marked,
                              WorkBudget* budget) {
  const Circuit& c = *circuit_;
  const std::size_t L = test_->length();
  const std::size_t p = s / 64;
  const std::uint64_t bit = 1ull << (s % 64);

  for (std::size_t u = 0; u < L; ++u) {
    if (!marked[u]) continue;
    if (budget != nullptr && budget->poll()) return;  // sequence stays Active
    eval_seq_frame(s, u);

    // Output conflict with the fault-free response: detected.
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      if (conflicts(good_->outputs[u][o], frame_[c.outputs()[o]])) {
        packs_[p].detected |= bit;
        return;
      }
    }
    // Next-state comparison against the stored state at u+1.
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      const Val next = fv_->present_state(j, fv_->next_state(j, frame_));
      const Refined r = refine(p, u + 1, j, bit, pv_splat(next));
      if (r.conflict != 0) return;
      if (r.changed != 0 && u + 1 < L) marked[u + 1] = 1;
    }
  }
}

void StateSet::eval_frame_packed(std::size_t p, std::size_t u,
                                 std::uint64_t do_eval) {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lev_;
  overlay_.begin();
  const auto read = [&](GateId x) { return overlay_.read(x, base_); };
  // Flip-flop j's present state at u in the evaluated lanes, X elsewhere.
  const auto lane_states = [&](std::size_t j) {
    const PVal pl = plane(p, u, j);
    return PVal{pl.ones & do_eval, pl.zeros & do_eval};
  };

  if (faulty_->lines.empty()) {
    // Full packed sweep over an all-X base: apply the inputs and the
    // present states, evaluate every combinational gate once for all lanes.
    if (unknown_.size() != c.num_gates()) unknown_.assign(c.num_gates(), Val::X);
    base_ = unknown_.data();
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      overlay_.diverge(c.inputs()[k],
                       pv_splat(fv_->input_value(k, test_->at(u, k))), base_);
    }
    for (std::size_t j = 0; j < num_ffs_; ++j) {
      overlay_.diverge(c.dffs()[j], lane_states(j), base_);
    }
    for (GateId g : lv.order()) {
      overlay_.diverge(g, packed_eval_gate_fn(lv, *fv_, g, read), base_);
    }
    return;
  }

  // Incremental packed sweep over the conventional frame: every lane starts
  // from it (a simulation fixpoint, so lanes whose flip-flops keep the base
  // value recompute to the base value and never produce spurious events).
  // Only stored planes can differ from the base, which is X there (lanes
  // outside do_eval keep it); those flip-flops seed the dirty cone, which
  // is evaluated level by level for all lanes at once.
  base_ = faulty_->lines[u].data();
  const std::uint32_t* slot = slot_.data() + u * num_ffs_;
  for (std::size_t j = 0; j < num_ffs_; ++j) {
    if (slot[j] == 0) continue;
    const GateId q = c.dffs()[j];
    if (overlay_.diverge(q, lane_states(j), base_)) sweep_->mark_readers(q);
  }
  sweep_->drain([&](GateId g) {
    return overlay_.diverge(g, packed_eval_gate_fn(lv, *fv_, g, read), base_);
  });
}

bool StateSet::resimulate_pack(std::size_t p, WorkBudget* budget) {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lev_;
  const std::size_t L = test_->length();

  std::uint64_t alive = active(p);
  if (alive == 0 || L == 0) return true;
  carry_.assign(L + 1, 0);

  for (std::size_t u = 0; u < L && alive; ++u) {
    const std::uint64_t eval_mask = marked_[u] ? alive : (carry_[u] & alive);
    if (!eval_mask) continue;

    // One budget poll per (lane, frame) — the exact multiset of charges
    // the legacy kernel issues, so work accounting is bit-identical. A
    // lane whose planes equal the conventional frame at u is charged but
    // not evaluated: it replays the conventional trace there, so the
    // evaluation the legacy kernel performs is a no-op.
    if (budget != nullptr) {
      for (std::uint64_t m = eval_mask; m; m &= m - 1) {
        if (budget->poll()) return false;  // lanes stay Active
      }
    }
    // Stored planes sit where the trace is X: a lane differs from the
    // conventional frame exactly where it specifies a stored plane.
    std::uint64_t diverged = 0;
    const std::uint32_t* slot = slot_.data() + u * num_ffs_;
    for (std::size_t j = 0; j < num_ffs_; ++j) {
      if (slot[j] != 0) diverged |= pv_specified_mask(packs_[p].planes[slot[j] - 1]);
    }
    const std::uint64_t do_eval = eval_mask & diverged;
    if (!do_eval) continue;

    eval_frame_packed(p, u, do_eval);

    // Primary-output conflicts with the fault-free response: detected.
    std::uint64_t det = 0;
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      const Val gv = good_->outputs[u][o];
      if (!is_specified(gv)) continue;
      const PVal pv = overlay_.read(c.outputs()[o], base_);
      det |= gv == Val::One ? pv.zeros : pv.ones;
    }
    det &= do_eval;
    packs_[p].detected |= det;
    alive &= ~det;

    // Next-state refinement of the surviving evaluated lanes, flip-flop by
    // flip-flop in ascending j: a conflict at j makes the lane Infeasible
    // and stops its later refinements (the legacy kernel's early return).
    std::uint64_t refn = do_eval & ~det;
    for (std::size_t j = 0; j < num_ffs_ && refn; ++j) {
      const GateId q = c.dffs()[j];
      const PVal next = fv_->out_fixed(q) || fv_->pin_fixed(q, 0)
                            ? pv_splat(fv_->fault()->stuck)
                            : overlay_.read(lv.dff_input(j), base_);
      const Refined r = refine(p, u + 1, j, refn, next);
      refn &= ~r.conflict;
      alive &= ~r.conflict;
      carry_[u + 1] |= r.changed;
    }
  }
  return true;
}

}  // namespace motsim
