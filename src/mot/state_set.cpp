#include "mot/state_set.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/frame_kernel.hpp"

namespace motsim {

StateSet::StateSet(const Circuit& c, const TestSequence& test, const SeqTrace& good,
                   const FaultView& fv, const SeqTrace& faulty, KernelKind kernel)
    : circuit_(&c),
      test_(&test),
      good_(&good),
      fv_(&fv),
      faulty_(&faulty),
      lev_(kernel == KernelKind::SoA ? &c.levelized() : nullptr) {
  StateSeq s0;
  s0.states = faulty.states;
  seqs_.push_back(std::move(s0));
  marked_.assign(test.length(), 0);
  if (lev_ != nullptr) {
    sweep_.emplace(*lev_);
    overlay_ = PackedOverlay(c.num_gates());
  } else {
    frame_.assign(c.num_gates(), Val::X);
    level_buckets_.assign(c.max_level() + 1, {});
    pending_.assign(c.num_gates(), 0);
  }
}

std::size_t StateSet::active_count() const {
  std::size_t n = 0;
  for (const StateSeq& s : seqs_) n += s.status == SeqStatus::Active;
  return n;
}

bool StateSet::all_resolved() const {
  for (const StateSeq& s : seqs_) {
    if (s.status == SeqStatus::Active) return false;
  }
  return true;
}

void StateSet::assign(std::size_t s, std::size_t u, std::size_t j, Val v) {
  StateSeq& seq = seqs_[s];
  if (seq.status != SeqStatus::Active) return;
  switch (refine_into(seq.states[u][j], v)) {
    case Refine::Conflict:
      seq.status = SeqStatus::Infeasible;
      return;
    case Refine::Changed:
      // The stored state was X here, so the conventional trace (which the
      // stored states refine) was X too: the sequence now diverges at u.
      seq.first_div = std::min(seq.first_div, static_cast<std::int64_t>(u));
      seq.last_div = std::max(seq.last_div, static_cast<std::int64_t>(u));
      break;
    case Refine::NoChange:
      break;
  }
  if (u < marked_.size()) marked_[u] = 1;
  // Assignments to the final state (u == L) have no frame to resimulate but
  // can still conflict, which the refine above captured.
}

bool StateSet::unspecified_everywhere(std::size_t u, std::size_t j) const {
  for (const StateSeq& s : seqs_) {
    if (s.status != SeqStatus::Active) continue;
    if (is_specified(s.states[u][j])) return false;
  }
  return true;
}

std::vector<std::size_t> StateSet::duplicate_active() {
  std::vector<std::size_t> copies;
  const std::size_t n = seqs_.size();
  for (std::size_t s = 0; s < n; ++s) {
    if (seqs_[s].status != SeqStatus::Active) continue;
    copies.push_back(seqs_.size());
    seqs_.push_back(seqs_[s]);
  }
  return copies;
}

void StateSet::resimulate(WorkBudget* budget) {
  if (lev_ != nullptr) {
    resimulate_packed(budget);
    marked_.assign(marked_.size(), 0);
    return;
  }
  for (StateSeq& seq : seqs_) {
    if (budget != nullptr && budget->exhausted()) break;
    if (seq.status == SeqStatus::Active) resimulate_one(seq, marked_, budget);
  }
  marked_.assign(marked_.size(), 0);
}

void StateSet::eval_seq_frame(const StateSeq& seq, std::size_t u) {
  const Circuit& c = *circuit_;
  const bool incremental = !faulty_->lines.empty();
  if (!incremental) {
    // Full evaluation: drive inputs and present state, sweep in topo order.
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      frame_[c.inputs()[k]] = fv_->input_value(k, test_->at(u, k));
    }
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      frame_[c.dffs()[j]] = seq.states[u][j];
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
    if (frame_[q] == seq.states[u][j]) continue;
    frame_[q] = seq.states[u][j];
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

void StateSet::resimulate_one(StateSeq& seq, std::vector<std::uint8_t> marked,
                              WorkBudget* budget) {
  const Circuit& c = *circuit_;
  const std::size_t L = test_->length();

  for (std::size_t u = 0; u < L; ++u) {
    if (!marked[u]) continue;
    if (budget != nullptr && budget->poll()) return;  // sequence stays Active
    eval_seq_frame(seq, u);

    // Output conflict with the fault-free response: detected.
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      if (conflicts(good_->outputs[u][o], frame_[c.outputs()[o]])) {
        seq.status = SeqStatus::Detected;
        return;
      }
    }
    // Next-state comparison against the stored state at u+1.
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      const Val next = fv_->present_state(j, fv_->next_state(j, frame_));
      Val& stored = seq.states[u + 1][j];
      switch (refine_into(stored, next)) {
        case Refine::Conflict:
          seq.status = SeqStatus::Infeasible;
          return;
        case Refine::Changed:
          if (u + 1 < L) marked[u + 1] = 1;
          seq.first_div =
              std::min(seq.first_div, static_cast<std::int64_t>(u + 1));
          seq.last_div =
              std::max(seq.last_div, static_cast<std::int64_t>(u + 1));
          break;
        case Refine::NoChange:
          break;
      }
    }
  }
}

void StateSet::eval_frame_packed(std::size_t u, const std::uint32_t* lane_seq,
                                 std::uint64_t do_eval) {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lev_;
  overlay_.begin();
  const auto read = [&](GateId x) { return overlay_.read(x, base_); };
  // Flip-flop j's present state at u in every evaluated lane, over `pv`.
  const auto lane_states = [&](std::size_t j, PVal pv) {
    for (std::uint64_t m = do_eval; m;) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      pv_set(pv, l, seqs_[lane_seq[l]].states[u][j]);
    }
    return pv;
  };

  if (faulty_->lines.empty()) {
    // Full packed sweep over an all-X base: apply the inputs, gather each
    // lane's present state, evaluate every combinational gate once for all
    // lanes.
    if (unknown_.size() != c.num_gates()) unknown_.assign(c.num_gates(), Val::X);
    base_ = unknown_.data();
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      overlay_.diverge(c.inputs()[k],
                       pv_splat(fv_->input_value(k, test_->at(u, k))), base_);
    }
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      overlay_.diverge(c.dffs()[j], lane_states(j, pv_all_x()), base_);
    }
    for (GateId g : lv.order()) {
      overlay_.diverge(g, packed_eval_gate_fn(lv, *fv_, g, read), base_);
    }
    return;
  }

  // Incremental packed sweep over the conventional frame: every lane starts
  // from it (a simulation fixpoint, so lanes whose flip-flops keep the base
  // value recompute to the base value and never produce spurious events).
  // Flip-flops whose stored state differs in some lane seed the dirty cone,
  // which is evaluated level by level for all lanes at once; only lines
  // that differ from the base in some lane are stored.
  base_ = faulty_->lines[u].data();
  for (std::size_t j = 0; j < c.num_dffs(); ++j) {
    const GateId q = c.dffs()[j];
    if (overlay_.diverge(q, lane_states(j, pv_splat(base_[q])), base_)) {
      sweep_->mark_readers(q);
    }
  }
  sweep_->drain([&](GateId g) {
    return overlay_.diverge(g, packed_eval_gate_fn(lv, *fv_, g, read), base_);
  });
}

void StateSet::resimulate_packed(WorkBudget* budget) {
  const Circuit& c = *circuit_;
  const LevelizedCircuit& lv = *lev_;
  const std::size_t L = test_->length();

  lanes_.clear();
  for (std::uint32_t s = 0; s < seqs_.size(); ++s) {
    if (seqs_[s].status == SeqStatus::Active) lanes_.push_back(s);
  }
  if (lanes_.empty() || L == 0) return;
  if (carry_.size() < L + 1) carry_.resize(L + 1);

  for (std::size_t pack = 0; pack < lanes_.size(); pack += 64) {
    const unsigned nl =
        static_cast<unsigned>(std::min<std::size_t>(64, lanes_.size() - pack));
    const std::uint32_t* lane_seq = lanes_.data() + pack;
    std::uint64_t alive = nl == 64 ? ~0ull : ((1ull << nl) - 1);
    std::fill(carry_.begin(), carry_.begin() + L + 1, 0);

    for (std::size_t u = 0; u < L && alive; ++u) {
      std::uint64_t eval_mask = marked_[u] ? alive : (carry_[u] & alive);
      if (!eval_mask) continue;

      // One budget poll per (lane, frame) — the exact multiset of charges
      // the legacy kernel issues, so work accounting is bit-identical. A
      // lane outside its divergence window is charged but not evaluated:
      // its stored states replay the conventional trace at u, so the
      // evaluation the legacy kernel performs there is a no-op.
      std::uint64_t do_eval = 0;
      for (std::uint64_t m = eval_mask; m;) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        if (budget != nullptr && budget->poll()) {
          return;  // refused lanes stay Active; caller sees exhausted()
        }
        const StateSeq& seq = seqs_[lane_seq[l]];
        const auto su = static_cast<std::int64_t>(u);
        if (su >= seq.first_div && su <= seq.last_div) do_eval |= 1ull << l;
      }
      if (!do_eval) continue;

      eval_frame_packed(u, lane_seq, do_eval);

      // Primary-output conflicts with the fault-free response: detected.
      std::uint64_t det = 0;
      for (std::size_t o = 0; o < c.num_outputs(); ++o) {
        const Val gv = good_->outputs[u][o];
        if (!is_specified(gv)) continue;
        const PVal pv = overlay_.read(c.outputs()[o], base_);
        det |= gv == Val::One ? pv.zeros : pv.ones;
      }
      det &= do_eval;
      for (std::uint64_t m = det; m;) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        seqs_[lane_seq[l]].status = SeqStatus::Detected;
      }
      alive &= ~det;

      // Next-state comparison against the stored state at u+1 for the
      // surviving evaluated lanes; a conflict at flip-flop j stops the
      // refinement of that lane (matching the legacy kernel's early return).
      // Stored states refine the conventional trace, so a lane whose next
      // state equals the conventional one cannot change or conflict: only
      // the lanes that differ from it are refined.
      std::uint64_t refn = do_eval & ~det;
      for (std::size_t j = 0; j < c.num_dffs() && refn; ++j) {
        const GateId q = c.dffs()[j];
        const PVal npv = fv_->out_fixed(q) || fv_->pin_fixed(q, 0)
                             ? pv_splat(fv_->fault()->stuck)
                             : overlay_.read(lv.dff_input(j), base_);
        const PVal conv = pv_splat(faulty_->states[u + 1][j]);
        const std::uint64_t differ =
            refn & ((npv.ones ^ conv.ones) | (npv.zeros ^ conv.zeros));
        for (std::uint64_t m = differ; m;) {
          const unsigned l = static_cast<unsigned>(std::countr_zero(m));
          m &= m - 1;
          StateSeq& seq = seqs_[lane_seq[l]];
          switch (refine_into(seq.states[u + 1][j], pv_get(npv, l))) {
            case Refine::Conflict:
              seq.status = SeqStatus::Infeasible;
              refn &= ~(1ull << l);
              alive &= ~(1ull << l);
              break;
            case Refine::Changed:
              if (u + 1 < L) carry_[u + 1] |= 1ull << l;
              seq.first_div =
                  std::min(seq.first_div, static_cast<std::int64_t>(u + 1));
              seq.last_div =
                  std::max(seq.last_div, static_cast<std::int64_t>(u + 1));
              break;
            case Refine::NoChange:
              break;
          }
        }
      }
    }
  }
}

}  // namespace motsim
