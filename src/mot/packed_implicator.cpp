#include "mot/packed_implicator.hpp"

#include <cassert>

#include "sim/frame_kernel.hpp"

namespace motsim {

PackedFrameImplicator::PackedFrameImplicator(const Circuit& c)
    : circuit_(&c), lev_(&c.levelized()) {
  in_queue_.assign(c.num_gates(), 0);
  queue_.resize(c.num_gates());
  out_slot_.assign(c.num_gates(), kNoOutput);
  for (const GateId g : c.outputs()) {
    if (out_slot_[g] != kNoOutput) continue;
    out_slot_[g] = static_cast<std::uint32_t>(out_gates_.size());
    out_gates_.push_back(g);
  }
}

void PackedFrameImplicator::refine_line(GateId line, std::uint64_t ones,
                                        std::uint64_t zeros) {
  PVal& cur = pframe_[line];
  const std::uint64_t confl = (ones & cur.zeros) | (zeros & cur.ones);
  if (confl) freeze(confl);
  const std::uint64_t change =
      ((ones | zeros) & ~(cur.ones | cur.zeros)) & live_;
  if (!change) return;
  trail_.push_back({line, cur});
  cur.ones |= ones & change;
  cur.zeros |= zeros & change;
}

void PackedFrameImplicator::forward_at(const FaultView& fv, GateId g) {
  const GateType t = lev_->type(g);
  if (t == GateType::Input || t == GateType::Dff || t == GateType::Const0 ||
      t == GateType::Const1) {
    return;
  }
  const PVal nv = packed_eval_gate(*lev_, fv, g, pframe_);
  refine_line(g, nv.ones & live_, nv.zeros & live_);
}

void PackedFrameImplicator::gather_pins(const FaultView& fv, GateId g,
                                        const GateId* fi, std::uint32_t n) {
  if (pins_.size() < n) {
    pins_.resize(n);
    pin_x_.resize(n);
  }
  // Pin values as the serial engine gathers them into scratch: a stuck pin
  // reads the stuck value. Conflicts are detected on these values — also
  // for stuck pins, whose drivers are never written back.
  const auto& flt = fv.fault();
  if (flt.has_value() && flt->gate == g && flt->pin != kOutputPin) {
    for (std::uint32_t k = 0; k < n; ++k) {
      pins_[k] = k == static_cast<std::uint32_t>(flt->pin)
                     ? pv_splat(flt->stuck)
                     : pframe_[fi[k]];
    }
  } else {
    for (std::uint32_t k = 0; k < n; ++k) pins_[k] = pframe_[fi[k]];
  }
}

void PackedFrameImplicator::backward_at(const FaultView& fv, GateId g) {
  const GateType t = lev_->type(g);
  // Within one frame a DFF's output (present state) is unrelated to its D
  // pin; inputs have no fanins; a stem-stuck output constrains nothing
  // behind the fault site. (Same skips as the serial backward_at.)
  if (t == GateType::Input || t == GateType::Dff || fv.out_fixed(g)) return;
  if (t == GateType::Const0 || t == GateType::Const1) {
    const PVal out = pframe_[g];
    const std::uint64_t os = (out.ones | out.zeros) & live_;
    if (!os) return;
    // A constant's line value never changes from its constant, so this
    // conflict is unreachable; kept for exact parity with infer_inputs.
    freeze((t == GateType::Const0 ? out.ones : out.zeros) & os);
    return;
  }
  gather_pins(fv, g, lev_->fanins(g), lev_->fanin_count(g));
  backward_rules(fv, g);
}

void PackedFrameImplicator::apply_at(const FaultView& fv, GateId g) {
  const GateType t = lev_->type(g);
  if (t == GateType::Input || t == GateType::Dff) return;
  if (t == GateType::Const0 || t == GateType::Const1) {
    // Forward skips constants; backward's parity check (unreachable, kept
    // for parity with infer_inputs) is all that remains.
    const PVal out = pframe_[g];
    const std::uint64_t os = (out.ones | out.zeros) & live_;
    if (os) freeze((t == GateType::Const0 ? out.ones : out.zeros) & os);
    return;
  }
  const GateId* fi = lev_->fanins(g);
  const std::uint32_t n = lev_->fanin_count(g);

  // Gates away from the fault site (all but at most one per circuit) take
  // fused register-only paths for the dominant one- and two-input shapes:
  // forward evaluation and backward rules from one set of pin reads, no
  // scratch-buffer round trip. Each path mirrors the generic rules exactly;
  // live_ is re-read between refine calls, as the generic per-pin loop does.
  if (!fv.fault().has_value() || fv.fault()->gate != g) {
    switch (t) {
      case GateType::Buf:
      case GateType::Not: {
        const PVal a = pframe_[fi[0]];
        const PVal nv = t == GateType::Buf ? a : pv_not(a);
        refine_line(g, nv.ones & live_, nv.zeros & live_);
        if (!live_) return;
        const PVal out = pframe_[g];
        const std::uint64_t os = (out.ones | out.zeros) & live_;
        if (!os) return;
        const PVal forced = t == GateType::Buf ? out : pv_not(out);
        freeze(((forced.ones & a.zeros) | (forced.zeros & a.ones)) & os);
        refine_line(fi[0], forced.ones & os & live_, forced.zeros & os & live_);
        return;
      }
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor: {
        if (n != 2) break;
        const PVal a = pframe_[fi[0]], b = pframe_[fi[1]];
        const bool ctrl1 = controlling_value(t);
        const bool all_nc = is_inverting(t) ? ctrl1 : !ctrl1;
        // Controlling-side / non-controlling-side masks per pin.
        const std::uint64_t ca = ctrl1 ? a.ones : a.zeros;
        const std::uint64_t na = ctrl1 ? a.zeros : a.ones;
        const std::uint64_t cb = ctrl1 ? b.ones : b.zeros;
        const std::uint64_t nb = ctrl1 ? b.zeros : b.ones;
        const std::uint64_t ctrl_any = ca | cb, nc_all = na & nb;
        refine_line(g, (all_nc ? nc_all : ctrl_any) & live_,
                    (all_nc ? ctrl_any : nc_all) & live_);
        if (!live_) return;
        const PVal out = pframe_[g];
        const std::uint64_t os = (out.ones | out.zeros) & live_;
        if (!os) return;
        std::uint64_t mask_a = (all_nc ? out.ones : out.zeros) & os;
        const std::uint64_t mask_b = (all_nc ? out.zeros : out.ones) & os;
        const std::uint64_t xa = ~(a.ones | a.zeros);
        const std::uint64_t xb = ~(b.ones | b.zeros);
        const std::uint64_t b_open = mask_b & ~ctrl_any;
        freeze((mask_a & ctrl_any) | (b_open & ~(xa | xb)));
        const std::uint64_t force_b = b_open & (xa ^ xb) & live_;
        mask_a &= live_;
        if (!mask_a && !force_b) return;
        {
          const std::uint64_t lone = force_b & xa & live_;
          const std::uint64_t av = mask_a & live_;
          const std::uint64_t f1 = ctrl1 ? lone : av, f0 = ctrl1 ? av : lone;
          if (f1 | f0) refine_line(fi[0], f1, f0);
        }
        {
          const std::uint64_t lone = force_b & xb & live_;
          const std::uint64_t av = mask_a & live_;
          const std::uint64_t f1 = ctrl1 ? lone : av, f0 = ctrl1 ? av : lone;
          if (f1 | f0) refine_line(fi[1], f1, f0);
        }
        return;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        if (n != 2) break;
        const PVal a = pframe_[fi[0]], b = pframe_[fi[1]];
        const std::uint64_t xa = ~(a.ones | a.zeros);
        const std::uint64_t xb = ~(b.ones | b.zeros);
        const std::uint64_t both = ~(xa | xb);
        const std::uint64_t odd = a.ones ^ b.ones;
        const std::uint64_t v1 = t == GateType::Xor ? odd : ~odd;
        refine_line(g, both & v1 & live_, both & ~v1 & live_);
        if (!live_) return;
        const PVal out = pframe_[g];
        const std::uint64_t os = (out.ones | out.zeros) & live_;
        if (!os) return;
        const std::uint64_t parity = t == GateType::Xnor ? ~odd : odd;
        freeze(os & both & (parity ^ out.ones));
        const std::uint64_t x1 = os & (xa ^ xb) & live_;
        if (!x1) return;
        const std::uint64_t needed = parity ^ out.ones;
        {
          const std::uint64_t lone = x1 & xa & live_;
          if (lone) refine_line(fi[0], lone & needed, lone & ~needed);
        }
        {
          const std::uint64_t lone = x1 & xb & live_;
          if (lone) refine_line(fi[1], lone & needed, lone & ~needed);
        }
        return;
      }
      default:
        break;
    }
  }

  if (fv.out_fixed(g)) {
    // Forward forces the stuck value; backward constrains nothing behind
    // the fault site.
    const PVal nv = pv_splat(fv.fault()->stuck);
    refine_line(g, nv.ones & live_, nv.zeros & live_);
    return;
  }
  // General path (wide gates and the fault site). One gather serves both
  // directions: the forward step writes only g's own output line, which is
  // never one of g's pins (no combinational cycles), so the serial engine's
  // back-to-back forward_at/backward_at see exactly these pin values too.
  gather_pins(fv, g, fi, n);
  const PVal nv = pv_eval_gate_fn(
      t, n, [&](std::size_t k) -> const PVal& { return pins_[k]; });
  refine_line(g, nv.ones & live_, nv.zeros & live_);
  if (!live_) return;
  backward_rules(fv, g);
}

void PackedFrameImplicator::backward_rules(const FaultView& fv, GateId g) {
  const GateType t = lev_->type(g);
  const PVal out = pframe_[g];
  const std::uint64_t os = (out.ones | out.zeros) & live_;
  if (!os) return;
  const GateId* fi = lev_->fanins(g);
  const std::uint32_t n = lev_->fanin_count(g);
  for (std::uint32_t k = 0; k < n; ++k) {
    pin_x_[k] = ~(pins_[k].ones | pins_[k].zeros);
  }

  switch (t) {
    case GateType::Buf:
    case GateType::Not: {
      const PVal forced = t == GateType::Buf ? out : pv_not(out);
      freeze(((forced.ones & pins_[0].zeros) | (forced.zeros & pins_[0].ones)) &
             os);
      if (!fv.pin_fixed(g, 0)) {
        refine_line(fi[0], forced.ones & os & live_, forced.zeros & os & live_);
      }
      return;
    }
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const bool ctrl1 = controlling_value(t);
      // Output bit observed when every input is non-controlling.
      const bool all_nc = is_inverting(t) ? ctrl1 : !ctrl1;
      std::uint64_t mask_a = (all_nc ? out.ones : out.zeros) & os;
      const std::uint64_t mask_b = (all_nc ? out.zeros : out.ones) & os;
      std::uint64_t has_ctrl = 0, x_once = 0, x_multi = 0, conflict_a = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        has_ctrl |= ctrl1 ? pins_[k].ones : pins_[k].zeros;
        conflict_a |= mask_a & (ctrl1 ? pins_[k].ones : pins_[k].zeros);
        x_multi |= x_once & pin_x_[k];
        x_once |= pin_x_[k];
      }
      // "Controlled" output with no controlling input: impossible with no X
      // input, forced onto a lone X input.
      const std::uint64_t b_open = mask_b & ~has_ctrl;
      freeze(conflict_a | (b_open & ~x_once));
      mask_a &= live_;
      const std::uint64_t force_b = b_open & x_once & ~x_multi & live_;
      if (!mask_a && !force_b) return;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (fv.pin_fixed(g, k)) continue;
        const std::uint64_t lone = force_b & pin_x_[k] & live_;
        const std::uint64_t a = mask_a & live_;
        // mask_a forces the non-controlling value, lone the controlling one.
        const std::uint64_t f1 = ctrl1 ? lone : a;
        const std::uint64_t f0 = ctrl1 ? a : lone;
        if (f1 | f0) refine_line(fi[k], f1, f0);
      }
      return;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint64_t parity = t == GateType::Xnor ? ~0ull : 0;
      std::uint64_t x_once = 0, x_multi = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        parity ^= pins_[k].ones;  // specified 1s flip parity; X/0 don't
        x_multi |= x_once & pin_x_[k];
        x_once |= pin_x_[k];
      }
      // No X input: the parity must match the output. One X input: it is
      // forced to the value that fixes the parity (needed = parity XOR out).
      freeze(os & ~x_once & (parity ^ out.ones));
      const std::uint64_t x1 = os & x_once & ~x_multi & live_;
      if (!x1) return;
      const std::uint64_t needed = parity ^ out.ones;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (fv.pin_fixed(g, k)) continue;
        const std::uint64_t lone = x1 & pin_x_[k] & live_;
        if (lone) refine_line(fi[k], lone & needed, lone & ~needed);
      }
      return;
    }
    default:
      return;
  }
}

void PackedFrameImplicator::bind(const SeqTrace& good, const SeqTrace& faulty,
                                 std::span<const std::uint32_t> frames) {
  assert(frames.size() <= 64);
  const std::size_t ng = circuit_->num_gates();
  const auto outputs = circuit_->outputs();
  trail_.clear();
  pframe_.assign(ng, PVal{});
  good_one_.assign(out_gates_.size(), 0);
  good_zero_.assign(out_gates_.size(), 0);
  for (std::size_t l = 0; l < frames.size(); ++l) {
    const Val* line = faulty.lines[frames[l]].data();
    assert(faulty.lines[frames[l]].size() == ng);
    for (std::size_t g = 0; g < ng; ++g) {
      pframe_[g].ones |= std::uint64_t{line[g] == Val::One} << l;
      pframe_[g].zeros |= std::uint64_t{line[g] == Val::Zero} << l;
    }
    const std::vector<Val>& out = good.outputs[frames[l]];
    assert(out.size() == outputs.size());
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      const std::uint32_t s = out_slot_[outputs[o]];
      good_one_[s] |= std::uint64_t{out[o] == Val::One} << l;
      good_zero_[s] |= std::uint64_t{out[o] == Val::Zero} << l;
    }
  }
  bound_detected_ = 0;
  for (std::size_t s = 0; s < out_gates_.size(); ++s) {
    const PVal& pv = pframe_[out_gates_[s]];
    bound_detected_ |= (good_one_[s] & pv.zeros) | (good_zero_[s] & pv.ones);
  }
}

PackedFrameImplicator::Outcome PackedFrameImplicator::run(std::uint64_t lanes,
                                                          GateId line, Val v,
                                                          const FaultView& fv,
                                                          ImplMode mode) {
  assert(lanes != 0 && is_specified(v));
  // Every write of the previous run is on the trail (seeds included), so
  // unwinding it returns pframe_ to the bound frames.
  for (std::size_t k = trail_.size(); k-- > 0;) {
    pframe_[trail_[k].line] = trail_[k].old;
  }
  trail_.clear();
  live_ = lanes;
  conflict_ = 0;

  // Seed every lane; a lane whose frame already contradicts the seed
  // conflicts before any propagation, exactly like the serial engine.
  {
    PVal& cur = pframe_[line];
    const std::uint64_t spec = cur.ones | cur.zeros;
    std::uint64_t& plane = v == Val::One ? cur.ones : cur.zeros;
    freeze(lanes & spec & ~plane);
    const std::uint64_t fresh = lanes & ~spec;
    if (fresh) {
      trail_.push_back({line, cur});
      plane |= fresh;
    }
  }

  if (mode == ImplMode::TwoPass) {
    const auto topo = circuit_->topo_order();
    for (std::size_t k = topo.size(); k-- > 0 && live_;) {
      backward_at(fv, topo[k]);
    }
    for (std::size_t k = 0; k < topo.size() && live_; ++k) {
      forward_at(fv, topo[k]);
    }
  } else {
    // FIFO ring over queue_: a gate is queued at most once at a time, so
    // num_gates slots always suffice. Inputs and flip-flop outputs are
    // never applied — apply_at does nothing for them — but a change on
    // them still wakes their readers.
    const std::size_t cap = queue_.size();
    std::size_t head = 0, tail = 0, queued = 0;
    auto enqueue = [&](GateId g) {
      const GateType t = lev_->type(g);
      if (in_queue_[g] || t == GateType::Input || t == GateType::Dff) return;
      in_queue_[g] = 1;
      queue_[tail] = g;
      if (++tail == cap) tail = 0;
      ++queued;
    };
    auto wake_readers = [&](GateId line) {
      const GateId* ro = lev_->fanouts(line);
      const std::uint32_t nro = lev_->fanout_count(line);
      for (std::uint32_t r = 0; r < nro; ++r) enqueue(ro[r]);
    };
    // Wake the seed line's neighbourhood, as the serial engine does for
    // each lane's seed.
    enqueue(line);
    wake_readers(line);
    while (queued > 0 && live_) {
      const GateId g = queue_[head];
      if (++head == cap) head = 0;
      --queued;
      in_queue_[g] = 0;
      const std::size_t before = trail_.size();
      apply_at(fv, g);
      for (std::size_t c = before; c < trail_.size(); ++c) {
        const GateId line = trail_[c].line;
        // apply_at already ran g's backward rules on its fresh output, so a
        // change of g's own output does not re-wake g; a changed pin does,
        // through that pin's readers.
        if (line != g) enqueue(line);
        wake_readers(line);
      }
    }
    for (; queued > 0; --queued) {  // lanes all frozen: drop the rest
      in_queue_[queue_[head]] = 0;
      if (++head == cap) head = 0;
    }
  }

  // Detection check for the lanes that propagated to quiescence, each
  // against its own frame's fault-free outputs (X there never detects). An
  // output off the trail holds its bound value, already in bound_detected_.
  std::uint64_t det = bound_detected_;
  for (const Change& ch : trail_) {
    const std::uint32_t s = out_slot_[ch.line];
    if (s == kNoOutput) continue;
    const PVal& pv = pframe_[ch.line];
    det |= (good_one_[s] & pv.zeros) | (good_zero_[s] & pv.ones);
  }
  return {conflict_, det & live_};
}

}  // namespace motsim
