// 64-way parallel three-valued values.
//
// A PVal packs 64 independent three-valued values into two machine words
// using the classic (ones, zeros) encoding: bit k of `ones` set means slot k
// is 1, bit k of `zeros` set means slot k is 0, neither set means X. A slot
// with both bits set is a malformed value and never produced by the
// operations below.
//
// This encoding lets the parallel-pattern fault simulator evaluate one gate
// for 64 test patterns (or 64 faulty machines) with a handful of bitwise
// instructions. Used as a fast pre-pass; the serial simulator remains the
// reference semantics.
#pragma once

#include <cstdint>

#include "logic/gate_type.hpp"
#include "logic/val.hpp"

namespace motsim {

struct PVal {
  std::uint64_t ones = 0;
  std::uint64_t zeros = 0;

  friend bool operator==(const PVal&, const PVal&) = default;
};

/// All 64 slots X.
inline PVal pv_all_x() { return PVal{}; }

/// All 64 slots the same value (branch-free: hot in the overlay reads of
/// the parallel fault simulator, where the value is unpredictable).
inline PVal pv_splat(Val v) {
  return PVal{0ull - (v == Val::One), 0ull - (v == Val::Zero)};
}

/// Reads slot k.
inline Val pv_get(const PVal& p, unsigned k) {
  const std::uint64_t bit = 1ull << k;
  if (p.ones & bit) return Val::One;
  if (p.zeros & bit) return Val::Zero;
  return Val::X;
}

/// Writes slot k.
inline void pv_set(PVal& p, unsigned k, Val v) {
  const std::uint64_t bit = 1ull << k;
  p.ones &= ~bit;
  p.zeros &= ~bit;
  if (v == Val::One) p.ones |= bit;
  if (v == Val::Zero) p.zeros |= bit;
}

/// True if no slot has both bits set.
inline bool pv_well_formed(const PVal& p) { return (p.ones & p.zeros) == 0; }

inline PVal pv_not(const PVal& a) { return PVal{a.zeros, a.ones}; }

inline PVal pv_and(const PVal& a, const PVal& b) {
  return PVal{a.ones & b.ones, a.zeros | b.zeros};
}

inline PVal pv_or(const PVal& a, const PVal& b) {
  return PVal{a.ones | b.ones, a.zeros & b.zeros};
}

inline PVal pv_xor(const PVal& a, const PVal& b) {
  // Specified-and-differing -> 1; specified-and-equal -> 0; any X -> X.
  return PVal{(a.ones & b.zeros) | (a.zeros & b.ones),
              (a.ones & b.ones) | (a.zeros & b.zeros)};
}

/// Evaluates a combinational gate across all 64 slots.
/// Preconditions mirror eval_gate().
PVal pv_eval_gate(GateType t, const PVal* ins, std::size_t n);

/// Bitmask of slots where a and b are specified and differ — the parallel
/// analogue of conflicts().
inline std::uint64_t pv_conflict_mask(const PVal& a, const PVal& b) {
  return (a.ones & b.zeros) | (a.zeros & b.ones);
}

/// Bitmask of slots where p carries a specified (non-X) value.
inline std::uint64_t pv_specified_mask(const PVal& p) { return p.ones | p.zeros; }

/// Zero-copy variant of pv_eval_gate: reads input k through `get(k)`.
/// The hot path of the parallel simulators (semantics tested against
/// pv_eval_gate). Preconditions mirror pv_eval_gate.
template <typename GetVal>
PVal pv_eval_gate_fn(GateType t, std::size_t n, GetVal&& get) {
  switch (t) {
    case GateType::Const0:
      return pv_splat(Val::Zero);
    case GateType::Const1:
      return pv_splat(Val::One);
    case GateType::Buf:
      return get(0);
    case GateType::Not:
      return pv_not(get(0));
    case GateType::And:
    case GateType::Nand: {
      PVal acc = get(0);
      for (std::size_t k = 1; k < n; ++k) acc = pv_and(acc, get(k));
      return t == GateType::Nand ? pv_not(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      PVal acc = get(0);
      for (std::size_t k = 1; k < n; ++k) acc = pv_or(acc, get(k));
      return t == GateType::Nor ? pv_not(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      PVal acc = get(0);
      for (std::size_t k = 1; k < n; ++k) acc = pv_xor(acc, get(k));
      return t == GateType::Xnor ? pv_not(acc) : acc;
    }
    case GateType::Input:
    case GateType::Dff:
      return pv_all_x();
  }
  return pv_all_x();
}

}  // namespace motsim
