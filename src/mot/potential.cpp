#include "mot/potential.hpp"

#include "mot/state_set.hpp"

namespace motsim {

PotentialResult potential_detection_oracle(const Circuit& c,
                                           const TestSequence& test,
                                           const SeqTrace& good, const Fault& f,
                                           std::size_t max_ffs) {
  PotentialResult result;
  const std::size_t k = c.num_dffs();
  if (k > max_ffs || k >= 64) return result;
  result.computable = true;
  result.total_states = 1ull << k;

  const SequentialSimulator sim(c);
  const FaultView fv(c, f);
  std::vector<Val> init(k, Val::X);
  for (std::uint64_t bits = 0; bits < result.total_states; ++bits) {
    for (std::size_t j = 0; j < k; ++j) {
      init[j] = ((bits >> j) & 1) ? Val::One : Val::Zero;
    }
    const SeqTrace faulty = sim.run(test, fv, false, init);
    if (traces_conflict(good, faulty)) ++result.detected_states;
  }
  return result;
}

PotentialResult potential_detection_estimate(const Circuit& c,
                                             const TestSequence& test,
                                             const SeqTrace& good,
                                             const Fault& f,
                                             std::size_t n_states) {
  PotentialResult result;
  result.computable = true;

  const SequentialSimulator sim(c);
  const FaultView fv(c, f);
  SeqTrace faulty = sim.run(test, fv, /*keep_lines=*/true);
  StateSet set(c, test, good, fv, faulty);

  // Plain breadth-first expansion of the earliest unspecified variables —
  // the "limited state expansion" of [7], with no budget.
  WorkBudget unlimited;
  set.plain_expand(n_states, unlimited);

  result.total_states = set.size();
  for (std::size_t s = 0; s < set.size(); ++s) {
    // Infeasible sequences cover no run; counting them as "detected"
    // matches the restricted-MOT criterion (their runs do not exist).
    if (set.status(s) != SeqStatus::Active) ++result.detected_states;
  }
  return result;
}

}  // namespace motsim
