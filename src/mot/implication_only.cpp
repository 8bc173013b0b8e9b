#include "mot/implication_only.hpp"

namespace motsim {

ImplicationOnlySimulator::ImplicationOnlySimulator(const Circuit& c,
                                                   MotOptions options)
    : circuit_(&c),
      options_(options),
      conv_(c, options.kernel),
      collector_(c, options) {}

ImplicationOnlyResult ImplicationOnlySimulator::simulate_fault(
    const TestSequence& test, const SeqTrace& good, const Fault& f) {
  SeqTrace faulty = conv_.simulate_fault(test, f, /*keep_lines=*/true, &good);
  return simulate_fault(test, good, f, faulty);
}

ImplicationOnlyResult ImplicationOnlySimulator::simulate_fault(
    const TestSequence& test, const SeqTrace& good, const Fault& f,
    SeqTrace& faulty) {
  (void)test;
  ImplicationOnlyResult result;
  const FaultView fv(*circuit_, f);

  if (traces_conflict(good, faulty)) {
    result.detected = true;
    result.detected_conventional = true;
    return result;
  }
  const std::vector<std::size_t> nout = count_nout(good, faulty);
  if (!passes_condition_c(nout, count_nsv(faulty))) return result;
  result.passes_c = true;

  // Detection comes from the collected implications alone (§3.2): the
  // collector stops early and flags it when a pair closes both ways. The
  // per-fault budget bounds the probe sweep like every other procedure.
  WorkBudget budget(Deadline::after_ms(options_.per_fault_time_ms),
                    options_.per_fault_work_limit);
  const CollectionResult collected =
      collector_.collect(good, faulty, fv, nout, &budget);
  result.detected = collected.detected_by_check;
  result.budget_stopped = budget.exhausted();
  return result;
}

}  // namespace motsim
