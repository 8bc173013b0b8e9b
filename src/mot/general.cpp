#include "mot/general.hpp"

#include "mot/oracle.hpp"

namespace motsim {

namespace {

/// Output sequence implied by a (partially specified) state sequence.
std::vector<std::vector<Val>> outputs_of(const Circuit& c,
                                         const TestSequence& test,
                                         const FaultView& fv,
                                         const StateSet& set, std::size_t s) {
  const SequentialSimulator sim(c);
  std::vector<std::vector<Val>> out(test.length(),
                                    std::vector<Val>(c.num_outputs(), Val::X));
  FrameVals frame(c.num_gates(), Val::X);
  for (std::size_t u = 0; u < test.length(); ++u) {
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      frame[c.inputs()[k]] = fv.input_value(k, test.at(u, k));
    }
    for (std::size_t j = 0; j < c.num_dffs(); ++j) {
      frame[c.dffs()[j]] = set.state(s, u, j);
    }
    sim.eval_frame(frame, fv);
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      out[u][o] = frame[c.outputs()[o]];
    }
  }
  return out;
}

bool output_seqs_conflict(const std::vector<std::vector<Val>>& a,
                          const std::vector<std::vector<Val>>& b) {
  for (std::size_t u = 0; u < a.size(); ++u) {
    for (std::size_t o = 0; o < a[u].size(); ++o) {
      if (conflicts(a[u][o], b[u][o])) return true;
    }
  }
  return false;
}

}  // namespace

GeneralMotSimulator::GeneralMotSimulator(const Circuit& c, GeneralMotOptions options)
    : circuit_(&c),
      options_(options),
      restricted_(c, options.mot),
      conv_(c, options.mot.kernel) {}

void GeneralMotSimulator::set_campaign(const Deadline* campaign,
                                       const CancelToken* cancel) {
  campaign_ = campaign;
  cancel_ = cancel;
  restricted_.set_campaign(campaign, cancel);
}

GeneralMotResult GeneralMotSimulator::simulate_fault(const TestSequence& test,
                                                     const SeqTrace& good,
                                                     const Fault& f) {
  const Circuit& c = *circuit_;
  GeneralMotResult result;

  SeqTrace faulty = conv_.simulate_fault(test, f, /*keep_lines=*/true, &good);
  const MotResult restricted = restricted_.simulate_fault(test, good, f, faulty);
  result.detected_conventional = restricted.detected_conventional;
  result.detected_restricted = restricted.detected;
  if (restricted.detected) {
    // Restricted detection compares against values every concrete
    // fault-free response must carry — it implies general detection.
    result.detected = true;
    return result;
  }

  // The general pass runs under its own per-fault budget (the restricted
  // pass above already consumed one full budget of its own); the campaign
  // controls are shared.
  WorkBudget budget(Deadline::after_ms(options_.mot.per_fault_time_ms),
                    options_.mot.per_fault_work_limit, campaign_, cancel_);
  const auto unresolved_verdict = [&]() {
    switch (budget.stop()) {
      case BudgetStop::Deadline: result.unresolved = UnresolvedReason::Deadline; break;
      case BudgetStop::WorkLimit: result.unresolved = UnresolvedReason::WorkLimit; break;
      case BudgetStop::Cancelled: result.unresolved = UnresolvedReason::Cancelled; break;
      case BudgetStop::None: break;
    }
    result.detected = false;
    return result;
  };

  // Expand the fault-free machine into a (small) set of responses...
  const FaultView fault_free(c);
  const SequentialSimulator sim(c);
  SeqTrace good_lines = sim.run_fault_free(test, /*keep_lines=*/true);
  StateSet good_set(c, test, good, fault_free, good_lines, options_.mot.kernel);
  good_set.plain_expand(options_.good_n_states, budget);
  if (budget.exhausted()) return unresolved_verdict();

  // ...and the faulty machine into its set of undistinguished responses.
  const FaultView fv(c, f);
  StateSet faulty_set(c, test, good, fv, faulty, options_.mot.kernel);
  faulty_set.plain_expand(options_.mot.n_states, budget);
  if (budget.exhausted()) return unresolved_verdict();

  std::vector<std::vector<std::vector<Val>>> good_outputs;
  for (std::size_t g = 0; g < good_set.size(); ++g) {
    if (good_set.status(g) == SeqStatus::Infeasible) continue;
    good_outputs.push_back(outputs_of(c, test, fault_free, good_set, g));
  }
  result.good_sequences = good_outputs.size();

  // Every surviving faulty sequence must conflict with every feasible
  // fault-free sequence.
  bool all_distinguished = true;
  for (std::size_t s = 0; s < faulty_set.size(); ++s) {
    if (faulty_set.status(s) != SeqStatus::Active) continue;
    // Deriving one output sequence evaluates test.length() frames.
    if (budget.poll(test.length())) return unresolved_verdict();
    ++result.faulty_sequences;
    const auto fo = outputs_of(c, test, fv, faulty_set, s);
    for (const auto& go : good_outputs) {
      if (!output_seqs_conflict(fo, go)) {
        all_distinguished = false;
        break;
      }
    }
    if (!all_distinguished) break;
  }
  result.detected = all_distinguished;
  return result;
}

OracleVerdict general_mot_oracle(const Circuit& c, const TestSequence& test,
                                 const Fault& f, std::size_t max_ffs) {
  OracleVerdict verdict;
  const std::size_t k = c.num_dffs();
  if (k > max_ffs || k >= 32) return verdict;
  verdict.computable = true;

  const SequentialSimulator sim(c);
  std::vector<Val> init(k, Val::X);
  auto outputs_from = [&](const FaultView& fv, std::uint64_t bits) {
    for (std::size_t j = 0; j < k; ++j) {
      init[j] = ((bits >> j) & 1) ? Val::One : Val::Zero;
    }
    return sim.run(test, fv, false, init).outputs;
  };

  const FaultView fault_free(c);
  std::vector<std::vector<std::vector<Val>>> good_responses;
  good_responses.reserve(1u << k);
  for (std::uint64_t bits = 0; bits < (1ull << k); ++bits) {
    good_responses.push_back(outputs_from(fault_free, bits));
  }
  const FaultView fv(c, f);
  for (std::uint64_t bits = 0; bits < (1ull << k); ++bits) {
    const auto faulty_response = outputs_from(fv, bits);
    for (const auto& good_response : good_responses) {
      bool conflict = false;
      for (std::size_t u = 0; u < test.length() && !conflict; ++u) {
        for (std::size_t o = 0; o < c.num_outputs(); ++o) {
          if (conflicts(good_response[u][o], faulty_response[u][o])) {
            conflict = true;
            break;
          }
        }
      }
      if (!conflict) return verdict;  // indistinguishable pair: not detected
    }
  }
  verdict.detected = true;
  return verdict;
}

}  // namespace motsim
