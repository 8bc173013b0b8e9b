#include "faultsim/session.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fault/fault_view.hpp"

namespace motsim {

ParallelFaultSession::ParallelFaultSession(const Circuit& circuit,
                                           const std::vector<Fault>& faults)
    : circuit_(&circuit), faults_(&faults), scratch_(circuit) {
  good_state_.assign(circuit.num_dffs(), Val::X);
  for (std::size_t base = 0; base < faults.size();
       base += GroupScratch::kSlots) {
    Group g;
    g.count = std::min(GroupScratch::kSlots, faults.size() - base);
    scratch_.load(faults.data() + base, g.count);
    scratch_.initial_state(good_state_.data(), g.state);
    groups_.push_back(std::move(g));
  }
}

void ParallelFaultSession::apply(const TestSequence& segment) {
  const Circuit& c = *circuit_;
  assert(segment.num_inputs() == c.num_inputs());
  const SequentialSimulator sim(c);
  const FaultView fault_free(c);

  good_vals_.assign(c.num_gates(), Val::X);
  for (std::size_t u = 0; u < segment.length(); ++u) {
    // Advance the fault-free machine one frame.
    for (std::size_t k = 0; k < c.num_inputs(); ++k) {
      good_vals_[c.inputs()[k]] = segment.at(u, k);
    }
    std::size_t x_states = 0;
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      good_vals_[c.dffs()[k]] = good_state_[k];
      x_states += good_state_[k] == Val::X;
    }
    sim.eval_frame(good_vals_, fault_free);
    for (std::size_t k = 0; k < c.num_dffs(); ++k) {
      good_state_[k] = good_vals_[c.dff_input(k)];
    }
    // Advance every group with an undetected fault against that frame; a
    // detected slot is dropped (not loaded, and healed to the fault-free
    // state), so a fully detected group holds the fault-free machine.
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      Group& g = groups_[i];
      const std::uint64_t all = (1ull << g.count) - 1;
      if (g.detected == all) continue;
      scratch_.load(faults_->data() + i * GroupScratch::kSlots, g.count,
                    ~g.detected);
      const std::uint64_t newly =
          scratch_.step(good_vals_.data(), x_states, g.state).detected &
          all & ~g.detected;
      if (newly == 0) continue;
      g.detected |= newly;
      detected_count_ += std::popcount(newly);
      scratch_.heal(newly, good_vals_.data(), g.state);
    }
    ++length_;
  }
}

}  // namespace motsim
