#include "faultsim/session.hpp"

#include <algorithm>
#include <cassert>

#include "fault/fault_view.hpp"

namespace motsim {

namespace {
constexpr std::size_t kGroup = 63;
}  // namespace

ParallelFaultSession::ParallelFaultSession(const Circuit& circuit,
                                           const std::vector<Fault>& faults)
    : circuit_(&circuit), faults_(&faults), scratch_(circuit) {
  detected_.assign(faults.size(), 0);
  good_state_.assign(circuit.num_dffs(), Val::X);
  for (std::size_t base = 0; base < faults.size(); base += kGroup) {
    Group g;
    g.first = base;
    g.count = std::min(kGroup, faults.size() - base);
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
    // Advance every faulty machine against that frame.
    for (Group& g : groups_) {
      scratch_.load(faults_->data() + g.first, g.count);
      const std::uint64_t newly =
          scratch_.step(good_vals_.data(), x_states, g.state).detected;
      for (std::size_t s = 0; s < g.count; ++s) {
        if (((newly >> s) & 1) && !detected_[g.first + s]) {
          detected_[g.first + s] = 1;
          ++detected_count_;
        }
      }
    }
    ++length_;
  }
}

}  // namespace motsim
