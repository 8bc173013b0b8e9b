// Incremental parallel-fault simulation session.
//
// Holds the running state of the fault-free machine and of every faulty
// machine (packed 63 per PVal group) so that test patterns can be applied
// segment by segment. Cloning a session forks all machine states, which is
// what simulation-guided test generation needs: propose a candidate segment
// on a fork, keep the winner, never resimulate the prefix. Its one user is
// the HITEC-like generator (testgen/hitec_like.hpp), whose committed s5378
// sequence CI regenerates byte for byte.
//
// Each frame advances the fault-free machine once and then every group
// through the same sparse group step as ParallelFaultSimulator
// (GroupScratch), with the fault-free frame as the reference: a group's
// state lists only the flip-flops where it differs from the fault-free
// machine, and only the gates where it differs are evaluated. A clone copies
// those short lists, not a packed value per flip-flop and group.
//
// Each group keeps the mask of its detected slots. A detected fault is
// dropped: the group loads only its live slots and its state takes the
// fault-free value in the detected lanes, so those lanes cost nothing in
// later frames, and a group whose every slot is detected is skipped.
//
// apply() is semantically equivalent to running ParallelFaultSimulator over
// the concatenation of every segment applied so far (asserted by tests).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "faultsim/parallel.hpp"
#include "logic/pval.hpp"
#include "sim/seq_sim.hpp"
#include "sim/test_sequence.hpp"

namespace motsim {

class ParallelFaultSession {
 public:
  /// The session keeps references to `circuit` and `faults`; both must
  /// outlive it (clones included).
  ParallelFaultSession(const Circuit& circuit, const std::vector<Fault>& faults);

  ParallelFaultSession(const ParallelFaultSession&) = default;
  ParallelFaultSession& operator=(const ParallelFaultSession&) = default;

  /// Simulates `segment` from the current state of every machine.
  void apply(const TestSequence& segment);

  /// Faults conventionally detected by everything applied so far.
  std::size_t detected_count() const { return detected_count_; }
  bool is_detected(std::size_t fault_index) const {
    const Group& g = groups_[fault_index / GroupScratch::kSlots];
    return (g.detected >> (fault_index % GroupScratch::kSlots)) & 1;
  }

  /// Total number of patterns applied.
  std::size_t length() const { return length_; }

 private:
  /// Faults [i * 63, i * 63 + count) of the list, for group i.
  struct Group {
    std::size_t count = 0;
    std::uint64_t detected = 0;  ///< slot s: fault i * 63 + s is detected
    GroupState state;
  };

  const Circuit* circuit_;
  const std::vector<Fault>* faults_;
  std::vector<Group> groups_;
  std::vector<Val> good_state_;    // fault-free machine state
  std::size_t detected_count_ = 0;
  std::size_t length_ = 0;
  // Scratch (excluded from the logical state).
  GroupScratch scratch_;
  std::vector<Val> good_vals_;
};

}  // namespace motsim
