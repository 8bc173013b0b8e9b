#include "experiments/report.hpp"

#include "util/strings.hpp"
#include "util/table.hpp"

namespace motsim::experiments {

std::string render_table2(const std::vector<RunResult>& rows) {
  Table t({"circuit", "total faults", "conv.", "[4] tot", "[4] extra",
           "proposed tot", "proposed extra"});
  for (const RunResult& r : rows) {
    t.new_row().add(r.circuit).add(r.total_faults).add(r.conv_detected);
    if (r.baseline_available) {
      t.add(r.baseline_total()).add(r.baseline_extra);
    } else {
      t.add("NA").add("NA");
    }
    t.add(r.proposed_total()).add(r.proposed_extra);
  }
  return t.render();
}

std::string render_table3(const std::vector<RunResult>& rows) {
  Table t({"circuit", "detect", "conf", "extra"});
  for (const RunResult& r : rows) {
    t.new_row().add(r.circuit).add(r.avg_det).add(r.avg_conf).add(r.avg_extra);
  }
  return t.render();
}

std::string render_diagnostics(const std::vector<RunResult>& rows) {
  Table t({"circuit", "cand. (C)", "processed", "threads", "workers",
           "capped", "pair-capped", "baseline-only", "prop-det/[4]-abort",
           "budget-stop", "quarantined", "degraded", "incomplete", "resumed",
           "w-deaths", "w-poisoned", "w-lost", "seconds"});
  for (const RunResult& r : rows) {
    t.new_row()
        .add(r.circuit)
        .add(r.candidates)
        .add(r.processed)
        .add(r.threads)
        .add(r.workers)
        // The cap value rides along when it bound: a truncated candidate
        // list is never a bare "yes" the reader must chase into configs.
        .add(r.capped ? str_format("yes(%zu)", r.mot_cap) : "no")
        .add(r.collection_capped_faults)
        .add(r.baseline_available ? str_format("%zu", r.baseline_only) : "NA")
        .add(r.baseline_available
                 ? str_format("%zu", r.proposed_detected_baseline_aborted)
                 : "NA")
        .add(r.budget_stopped_faults)
        .add(r.quarantined_faults)
        .add(r.degraded_faults)
        .add(r.incomplete_faults)
        .add(r.resumed_faults)
        .add(r.worker_deaths)
        .add(r.worker_poisoned_faults)
        .add(r.worker_lost_faults)
        .add(r.seconds, 2);
  }
  return t.render();
}

std::string render_prepass_work(const std::vector<RunResult>& rows) {
  Table t({"circuit", "group-frames", "gates evaluated", "state entries",
           "latch entries"});
  for (const RunResult& r : rows) {
    const PrepassStats& s = r.prepass_stats;
    t.new_row()
        .add(r.circuit)
        .add(s.group_frames)
        .add(s.gates_evaluated)
        .add(s.state_entries)
        .add(s.latch_entries);
  }
  return t.render();
}

std::string render_mot_work(const std::vector<RunResult>& rows) {
  Table t({"circuit", "windows", "runs", "extra made", "extra copied",
           "phase-1 reads", "select reads", "split reads", "plain enum.",
           "plain stored", "fallback exp."});
  for (const RunResult& r : rows) {
    const MotStats& s = r.mot_stats;
    t.new_row()
        .add(r.circuit)
        .add(s.packed_windows)
        .add(s.packed_runs)
        .add(s.extras_produced)
        .add(s.extras_copied)
        .add(s.phase1_reads)
        .add(s.select_reads)
        .add(s.split_reads)
        .add(s.plain_enumerated)
        .add(s.plain_materialised)
        .add(s.fallback_expansions);
  }
  return t.render();
}

}  // namespace motsim::experiments
