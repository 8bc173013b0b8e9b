// Renders experiment results in the layout of the paper's tables.
#pragma once

#include <string>
#include <vector>

#include "experiments/experiments.hpp"

namespace motsim::experiments {

/// Table 2 layout: circuit | total faults | conv. | [4] tot/extra |
/// proposed tot/extra (NA for the baseline where it was not run).
std::string render_table2(const std::vector<RunResult>& rows);

/// Table 3 layout: circuit | detect | conf | extra (averages over faults
/// detected by the proposed method).
std::string render_table3(const std::vector<RunResult>& rows);

/// Run diagnostics that have no counterpart in the paper but keep the
/// reproduction honest: candidate counts, caps, baseline-only detections,
/// wall-clock.
std::string render_diagnostics(const std::vector<RunResult>& rows);

/// The conventional pre-pass's work counts per circuit (RunResult::
/// prepass_stats): group-frames, gates evaluated, state entries visited and
/// latch entries written. Deterministic: equal for every thread count.
std::string render_prepass_work(const std::vector<RunResult>& rows);

/// The MOT stage's work counts per circuit (RunResult::mot_stats): packed
/// collection windows and runs, extra() elements produced, copied and read
/// by phase 1, pair selection and splits, plain pairs enumerated and
/// materialised, fallback expansions. Deterministic: equal for every thread
/// count.
std::string render_mot_work(const std::vector<RunResult>& rows);

}  // namespace motsim::experiments
