#include "faultsim/batch.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <numeric>

#include "faultsim/checkpoint.hpp"
#include "faultsim/conventional.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace motsim {

const char* to_string(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::None: return "none";
    case DegradeLevel::PlainExpansion: return "plain_expansion";
    case DegradeLevel::Conventional: return "conventional";
  }
  return "?";
}

std::uint64_t per_fault_selection_seed(std::uint64_t base,
                                       std::uint64_t fault_index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (fault_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

MotBatchRunner::MotBatchRunner(const Circuit& c, MotOptions options,
                               bool run_baseline)
    : circuit_(&c),
      options_(options),
      run_baseline_(run_baseline),
      threads_(resolve_thread_count(options.num_threads)) {}

namespace {

/// Everything one worker lane owns: simulators with private scratch.
struct Lane {
  ConventionalFaultSimulator conv;
  MotFaultSimulator proposed;
  std::unique_ptr<ExpansionBaseline> baseline;
  /// Lazily built when the degradation ladder first needs it on this lane
  /// (quarantined or budget-stopped fault with no baseline configured).
  std::unique_ptr<ExpansionBaseline> fallback;

  Lane(const Circuit& c, const MotOptions& opt, bool run_baseline)
      : conv(c, opt.kernel), proposed(c, opt) {
    if (run_baseline) baseline = std::make_unique<ExpansionBaseline>(c, opt);
  }
};

std::string exception_diagnostic(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return sanitize_token(e.what());
  } catch (...) {
    return sanitize_token("non-standard exception");
  }
}

}  // namespace

std::vector<MotBatchItem> MotBatchRunner::run(
    const TestSequence& test, const SeqTrace& good,
    const std::vector<Fault>& faults, std::span<const std::size_t> indices,
    CampaignJournal* journal, const CancelToken* cancel,
    MotStats* stats) const {
  std::vector<MotBatchItem> items(indices.size());
  if (indices.empty()) return items;
  const std::size_t threads = std::min(threads_, indices.size());

  // Campaign-wide controls, shared by every lane. The deadline is armed
  // here, so campaign_time_ms bounds this call, not the runner's lifetime.
  // `stop` latches once any lane notices the deadline or the external token:
  // later lanes then skim their remaining faults as incomplete instead of
  // simulating them.
  const Deadline campaign = Deadline::after_ms(options_.campaign_time_ms);
  CancelToken stop;
  auto stop_requested = [&] {
    if (stop.cancelled()) return true;
    if ((cancel != nullptr && cancel->cancelled()) || campaign.expired() ||
        (journal != nullptr && journal->failed())) {
      stop.cancel();
      return true;
    }
    return false;
  };

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    lanes.push_back(std::make_unique<Lane>(*circuit_, options_, run_baseline_));
    lanes.back()->proposed.set_campaign(&campaign, &stop);
    if (lanes.back()->baseline) {
      lanes.back()->baseline->set_campaign(&campaign, &stop);
    }
  }

  // Bottom rung of the degradation ladder: classify from conventional
  // simulation alone. Reached only when the MOT engines failed on the fault,
  // so this re-runs the conventional analysis defensively under its own
  // catch-all (if even that fails, the item stays a bare quarantine record).
  auto classify_conventional = [&](Lane& lane, const Fault& f,
                                   MotBatchItem& item) {
    item.degrade = DegradeLevel::Conventional;
    try {
      const ConvOutcome o = lane.conv.analyze(test, good, f);
      item.mot.detected_conventional = o.detected;
      item.mot.passes_c = o.passes_c;
      if (o.detected) {
        item.mot.detected = true;
        item.mot.phase = MotPhase::Conventional;
        item.mot.unresolved = UnresolvedReason::None;
      }
    } catch (...) {
      // Keep the quarantine record as-is.
    }
  };

  // Middle rung: one plain [4]-style expansion run under a fresh per-fault
  // budget. Sound by construction — a detection is the cheaper engine's own
  // proof; anything else leaves the fault unresolved with `keep_reason`.
  auto degrade_to_plain = [&](Lane& lane, std::size_t k, const Fault& f,
                              SeqTrace* faulty, MotBatchItem& item,
                              UnresolvedReason keep_reason) {
    if (!lane.fallback) {
      lane.fallback = std::make_unique<ExpansionBaseline>(*circuit_, options_);
      lane.fallback->set_campaign(&campaign, &stop);
    }
    try {
      lane.fallback->reseed_selection(
          per_fault_selection_seed(options_.selection_seed ^ 0xdeadfa11u, k));
      const BaselineResult b =
          faulty != nullptr
              ? lane.fallback->simulate_fault(test, good, f, *faulty)
              : lane.fallback->simulate_fault(test, good, f);
      item.degrade = DegradeLevel::PlainExpansion;
      item.mot.detected_conventional = b.detected_conventional;
      item.mot.passes_c = b.passes_c;
      item.mot.expansions = b.expansions;
      item.mot.final_sequences = b.final_sequences;
      if (b.detected) {
        item.mot.detected = true;
        item.mot.phase = b.detected_conventional ? MotPhase::Conventional
                                                 : MotPhase::Expansion;
        item.mot.unresolved = UnresolvedReason::None;
      } else {
        item.mot.detected = false;
        item.mot.unresolved = keep_reason;
      }
      return true;
    } catch (...) {
      return false;
    }
  };

  auto simulate_one = [&](Lane& lane, std::size_t i, std::size_t k) {
    const Fault& f = faults[k];
    MotBatchItem& item = items[i];

    // Worker isolation: an exception anywhere in the per-fault work
    // quarantines this fault, never the shard. The conventional trace is
    // attempted first so the lower ladder rungs can reuse it.
    std::string diag;
    SeqTrace faulty;
    bool have_faulty = false;
    try {
      if (fault_hook_) fault_hook_(k);
      // When the caller's fault-free trace carries line values, the SoA
      // kernel replays it and re-evaluates only the fault's cone per frame.
      faulty = lane.conv.simulate_fault(test, f, /*keep_lines=*/true, &good);
      have_faulty = true;
      lane.proposed.reseed_selection(
          per_fault_selection_seed(options_.selection_seed, k));
      item.mot = lane.proposed.simulate_fault(test, good, f, faulty);
    } catch (...) {
      diag = exception_diagnostic(std::current_exception());
      item.mot = MotResult{};
      item.mot.unresolved = UnresolvedReason::EngineError;
    }

    if (lane.baseline) {
      if (have_faulty) {
        try {
          lane.baseline->reseed_selection(
              per_fault_selection_seed(~options_.selection_seed, k));
          item.baseline = lane.baseline->simulate_fault(test, good, f, faulty);
        } catch (...) {
          if (diag.empty()) {
            diag = exception_diagnostic(std::current_exception());
          }
          item.baseline = BaselineResult{};
          item.baseline.aborted = true;
          item.baseline.unresolved = UnresolvedReason::EngineError;
        }
      } else {
        item.baseline = BaselineResult{};
        item.baseline.aborted = true;
        item.baseline.unresolved = UnresolvedReason::EngineError;
      }
    }

    // Graceful degradation: engine errors always walk the ladder; faults
    // stopped by their own budget do so when the options opt in. Campaign
    // stops (Cancelled) are excluded — those faults are incomplete, not
    // degraded, and re-run on resume.
    const bool engine_error =
        item.mot.unresolved == UnresolvedReason::EngineError;
    const bool budget_stopped =
        item.mot.unresolved == UnresolvedReason::Deadline ||
        item.mot.unresolved == UnresolvedReason::WorkLimit;
    if (engine_error) {
      item.error = diag.empty() ? sanitize_token("engine error") : diag;
      if (!degrade_to_plain(lane, k, f, have_faulty ? &faulty : nullptr, item,
                            UnresolvedReason::EngineError)) {
        classify_conventional(lane, f, item);
      }
    } else if (budget_stopped && options_.degrade_on_budget) {
      const UnresolvedReason keep = item.mot.unresolved;
      const MotResult full = item.mot;
      if (!degrade_to_plain(lane, k, f, have_faulty ? &faulty : nullptr, item,
                            keep)) {
        item.mot = full;
      } else if (!item.mot.detected) {
        // The ladder decided nothing new: keep the richer original result
        // (counters, work_used) and just record that the rung was tried.
        const DegradeLevel tried = item.degrade;
        item.mot = full;
        item.degrade = tried;
      }
    }
  };

  auto simulate_range = [&](std::size_t begin, std::size_t end,
                            std::size_t lane_id) {
    Lane& lane = *lanes[lane_id];
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t k = indices[i];
      MotBatchItem& item = items[i];
      item.fault_index = k;
      // Resume: outcomes the journal already holds are merged, not re-run.
      if (journal != nullptr) {
        if (const MotBatchItem* done = journal->lookup(k)) {
          item = *done;
          continue;
        }
      }
      if (stop_requested()) {
        item.completed = false;
        item.mot.unresolved = UnresolvedReason::Cancelled;
        if (run_baseline_) item.baseline.unresolved = UnresolvedReason::Cancelled;
        continue;
      }
      simulate_one(lane, i, k);
      // A fault whose own budget was still open but that stopped on the
      // campaign controls is incomplete — resume must re-run it.
      if (item.mot.unresolved == UnresolvedReason::Cancelled) {
        item.completed = false;
        stop.cancel();
        continue;
      }
      if (journal != nullptr && !journal->append(item) && journal->failed()) {
        // Permanent journal loss (disk full and retries exhausted): stop the
        // campaign as a flushed, resumable cancellation rather than running
        // on for hours with nothing checkpointed. This fault's in-memory
        // result stays valid; resume re-runs it deterministically.
        stop.cancel();
      }
    }
  };

  if (threads <= 1) {
    simulate_range(0, indices.size(), 0);
  } else {
    ThreadPool pool(threads);
    pool.parallel_for_dynamic(indices.size(), /*grain=*/1, simulate_range);
  }
  if (stats != nullptr) {
    for (const auto& lane : lanes) {
      *stats += lane->proposed.take_stats();
      if (lane->baseline) *stats += lane->baseline->take_stats();
      if (lane->fallback) *stats += lane->fallback->take_stats();
    }
  }
  return items;
}

std::vector<MotBatchItem> MotBatchRunner::run_all(
    const TestSequence& test, const SeqTrace& good,
    const std::vector<Fault>& faults) const {
  std::vector<std::size_t> indices(faults.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return run(test, good, faults, indices);
}

}  // namespace motsim
