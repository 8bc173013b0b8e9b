// Runs the Table 2 / Table 3 experiment pipeline on a chosen subset of the
// benchmark suite and prints the tables plus diagnostics and the conventional
// pre-pass's work counts (deterministic: equal for every thread count).
//
// Usage:
//   benchmark_sweep                       # the small circuits (fast)
//   benchmark_sweep --circuits s298,s344  # explicit subset
//   benchmark_sweep --all                 # full suite incl. heavy circuits
//   benchmark_sweep --nstates 32 --seed 3
//   benchmark_sweep --threads 4           # MOT worker threads (0 = all cores)
//
// Long campaigns (see README "Long campaigns"):
//   --per-fault-ms N    per-fault wall-clock budget (0 = unlimited)
//   --per-fault-work N  per-fault work-unit budget, deterministic (0 = unlimited)
//   --campaign-ms N     whole-campaign wall-clock budget (0 = unlimited)
//   --journal PATH      append outcomes to a crash-safe journal (one circuit only)
//   --resume PATH       resume from PATH, skipping already-resolved faults
//   --degrade-on-budget retry budget-stopped faults on the cheaper engines
//                       (graceful-degradation ladder; see README)
//
// Distributed campaigns (see README "Distributed campaigns"):
//   --workers N              fork N supervised worker processes for the MOT
//                            batch (0 = in-process threads; the default)
//   --worker-heartbeat-ms N  kill+restart a worker silent for N ms (0 = off)
//   --shard-deadline-ms N    kill+restart a worker stuck on one fault-group
//                            shard for N ms (0 = off)
//   --max-fault-attempts N   quarantine a fault after it kills N workers
//   --max-worker-restarts N  total replacement workers the campaign may spawn
//
// Multi-host campaigns (see README "Multi-host campaigns", DESIGN.md §14):
//   --listen HOST:PORT       run as coordinator: no workers are forked;
//                            instead --workers N remote workers (connected
//                            via --connect from any host) fill the slots.
//                            Port 0 picks an ephemeral port.
//   --listen-port-file PATH  write the actually bound port to PATH (for
//                            scripts that use --listen HOST:0)
//   --remote-join-ms N       fleet-loss window while waiting for the first
//                            worker to connect (default 30000)
//   --remote-rejoin-ms N     fleet-loss window for reconnects after the
//                            last worker disconnects (default 10000)
//   --connect HOST:PORT      run as a remote worker for the coordinator at
//                            HOST:PORT (requires --circuits with exactly
//                            one circuit and the same experiment flags as
//                            the coordinator — the handshake enforces it)
//   --connect-attempts N     consecutive failed connects before the worker
//                            gives up (default 10)
//
// Signals: the first SIGINT/SIGTERM requests a clean stop — in-flight faults
// finish, the journal is flushed, and the exit is resumable. A second signal
// hard-exits immediately (exit code 128+signal).
//
// Exit codes (asserted exhaustively by tests/cli_exit_codes_test.sh):
//   0  sweep completed; every processed fault has a definitive outcome
//   1  usage error (malformed or unknown flags, unknown circuit names,
//      invalid flag combinations)
//   2  a campaign budget stopped the run early (incomplete faults remain;
//      rerun with --resume to finish them)
//   3  cancelled by SIGINT/SIGTERM; journal flushed, resumable
//   4  journal failure — setup failed at startup (nothing was run) or an
//      append failed permanently mid-run (e.g. disk full); everything
//      appended before a mid-run failure is durable and resumable
//   5  worker-death partial completion: every worker process died (or, with
//      --listen, the remote fleet was lost), the restart budget is spent,
//      and faults remain without outcomes (rerun, or --resume a journaled
//      campaign, to finish them)
//
// 4 beats 3 beats 5 beats 2 when several conditions hold at once: losing
// durable storage outranks a user stop, which outranks losing the worker
// fleet, which outranks an ordinary budget stop. The ladder is identical
// with --listen: remote mode adds no new coordinator exit codes.
//
// Worker-mode (--connect) exit codes:
//   0  clean shutdown (coordinator sent Shutdown after the campaign)
//   1  usage error
//   3  cancelled by SIGINT/SIGTERM
//   6  remote transport failure: the coordinator rejected this worker
//      (wrong campaign / restart budget spent) or vanished for longer than
//      the reconnect budget
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "experiments/experiments.hpp"
#include "experiments/report.hpp"
#include "util/cli.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace {

// Signal handling: everything the handler touches is async-signal-safe
// (atomics, ::write, ::_exit). The CancelToken is polled by the MOT batch
// workers at their budget-poll stride, so the stop is prompt but clean.
motsim::CancelToken g_cancel;
std::atomic<int> g_signal_count{0};

void on_signal(int sig) {
  const int count = g_signal_count.fetch_add(1, std::memory_order_relaxed);
  if (count == 0) {
    g_cancel.cancel();
    constexpr char msg[] =
        "\nstopping cleanly (signal again to hard-exit) ...\n";
    [[maybe_unused]] const ssize_t n = ::write(2, msg, sizeof(msg) - 1);
  } else {
    ::_exit(128 + sig);
  }
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking syscalls promptly
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace motsim;
  using namespace motsim::experiments;

  const CliArgs args(argc, argv);
  const bool all = args.get_bool("all");
  const std::string circuits_flag = args.get("circuits", "");
  RunConfig config;
  // Thread and worker counts beyond this are typos, not machines: they are
  // rejected before any thread or process starts.
  constexpr std::uint64_t kMaxLanes = 1024;
  config.mot.n_states = args.get_count("nstates", 64);
  config.test_seed = args.get_count("seed", 7);
  // 0 = every hardware thread; 1 = the serial path. Results are identical
  // for every value (see README "Parallel execution").
  config.mot.num_threads = args.get_count("threads", 0, kMaxLanes);
  config.mot.per_fault_time_ms = args.get_count("per-fault-ms", 0);
  config.mot.per_fault_work_limit = args.get_count("per-fault-work", 0);
  config.mot.campaign_time_ms = args.get_count("campaign-ms", 0);
  config.mot.degrade_on_budget = args.get_bool("degrade-on-budget");
  config.supervisor.workers = args.get_count("workers", 0, kMaxLanes);
  config.supervisor.heartbeat_ms = args.get_count("worker-heartbeat-ms", 5000);
  config.supervisor.shard_deadline_ms = args.get_count("shard-deadline-ms", 0);
  config.supervisor.max_fault_attempts =
      args.get_count("max-fault-attempts", 3);
  config.supervisor.max_worker_restarts =
      args.get_count("max-worker-restarts", 8);
  // Chaos hooks: test-only fault injection into the worker fleet (see
  // tests/cli_exit_codes_test.sh and DESIGN.md §11). Not for production use.
  config.supervisor.chaos_kill_permille =
      args.get_count("chaos-kill-permille", 0);
  config.supervisor.chaos_kill_seed = args.get_count("chaos-kill-seed", 0);
  const std::int64_t chaos_abort = args.get_int("chaos-abort-fault", -1);
  if (chaos_abort >= 0) {
    config.supervisor.chaos_abort_fault = static_cast<std::size_t>(chaos_abort);
  }
  const std::string listen_flag = args.get("listen", "");
  const std::string listen_port_file = args.get("listen-port-file", "");
  const std::string connect_flag = args.get("connect", "");
  config.supervisor.remote_join_ms = args.get_count("remote-join-ms", 30000);
  config.supervisor.remote_rejoin_ms =
      args.get_count("remote-rejoin-ms", 10000);
  const std::uint64_t connect_attempts = args.get_count("connect-attempts", 10);
  const std::string journal_flag = args.get("journal", "");
  const std::string resume_flag = args.get("resume", "");
  if (!args.finish()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }
  if (!listen_flag.empty() && !connect_flag.empty()) {
    std::fprintf(stderr, "error: --listen and --connect are exclusive\n");
    return 1;
  }
  if (!journal_flag.empty() && !resume_flag.empty()) {
    std::fprintf(stderr, "error: --journal and --resume are exclusive\n");
    return 1;
  }
  config.journal_path = resume_flag.empty() ? journal_flag : resume_flag;
  config.resume = !resume_flag.empty();
  config.cancel = &g_cancel;

  std::vector<std::string> selection;
  if (!circuits_flag.empty()) {
    for (std::string_view name : split(circuits_flag, ',')) {
      selection.emplace_back(trim(name));
      if (!circuits::find_profile(selection.back())) {
        std::fprintf(stderr, "error: --circuits: unknown circuit '%s'\n",
                     selection.back().c_str());
        return 1;
      }
    }
  }

  std::vector<const circuits::BenchmarkProfile*> chosen;
  for (const auto& profile : circuits::benchmark_suite()) {
    const bool selected =
        !selection.empty()
            ? std::find(selection.begin(), selection.end(), profile.name) !=
                  selection.end()
            : (all || !profile.heavy);
    if (selected) chosen.push_back(&profile);
  }
  // A journal records one campaign: one circuit, one fault list. Running a
  // multi-circuit sweep into a single journal file would overwrite or
  // cross-validate against the wrong campaign.
  if (!config.journal_path.empty() && chosen.size() != 1) {
    std::fprintf(stderr,
                 "error: --journal/--resume need exactly one circuit "
                 "(use --circuits <name>); %zu selected\n",
                 chosen.size());
    return 1;
  }

  install_signal_handlers();

  // Remote worker mode: serve one circuit's campaign to a coordinator and
  // exit with the worker ladder (0 clean, 3 cancelled, 6 transport).
  if (!connect_flag.empty()) {
    std::string host;
    std::uint16_t port = 0;
    std::string perr;
    if (!netio::parse_hostport(connect_flag, host, port, perr)) {
      std::fprintf(stderr, "error: --connect %s: %s\n", connect_flag.c_str(),
                   perr.c_str());
      return 1;
    }
    if (chosen.size() != 1) {
      std::fprintf(stderr,
                   "error: --connect needs exactly one circuit "
                   "(use --circuits <name>); %zu selected\n",
                   chosen.size());
      return 1;
    }
    if (!config.journal_path.empty()) {
      std::fprintf(stderr,
                   "error: --journal/--resume belong to the coordinator, "
                   "not --connect workers\n");
      return 1;
    }
    RemoteWorkerOptions worker;
    worker.host = host;
    worker.port = port;
    worker.max_connect_attempts =
        std::max<std::uint64_t>(connect_attempts, 1);
    worker.chaos_kill_permille = config.supervisor.chaos_kill_permille;
    worker.chaos_kill_seed = config.supervisor.chaos_kill_seed;
    worker.chaos_abort_fault = config.supervisor.chaos_abort_fault;
    worker.chaos_die_hard = true;  // a CLI worker process is disposable
    std::printf("worker: connecting to %s for circuit %s ...\n",
                connect_flag.c_str(), chosen[0]->name.c_str());
    std::fflush(stdout);
    RemoteWorkerReport rep;
    const int rc = run_benchmark_remote_worker(*chosen[0], config, worker, &rep);
    if (g_cancel.cancelled()) return 3;
    if (rc != 0) {
      std::fprintf(stderr, "worker error: %s\n", rep.error.c_str());
      return rc;
    }
    std::printf(
        "worker: %zu fault(s) simulated over %zu connection(s), "
        "clean shutdown\n",
        rep.faults_simulated, rep.connections);
    return 0;
  }

  // Coordinator of a multi-host campaign: bind the listener up front so a
  // bad address fails before any simulation, and publish the bound port for
  // scripts that asked for an ephemeral one.
  int listen_fd = -1;
  if (!listen_flag.empty()) {
    std::string host;
    std::uint16_t port = 0;
    std::string perr;
    if (!netio::parse_hostport(listen_flag, host, port, perr)) {
      std::fprintf(stderr, "error: --listen %s: %s\n", listen_flag.c_str(),
                   perr.c_str());
      return 1;
    }
    if (config.supervisor.workers == 0) config.supervisor.workers = 1;
    std::string lerr;
    listen_fd = netio::tcp_listen(host, port, lerr);
    if (listen_fd < 0) {
      std::fprintf(stderr, "error: --listen %s: %s\n", listen_flag.c_str(),
                   lerr.c_str());
      return 1;
    }
    config.supervisor.listen_fd = listen_fd;
    const std::uint16_t bound = netio::local_port(listen_fd);
    std::printf("coordinator: listening on %s:%u for %zu worker slot(s)\n",
                host.c_str(), static_cast<unsigned>(bound),
                config.supervisor.workers);
    std::fflush(stdout);
    if (!listen_port_file.empty()) {
      FILE* pf = std::fopen(listen_port_file.c_str(), "w");
      if (pf == nullptr) {
        std::fprintf(stderr, "error: cannot write --listen-port-file %s\n",
                     listen_port_file.c_str());
        ::close(listen_fd);
        return 1;
      }
      std::fprintf(pf, "%u\n", static_cast<unsigned>(bound));
      std::fclose(pf);
    }
  }

  bool journal_io_failed = false;
  std::size_t total_incomplete = 0;
  std::size_t total_worker_lost = 0;
  std::vector<RunResult> rows;
  for (const auto* profile : chosen) {
    if (g_cancel.cancelled()) break;
    std::printf("running %-8s ...\n", profile->name.c_str());
    std::fflush(stdout);
    RunResult r = run_benchmark(*profile, config);
    if (!r.journal_error.empty()) {
      std::fprintf(stderr, "error: %s\n", r.journal_error.c_str());
      return 4;
    }
    if (!r.journal_io_error.empty()) {
      std::fprintf(stderr, "error: %s\n", r.journal_io_error.c_str());
      journal_io_failed = true;
    }
    if (config.resume) {
      std::printf("  resumed %zu fault(s) from %s\n", r.resumed_faults,
                  config.journal_path.c_str());
    }
    if (r.quarantined_faults > 0) {
      std::printf("  %zu fault(s) quarantined after engine errors "
                  "(see diagnostics)\n",
                  r.quarantined_faults);
    }
    if (r.worker_deaths > 0) {
      std::printf("  %zu worker death(s): %zu restart(s), %zu fault(s) "
                  "requeued, %zu poisoned, %zu recovered from shards\n",
                  r.worker_deaths, r.worker_restarts,
                  r.worker_requeued_faults, r.worker_poisoned_faults,
                  r.worker_harvested_records);
    }
    if (r.worker_lost_faults > 0) {
      std::printf("  worker fleet lost: %zu fault(s) without a result%s\n",
                  r.worker_lost_faults,
                  config.journal_path.empty()
                      ? ""
                      : " (rerun with --resume to finish them)");
      total_worker_lost += r.worker_lost_faults;
    }
    if (r.incomplete_faults > 0) {
      std::printf("  campaign stopped early: %zu fault(s) without a result%s\n",
                  r.incomplete_faults,
                  config.journal_path.empty()
                      ? ""
                      : " (rerun with --resume to finish them)");
      total_incomplete += r.incomplete_faults;
    }
    rows.push_back(std::move(r));
  }
  if (listen_fd >= 0) ::close(listen_fd);

  std::printf("\nTable 2 — detected faults (random patterns, N_STATES=%zu):\n%s\n",
              config.mot.n_states, render_table2(rows).c_str());
  std::printf("Table 3 — effectiveness of backward implications:\n%s\n",
              render_table3(rows).c_str());
  std::printf("Diagnostics:\n%s", render_diagnostics(rows).c_str());
  std::printf("\nPre-pass work:\n%s", render_prepass_work(rows).c_str());
  std::printf("\nMOT work:\n%s", render_mot_work(rows).c_str());

  // Exit-code ladder, most severe condition first (see the table in the
  // header comment). Per-fault budget stops are definitive outcomes (the
  // fault is *unresolved*, not unprocessed) and do not change the exit code.
  if (journal_io_failed) return 4;
  if (g_cancel.cancelled()) return 3;
  if (total_worker_lost > 0) return 5;
  if (total_incomplete > 0) return 2;
  return 0;
}
