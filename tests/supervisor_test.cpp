// Tests for the multi-process campaign supervisor: shard protocol codec,
// group planning, chaos kill schedule, and — the load-bearing guarantees —
// bit-identity of the supervised merge with the in-process runner under
// arbitrary worker counts and seeded kill schedules (over forked and TCP
// workers alike), poison-fault quarantine, fleet-loss partial completion,
// and journal interop (shard harvest + resume through the ordinary
// in-process path).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "circuits/embedded.hpp"
#include "circuits/registry.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "faultsim/parallel.hpp"
#include "faultsim/remote.hpp"
#include "faultsim/shard.hpp"
#include "faultsim/supervisor.hpp"
#include "testgen/random_gen.hpp"
#include "util/chaos_proxy.hpp"
#include "util/socket.hpp"

namespace motsim {
namespace {

struct Pipeline {
  Circuit circuit;
  TestSequence test;
  SeqTrace good;
  std::vector<Fault> faults;
  std::vector<std::size_t> candidates;  // undetected, passes condition (C)
};

Pipeline prepare(Circuit c, std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  TestSequence test = random_sequence(c.num_inputs(), length, rng);
  const SequentialSimulator sim(c);
  SeqTrace good = sim.run_fault_free(test);
  std::vector<Fault> faults = collapsed_fault_list(c);
  const ParallelFaultSimulator pfs(c);
  const std::vector<ConvOutcome> conv = pfs.run(test, good, faults);
  std::vector<std::size_t> candidates;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (!conv[k].detected && conv[k].passes_c) candidates.push_back(k);
  }
  return {std::move(c), std::move(test), std::move(good), std::move(faults),
          std::move(candidates)};
}

void expect_items_identical(const std::vector<MotBatchItem>& a,
                            const std::vector<MotBatchItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "item " << i << " (fault " << a[i].fault_index
                          << ")";
  }
}

// Supervisor options tuned for tests: no real backoff sleeps, generous
// heartbeat so slow sanitizer runs never trip it by accident.
SupervisorOptions test_sup(std::size_t workers) {
  SupervisorOptions sup;
  sup.workers = workers;
  sup.heartbeat_ms = 20000;
  sup.restart_backoff.base_delay_us = 0;
  sup.shutdown_grace_ms = 20000;
  return sup;
}

// Opens the coordinator's loopback listener on an ephemeral port.
int open_listener(std::uint16_t& port) {
  std::string error;
  const int fd = netio::tcp_listen("127.0.0.1", 0, error);
  EXPECT_GE(fd, 0) << error;
  port = fd >= 0 ? netio::local_port(fd) : 0;
  EXPECT_NE(port, 0);
  return fd;
}

// Worker options tuned for tests: tiny backoff, a bounded attempt budget so
// a worker orphaned by a finished campaign fails fast instead of hanging.
RemoteWorkerOptions test_remote(std::uint16_t port) {
  RemoteWorkerOptions o;
  o.port = port;
  o.max_connect_attempts = 50;
  o.reconnect_backoff.base_delay_us = 1000;
  o.reconnect_backoff.max_delay_us = 20000;
  o.handshake_timeout_ms = 5000;
  return o;
}

// Runs `n` remote workers as plain threads speaking real TCP — each serving
// the same deterministic pipeline, exactly as `--connect` processes would.
struct WorkerFleet {
  std::vector<std::thread> threads;
  std::vector<int> rcs;
  std::vector<RemoteWorkerReport> reports;

  void launch(std::size_t n, const Pipeline& p, const MotOptions& opt,
              bool run_baseline, const RemoteWorkerOptions& ropts) {
    rcs.assign(n, -1);
    reports.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i, &p, opt, run_baseline, ropts] {
        rcs[i] = serve_remote_worker(p.circuit, opt, run_baseline, p.test,
                                     p.good, p.faults, ropts, &reports[i]);
      });
    }
  }
  void join() {
    for (auto& t : threads) t.join();
    threads.clear();
  }
  ~WorkerFleet() { join(); }
};

// ------------------------------------------------------- shard codec ----

TEST(ShardCodec, AssignRoundTripsAndRejectsMalformedPayloads) {
  const std::vector<std::size_t> groups[] = {
      {0}, {7, 3, 19}, {1, 2, 3, 4, 5, 6, 7, 8}};
  for (const auto& g : groups) {
    std::vector<std::size_t> out;
    ASSERT_TRUE(shard::decode_assign(shard::encode_assign(g), out));
    EXPECT_EQ(out, g);
  }
  std::vector<std::size_t> out;
  EXPECT_FALSE(shard::decode_assign("", out));
  EXPECT_FALSE(shard::decode_assign(" 1", out));
  EXPECT_FALSE(shard::decode_assign("1 ", out));
  EXPECT_FALSE(shard::decode_assign("1  2", out));
  EXPECT_FALSE(shard::decode_assign("1 x", out));
  EXPECT_FALSE(shard::decode_assign("-1", out));
}

TEST(ShardCodec, FaultStartRoundTrips) {
  std::size_t k = 0;
  ASSERT_TRUE(shard::decode_fault_start(shard::encode_fault_start(12345), k));
  EXPECT_EQ(k, 12345u);
  EXPECT_FALSE(shard::decode_fault_start("", k));
  EXPECT_FALSE(shard::decode_fault_start("12 34", k));
}

TEST(ShardCodec, HelloRoundTripsTheFullCampaignIdentity) {
  JournalMeta meta;
  meta.circuit = "s5378";
  meta.num_faults = 4603;
  meta.test_length = 100;
  meta.test_hash = 0xfeedface12345678ull;
  meta.options_hash = 0x0102030405060708ull;
  meta.baseline = true;
  JournalMeta out;
  ASSERT_TRUE(shard::decode_hello(shard::encode_hello(meta), out));
  EXPECT_EQ(out, meta);
  meta.baseline = false;
  ASSERT_TRUE(shard::decode_hello(shard::encode_hello(meta), out));
  EXPECT_EQ(out, meta);

  EXPECT_FALSE(shard::decode_hello("", out));
  EXPECT_FALSE(shard::decode_hello("1 2 3 4 5", out));          // short
  EXPECT_FALSE(shard::decode_hello("1 2 3 4 5 s298 extra", out));
  EXPECT_FALSE(shard::decode_hello("x 2 3 4 5 s298", out));     // non-numeric
  EXPECT_FALSE(shard::decode_hello("1 2 3 4  5 s298", out));    // empty token
}

TEST(ShardCodec, WelcomeRoundTripsAndRejectsMalformedPayloads) {
  shard::WelcomeInfo info;
  info.slot = 3;
  info.incarnation = 17;
  info.heartbeat_period_ms = 1250;
  shard::WelcomeInfo out;
  ASSERT_TRUE(shard::decode_welcome(shard::encode_welcome(info), out));
  EXPECT_EQ(out.slot, info.slot);
  EXPECT_EQ(out.incarnation, info.incarnation);
  EXPECT_EQ(out.heartbeat_period_ms, info.heartbeat_period_ms);

  EXPECT_FALSE(shard::decode_welcome("", out));
  EXPECT_FALSE(shard::decode_welcome("1 2", out));
  EXPECT_FALSE(shard::decode_welcome("1 2 3 4", out));
  EXPECT_FALSE(shard::decode_welcome("1 two 3", out));
}

TEST(ShardPlanner, GroupsPartitionInputInOrder) {
  std::vector<std::size_t> faults;
  for (std::size_t i = 0; i < 103; ++i) faults.push_back(i * 3 + 1);
  for (const std::size_t group_size : {std::size_t{0}, std::size_t{1},
                                       std::size_t{7}, std::size_t{1000}}) {
    const auto groups = shard::plan_fault_groups(faults, 4, group_size);
    std::vector<std::size_t> flat;
    for (const auto& g : groups) {
      EXPECT_FALSE(g.empty());
      flat.insert(flat.end(), g.begin(), g.end());
    }
    EXPECT_EQ(flat, faults) << "group_size " << group_size;
  }
  EXPECT_TRUE(shard::plan_fault_groups({}, 4, 0).empty());
  // Auto sizing produces several groups per worker so stealing stays
  // granular.
  EXPECT_GT(shard::plan_fault_groups(faults, 4, 0).size(), 8u);
}

TEST(ChaosSchedule, DeterministicAndIncarnationSensitive) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(shard::chaos_should_kill(9, i, 0, 300),
              shard::chaos_should_kill(9, i, 0, 300));
  }
  EXPECT_FALSE(shard::chaos_should_kill(9, 5, 0, 0));  // permille 0 = off
  // A retried fault gets a fresh coin: across incarnations the decision
  // flips somewhere (otherwise one unlucky fault would die forever).
  int kills = 0;
  int flips = 0;
  bool prev = shard::chaos_should_kill(9, 5, 0, 500);
  for (std::size_t inc = 0; inc < 64; ++inc) {
    const bool kill = shard::chaos_should_kill(9, 5, inc, 500);
    kills += kill;
    flips += kill != prev;
    prev = kill;
  }
  EXPECT_GT(kills, 8);
  EXPECT_LT(kills, 56);
  EXPECT_GT(flips, 0);
}

TEST(WorkerShardPath, DerivedFromJournalPath) {
  EXPECT_EQ(worker_shard_path("", 3), "");
  EXPECT_EQ(worker_shard_path("/tmp/camp.journal", 3), "/tmp/camp.journal.w3");
}

// -------------------------------------------------- supervised runner ----

// The acceptance bar of the supervised path: for any worker count, the
// merged result vector is bit-identical to the in-process runner.
TEST(SupervisedMotRunner, OneAndFourWorkersMatchInProcess) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true,
                                     test_sup(workers));
    SupervisorStats stats;
    const std::vector<MotBatchItem> got = runner.run(
        p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);
    expect_items_identical(got, want);
    EXPECT_EQ(stats.worker_deaths, 0u) << workers << " workers";
    EXPECT_EQ(stats.poisoned_faults, 0u);
    EXPECT_EQ(stats.lost_faults, 0u);
  }
}

TEST(SupervisedMotRunner, EmptyIndicesReturnEmpty) {
  const Pipeline p = prepare(circuits::make_table1_example(), 10, 3);
  MotOptions opt;
  opt.num_threads = 1;
  const SupervisedMotRunner runner(p.circuit, opt, false, test_sup(2));
  EXPECT_TRUE(runner.run(p.test, p.good, p.faults, {}, nullptr).empty());
}

// When the whole fleet is dead and the restart budget is spent, the runner
// returns the remaining faults incomplete (resumable) instead of hanging.
TEST(SupervisedMotRunner, FleetLossReturnsRemainingFaultsIncomplete) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_GT(p.candidates.size(), 1u);
  MotOptions opt;
  opt.num_threads = 1;

  SupervisorOptions sup = test_sup(1);
  sup.chaos_abort_fault = p.candidates[0];  // first fault kills the worker
  sup.max_worker_restarts = 0;              // ... and there is no second one
  sup.group_size = p.candidates.size();     // everything in one shard
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = runner.run(
      p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);

  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.worker_restarts, 0u);
  EXPECT_EQ(stats.lost_faults, p.candidates.size());
  ASSERT_EQ(got.size(), p.candidates.size());
  for (const MotBatchItem& item : got) {
    EXPECT_FALSE(item.completed);
    EXPECT_EQ(item.mot.unresolved, UnresolvedReason::Cancelled);
  }
}

// Journal interop across the process boundary: a supervised campaign that
// loses its fleet mid-run leaves a valid journal (including records
// harvested from worker shards), and the ordinary in-process runner resumes
// it to a result bit-identical to an uninterrupted run.
TEST(SupervisedMotRunner, KilledCampaignResumesThroughInProcessRunner) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_GT(p.candidates.size(), 2u);
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  const std::string path = testing::TempDir() + "/supervised_resume.journal";
  const JournalMeta meta = make_journal_meta(p.circuit.name(), p.faults.size(),
                                             p.test, opt, /*baseline=*/true);
  std::string err;

  // Phase 1: one worker, no restarts, poisoned third candidate — the fleet
  // dies partway with at least the first two outcomes journaled.
  {
    auto journal = CampaignJournal::create(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    SupervisorOptions sup = test_sup(1);
    sup.chaos_abort_fault = p.candidates[2];
    sup.max_worker_restarts = 0;
    sup.group_size = p.candidates.size();
    const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true,
                                     sup);
    SupervisorStats stats;
    const std::vector<MotBatchItem> got = runner.run(
        p.test, p.good, p.faults, p.candidates, journal.get(), nullptr,
        &stats);
    EXPECT_EQ(stats.lost_faults, p.candidates.size() - 2);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[1], want[1]);
  }

  // Phase 2: resume the same journal with the plain in-process runner — the
  // two runners share one record codec, so the handoff is seamless.
  {
    auto journal = CampaignJournal::open_resume(path, meta, err);
    ASSERT_NE(journal, nullptr) << err;
    EXPECT_EQ(journal->resumed_count(), 2u);
    const std::vector<MotBatchItem> got =
        reference.run(p.test, p.good, p.faults, p.candidates, journal.get());
    expect_items_identical(got, want);
  }
  std::remove(path.c_str());
}

// ------------------------------------------ chaos over both transports ----

// Forked workers and TCP workers run the same worker session, so every chaos
// scenario below runs over both. Fork: the supervisor forks its workers and
// their chaos kills are real SIGKILLs. TCP: a WorkerFleet of in-process
// threads serves the same pipeline with the same chaos hooks, and a kill is
// emulated (the worker drops its link, forgets its replay log and rejoins
// as a fresh incarnation, which spends the restart budget).
enum class Transport { Fork, Tcp };

class SupervisedChaos : public testing::TestWithParam<Transport> {
 protected:
  std::vector<MotBatchItem> run(const Pipeline& p, const MotOptions& opt,
                                SupervisorOptions sup,
                                CampaignJournal* journal,
                                SupervisorStats& stats) const {
    if (GetParam() == Transport::Fork) {
      return SupervisedMotRunner(p.circuit, opt, /*run_baseline=*/true, sup)
          .run(p.test, p.good, p.faults, p.candidates, journal, nullptr,
               &stats);
    }
    std::uint16_t port = 0;
    const int listen_fd = open_listener(port);
    EXPECT_GE(listen_fd, 0);
    RemoteWorkerOptions ropts = test_remote(port);
    ropts.chaos_kill_permille = sup.chaos_kill_permille;
    ropts.chaos_kill_seed = sup.chaos_kill_seed;
    ropts.chaos_abort_fault = sup.chaos_abort_fault;
    sup.chaos_kill_permille = 0;
    sup.chaos_abort_fault = static_cast<std::size_t>(-1);
    sup.listen_fd = listen_fd;
    WorkerFleet fleet;
    fleet.launch(sup.workers, p, opt, /*run_baseline=*/true, ropts);
    std::vector<MotBatchItem> got =
        SupervisedMotRunner(p.circuit, opt, /*run_baseline=*/true, sup)
            .run(p.test, p.good, p.faults, p.candidates, journal, nullptr,
                 &stats);
    ::close(listen_fd);  // orphaned reconnects fail fast, not via timeout
    fleet.join();
    return got;
  }
};

INSTANTIATE_TEST_SUITE_P(Transports, SupervisedChaos,
                         testing::Values(Transport::Fork, Transport::Tcp),
                         [](const testing::TestParamInfo<Transport>& info) {
                           return info.param == Transport::Fork ? "fork"
                                                                : "tcp";
                         });

// The load-bearing chaos test: kill workers at seeded random points and
// require the merged result to stay bit-identical to the single-process
// run, at 1 worker and at 4 workers.
TEST_P(SupervisedChaos, SeededWorkerKillsAreInvisibleInResults) {
  const Pipeline p = prepare(circuits::build_benchmark("s298"), 24, 11);
  ASSERT_GT(p.candidates.size(), 4u);
  MotOptions opt;
  opt.num_threads = 1;
  opt.n_states = 16;  // keep per-fault cost small; deaths dominate the test
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SupervisorOptions sup = test_sup(workers);
    sup.chaos_kill_permille = 250;
    sup.chaos_kill_seed = 0xdeadbeef;
    sup.max_fault_attempts = 1000;   // no poisoning: every fault must land
    sup.max_worker_restarts = 10000;
    SupervisorStats stats;
    const std::vector<MotBatchItem> got =
        run(p, opt, sup, nullptr, stats);
    EXPECT_GT(stats.worker_deaths, 0u) << workers << " workers";
    if (GetParam() == Transport::Fork) {
      EXPECT_EQ(stats.worker_restarts, stats.worker_deaths);
    } else {
      // A TCP worker killed near the end may find the campaign over before
      // it rejoins; every rejoin is still a restart.
      EXPECT_LE(stats.worker_restarts, stats.worker_deaths);
    }
    EXPECT_EQ(stats.poisoned_faults, 0u);
    EXPECT_EQ(stats.lost_faults, 0u);
    expect_items_identical(got, want);
  }
}

// A fault that deterministically kills every worker that touches it must be
// quarantined after max_fault_attempts — and only it; every other fault's
// result stays bit-identical.
TEST_P(SupervisedChaos, PoisonFaultIsQuarantinedAfterMaxAttempts) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_GT(p.candidates.size(), 1u);
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  const std::size_t poison = p.candidates[1];
  SupervisorOptions sup = test_sup(2);
  sup.chaos_abort_fault = poison;
  sup.max_fault_attempts = 2;
  sup.max_worker_restarts = 100;
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = run(p, opt, sup, nullptr, stats);

  EXPECT_EQ(stats.poisoned_faults, 1u);
  EXPECT_GE(stats.worker_deaths, 2u);  // the poison killed two incarnations
  EXPECT_EQ(stats.lost_faults, 0u);
  // The death evidence: a forked worker's wait status, a TCP worker's
  // dropped link.
  const char* evidence =
      GetParam() == Transport::Fork ? "signal_9" : "disconnect";
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].fault_index == poison) {
      EXPECT_TRUE(got[i].completed);
      EXPECT_EQ(got[i].mot.unresolved, UnresolvedReason::EngineError);
      EXPECT_EQ(got[i].error.rfind("worker_killed_", 0), 0u) << got[i].error;
      EXPECT_NE(got[i].error.find(evidence), std::string::npos)
          << got[i].error;
    } else {
      EXPECT_EQ(got[i], want[i]) << "fault " << got[i].fault_index;
    }
  }
}

// Chaos kills with a journal: the supervised run completes through deaths
// and restarts, and afterwards a resume finds nothing left to do.
TEST_P(SupervisedChaos, JournaledChaosRunCompletesAndResumesToNoop) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  const std::string path = testing::TempDir() + "/supervised_chaos_" +
                           (GetParam() == Transport::Fork ? "fork" : "tcp") +
                           ".journal";
  const JournalMeta meta = make_journal_meta(p.circuit.name(), p.faults.size(),
                                             p.test, opt, /*baseline=*/true);
  std::string err;
  auto journal = CampaignJournal::create(path, meta, err);
  ASSERT_NE(journal, nullptr) << err;

  SupervisorOptions sup = test_sup(2);
  sup.chaos_kill_permille = 300;
  sup.chaos_kill_seed = 42;
  sup.max_fault_attempts = 1000;
  sup.max_worker_restarts = 10000;
  SupervisorStats stats;
  const std::vector<MotBatchItem> got =
      run(p, opt, sup, journal.get(), stats);
  expect_items_identical(got, want);

  // The shards were merged and retired; the journal alone holds everything.
  for (std::size_t s = 0; s < 2; ++s) {
    std::string shard_err;
    EXPECT_EQ(CampaignJournal::open_resume(worker_shard_path(path, s), meta,
                                           shard_err),
              nullptr);
  }
  journal.reset();
  auto resumed = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(resumed, nullptr) << err;
  EXPECT_EQ(resumed->resumed_count(), p.candidates.size());
  std::remove(path.c_str());
}

// --------------------------------------------------- remote supervision ----

// The acceptance bar of the remote path: a loopback campaign at 1, 2 and 4
// workers merges bit-identically to the in-process runner, every worker
// shuts down cleanly, and nothing dies.
TEST(RemoteSupervision, LoopbackWorkersMatchInProcess) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::uint16_t port = 0;
    const int listen_fd = open_listener(port);
    ASSERT_GE(listen_fd, 0);
    WorkerFleet fleet;
    fleet.launch(workers, p, opt, /*run_baseline=*/true, test_remote(port));

    SupervisorOptions sup = test_sup(workers);
    sup.listen_fd = listen_fd;
    const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true,
                                     sup);
    SupervisorStats stats;
    const std::vector<MotBatchItem> got = runner.run(
        p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);
    fleet.join();
    ::close(listen_fd);

    expect_items_identical(got, want);
    EXPECT_EQ(stats.worker_deaths, 0u) << workers << " workers";
    EXPECT_EQ(stats.lost_faults, 0u);
    for (std::size_t i = 0; i < workers; ++i) {
      EXPECT_EQ(fleet.rcs[i], kRemoteWorkerOk) << fleet.reports[i].error;
      EXPECT_TRUE(fleet.reports[i].clean_shutdown);
      EXPECT_EQ(fleet.reports[i].connections, 1u);
    }
  }
}

// Seeded chaos kills on the workers themselves (emulated: drop the link,
// forget the replay log, rejoin as a fresh incarnation) must be invisible in
// the merged results — the remote twin of SeededWorkerKillsAreInvisible.
TEST(RemoteSupervision, EmulatedChaosKillsAreInvisibleInResults) {
  const Pipeline p = prepare(circuits::build_benchmark("s298"), 24, 11);
  ASSERT_GT(p.candidates.size(), 4u);
  MotOptions opt;
  opt.num_threads = 1;
  opt.n_states = 16;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  std::uint16_t port = 0;
  const int listen_fd = open_listener(port);
  ASSERT_GE(listen_fd, 0);
  RemoteWorkerOptions ropts = test_remote(port);
  ropts.chaos_kill_permille = 250;
  ropts.chaos_kill_seed = 0xdeadbeef;
  WorkerFleet fleet;
  fleet.launch(2, p, opt, /*run_baseline=*/true, ropts);

  SupervisorOptions sup = test_sup(2);
  sup.listen_fd = listen_fd;
  sup.max_fault_attempts = 1000;  // no poisoning: every fault must land
  sup.max_worker_restarts = 10000;
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = runner.run(
      p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);
  ::close(listen_fd);  // orphaned reconnects fail fast, not via timeout
  fleet.join();

  expect_items_identical(got, want);
  EXPECT_GT(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.poisoned_faults, 0u);
  EXPECT_EQ(stats.lost_faults, 0u);
  std::size_t kills = 0;
  std::size_t rejoins = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    kills += fleet.reports[i].chaos_kills;
    rejoins += fleet.reports[i].connections;
  }
  EXPECT_GT(kills, 0u);
  EXPECT_GT(rejoins, 2u);  // at least one worker came back after a kill
}

// Links severed mid-stream by the seeded chaos proxy are campaign weather:
// workers reconnect through the same proxy (its sever budget eventually
// runs dry), the replay log fills any gaps, and the merge stays
// bit-identical.
TEST(RemoteSupervision, ProxySeveredLinksAreInvisibleInResults) {
  const Pipeline p = prepare(circuits::build_benchmark("s298"), 24, 11);
  ASSERT_GT(p.candidates.size(), 4u);
  MotOptions opt;
  opt.num_threads = 1;
  opt.n_states = 16;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  std::uint16_t port = 0;
  const int listen_fd = open_listener(port);
  ASSERT_GE(listen_fd, 0);
  netio::ChaosProxyPlan plan;
  plan.sever_after_bytes = 500;  // cuts early in each doomed connection
  plan.max_severs = 2;           // then the link behaves: completion assured
  netio::ChaosProxy proxy(port, plan);
  ASSERT_TRUE(proxy.ok()) << proxy.error();

  WorkerFleet fleet;
  fleet.launch(2, p, opt, /*run_baseline=*/true, test_remote(proxy.port()));

  SupervisorOptions sup = test_sup(2);
  sup.listen_fd = listen_fd;
  sup.max_fault_attempts = 1000;
  sup.max_worker_restarts = 10000;
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = runner.run(
      p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);
  ::close(listen_fd);
  fleet.join();
  proxy.shutdown();

  expect_items_identical(got, want);
  EXPECT_EQ(proxy.severed(), 2u);
  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.lost_faults, 0u);
}

// Regression: a worker whose link is severed between two faults of an
// assigned group must treat the EOF as a lost link (reconnect, replay),
// never as a clean Shutdown. With a single worker there is nobody to mask
// the mistake — a worker that walks away strands the whole campaign in the
// coordinator's rejoin window.
TEST(RemoteSupervision, SingleWorkerReconnectsAfterAMidGroupSever) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_GT(p.candidates.size(), 2u);
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  std::uint16_t port = 0;
  const int listen_fd = open_listener(port);
  ASSERT_GE(listen_fd, 0);
  netio::ChaosProxyPlan plan;
  plan.sever_after_bytes = 400;  // lands mid-group: handshake + first
                                 // assign fit well under 400 bytes
  plan.max_severs = 1;
  netio::ChaosProxy proxy(port, plan);
  ASSERT_TRUE(proxy.ok()) << proxy.error();

  WorkerFleet fleet;
  fleet.launch(1, p, opt, /*run_baseline=*/true, test_remote(proxy.port()));

  SupervisorOptions sup = test_sup(1);
  sup.listen_fd = listen_fd;
  sup.max_fault_attempts = 1000;
  sup.max_worker_restarts = 10000;
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = runner.run(
      p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);
  ::close(listen_fd);
  fleet.join();
  proxy.shutdown();

  expect_items_identical(got, want);
  EXPECT_EQ(proxy.severed(), 1u);
  EXPECT_EQ(stats.lost_faults, 0u);
  EXPECT_EQ(stats.poisoned_faults, 0u);
  // The load-bearing assertion: the sole worker came back after the cut.
  EXPECT_GE(fleet.reports[0].connections, 2u);
}

// A coordinator whose workers never arrive must give up after
// remote_join_ms with every fault incomplete (resumable), not hang.
TEST(RemoteSupervision, NoWorkersWithinJoinDeadlineIsFleetLoss) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;
  std::uint16_t port = 0;
  const int listen_fd = open_listener(port);
  ASSERT_GE(listen_fd, 0);

  SupervisorOptions sup = test_sup(2);
  sup.listen_fd = listen_fd;
  sup.remote_join_ms = 50;
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = runner.run(
      p.test, p.good, p.faults, p.candidates, nullptr, nullptr, &stats);
  ::close(listen_fd);

  EXPECT_EQ(stats.lost_faults, p.candidates.size());
  ASSERT_EQ(got.size(), p.candidates.size());
  for (const MotBatchItem& item : got) {
    EXPECT_FALSE(item.completed);
    EXPECT_EQ(item.mot.unresolved, UnresolvedReason::Cancelled);
  }
}

// Flag drift between hosts is caught at admission: a worker whose options
// hash differs is rejected with "campaign_mismatch" (terminal, exit 6)
// while a matching worker completes the campaign untouched.
TEST(RemoteSupervision, MismatchedCampaignIsRejectedAtHandshake) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  std::uint16_t port = 0;
  const int listen_fd = open_listener(port);
  ASSERT_GE(listen_fd, 0);

  SupervisorOptions sup = test_sup(1);
  sup.listen_fd = listen_fd;
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  std::vector<MotBatchItem> got;
  std::thread coordinator([&] {
    got = runner.run(p.test, p.good, p.faults, p.candidates, nullptr, nullptr,
                     &stats);
  });

  // The drifted worker alone first, until its rejection: a good worker
  // that finished the campaign first would close the listener before the
  // handshake this test checks.
  MotOptions drifted = opt;
  drifted.n_states = opt.n_states / 2;  // result-affecting: different hash
  WorkerFleet bad;
  bad.launch(1, p, drifted, /*run_baseline=*/true, test_remote(port));
  bad.join();
  WorkerFleet good;
  good.launch(1, p, opt, /*run_baseline=*/true, test_remote(port));
  coordinator.join();
  ::close(listen_fd);
  good.join();

  expect_items_identical(got, want);
  EXPECT_EQ(stats.lost_faults, 0u);
  EXPECT_EQ(bad.rcs[0], kRemoteWorkerTransportFailure);
  EXPECT_NE(bad.reports[0].error.find("campaign_mismatch"), std::string::npos)
      << bad.reports[0].error;
  EXPECT_EQ(bad.reports[0].connections, 0u);  // never welcomed
  EXPECT_EQ(good.rcs[0], kRemoteWorkerOk) << good.reports[0].error;
  EXPECT_TRUE(good.reports[0].clean_shutdown);
}

// Remote campaigns journal exactly like local ones: a journaled chaos run
// completes through kills and rejoins, and a resume finds nothing to do.
TEST(RemoteSupervision, JournaledRemoteChaosRunResumesToNoop) {
  const Pipeline p = prepare(circuits::make_table1_example(), 20, 3);
  ASSERT_FALSE(p.candidates.empty());
  MotOptions opt;
  opt.num_threads = 1;
  const MotBatchRunner reference(p.circuit, opt, /*run_baseline=*/true);
  const std::vector<MotBatchItem> want =
      reference.run(p.test, p.good, p.faults, p.candidates);

  const std::string path = testing::TempDir() + "/remote_chaos.journal";
  const JournalMeta meta = make_journal_meta(p.circuit.name(), p.faults.size(),
                                             p.test, opt, /*baseline=*/true);
  std::string err;
  auto journal = CampaignJournal::create(path, meta, err);
  ASSERT_NE(journal, nullptr) << err;

  std::uint16_t port = 0;
  const int listen_fd = open_listener(port);
  ASSERT_GE(listen_fd, 0);
  RemoteWorkerOptions ropts = test_remote(port);
  ropts.chaos_kill_permille = 300;
  ropts.chaos_kill_seed = 42;
  WorkerFleet fleet;
  fleet.launch(2, p, opt, /*run_baseline=*/true, ropts);

  SupervisorOptions sup = test_sup(2);
  sup.listen_fd = listen_fd;
  sup.max_fault_attempts = 1000;
  sup.max_worker_restarts = 10000;
  const SupervisedMotRunner runner(p.circuit, opt, /*run_baseline=*/true, sup);
  SupervisorStats stats;
  const std::vector<MotBatchItem> got = runner.run(
      p.test, p.good, p.faults, p.candidates, journal.get(), nullptr, &stats);
  ::close(listen_fd);
  fleet.join();
  expect_items_identical(got, want);

  journal.reset();
  auto resumed = CampaignJournal::open_resume(path, meta, err);
  ASSERT_NE(resumed, nullptr) << err;
  EXPECT_EQ(resumed->resumed_count(), p.candidates.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace motsim
