// motbench — the program of the motsim benchmark (see README.md beside it).
//
// One invocation runs one workload on inputs made from --seed and prints a
// single JSON report line on stdout. perfbench/run.py builds this program,
// checks the report against perfbench/pins.json and prints the benchmark's
// result line. The program under test receives only text: the benchmark
// writes the circuit as .bench netlist text and the stimulus as pattern text,
// and every timed run starts by parsing them (netlist/bench_io,
// sim/pattern_io).
//
//   motbench --workload W --seed N --seconds S --trace 0|1
//            --inputs DIR --work DIR [--smoke] [--commit SHA]
//   motbench --generate-hitec PATH
//
// --trace 0 times whole campaigns (experiments::run_circuit) for about S
// seconds.
// --trace 1 runs one untraced campaign, then the same pipeline again with
// this program calling each layer's public function in run_circuit's order and
// recording spans around the calls (nothing inside src/ is instrumented),
// then per-fault and per-layer passes over the same MOT candidates. Spans are
// kept in memory and written once, at exit, to DIR/traces/.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "experiments/experiments.hpp"
#include "fault/fault.hpp"
#include "fault/fault_view.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/checkpoint.hpp"
#include "faultsim/conventional.hpp"
#include "faultsim/parallel.hpp"
#include "faultsim/supervisor.hpp"
#include "mot/baseline.hpp"
#include "mot/collector.hpp"
#include "mot/proposed.hpp"
#include "netlist/bench_io.hpp"
#include "sim/pattern_io.hpp"
#include "sim/seq_sim.hpp"
#include "testgen/hitec_like.hpp"
#include "testgen/random_gen.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

#ifndef MOTBENCH_BUILD_TYPE
#define MOTBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace motsim;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* circuit;   ///< registry stand-in
  std::size_t vectors;   ///< seeded random sequence length; 0 = HITEC-like
  bool baseline;         ///< also run the [4] expansion baseline
  std::size_t mot_cap;   ///< first K condition-(C) candidates
  std::size_t pair_cap;  ///< MotOptions::max_pairs (0 = library default)
  std::size_t threads;   ///< pre-pass and in-process MOT threads (0 = nproc)
  std::size_t workers;   ///< forked SupervisedMotRunner workers (0 = none)
};

// Why these three (README.md has the full rationale):
//  * table2_s5378 — the MOT batch dominates (collection probes and packed
//    resimulation); one thread keeps the scheduler out of it.
//  * heavy_s15850 — the conventional pre-pass is >= 90% of the campaign at
//    nproc threads; it bypasses collection almost entirely.
//  * hitec_s5378_fork — the committed deterministic sequence through forked
//    workers and an fsync'd journal: the only workload that writes and the
//    only one crossing the supervisor/shard frame protocol.
constexpr Workload kWorkloads[] = {
    {"table2_s5378", "s5378", 200, true, 64, 0, 1, 0},
    {"heavy_s15850", "s15850", 60, false, 20, 4000, 0, 0},
    {"hitec_s5378_fork", "s5378", 0, true, 48, 0, 2, 2},
};

// --smoke: the same three paths on tiny circuits, for the benchmark's tests.
constexpr Workload kSmokeWorkloads[] = {
    {"table2_s5378", "s298", 60, true, 10, 0, 1, 0},
    {"heavy_s15850", "s344", 40, false, 5, 4000, 0, 0},
    {"hitec_s5378_fork", "s298", 0, true, 10, 0, 2, 2},
};

/// Input seeds form a family of this size (seed mod kInputFamily); every
/// member's outputs are pinned in pins.json, so every run is checked exactly.
constexpr std::uint64_t kInputFamily = 8;

/// Set-ups per round; a run makes one round before its first campaign and
/// one after each campaign.
constexpr int kSetupRound = 16;

/// The committed HITEC-like input of hitec_s5378_fork and its digest. The
/// run refuses to start when the file does not hash to this value.
constexpr const char* kHitecFile = "hitec_s5378.pat";
constexpr const char* kHitecSha256 =
    "99a8028459b5cad96991f47ccf19a94764c84a9cd2829f9c948abc547d35318e";
/// run_hitec_experiment's generator seed for its default test_seed of 7.
constexpr std::uint64_t kHitecSeed = 7 * 131 + 17;

const Workload& find_workload(const std::string& name, bool smoke) {
  const auto& table = smoke ? kSmokeWorkloads : kWorkloads;
  for (const Workload& w : table) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------------------- inputs

struct Inputs {
  std::string circuit_name;
  std::string netlist;   ///< .bench text
  std::string patterns;  ///< pattern_io text
};

Circuit parse_or_throw(const std::string& text, const std::string& name) {
  BenchParseResult r = parse_bench(text, name);
  if (!r.ok) {
    throw std::runtime_error("netlist line " + std::to_string(r.error_line) +
                             ": " + r.error);
  }
  return std::move(r.circuit);
}

std::string hitec_text(const Circuit& c, std::size_t max_length,
                       const std::string& regenerate) {
  HitecLikeParams params;
  params.seed = kHitecSeed;
  params.max_length = max_length;
  const HitecLikeResult gen =
      generate_hitec_like(c, collapsed_fault_list(c), params);
  return "# HITEC-like sequence for the " + c.name() + " stand-in, seed " +
         std::to_string(kHitecSeed) + ", " +
         std::to_string(gen.sequence.length()) + " vectors.\n" + regenerate +
         write_patterns(gen.sequence);
}

Inputs make_inputs(const Workload& w, std::uint64_t input_seed, bool smoke,
                   const fs::path& inputs_dir) {
  Inputs in;
  in.circuit_name = w.circuit;
  in.netlist = write_bench(circuits::build_benchmark(w.circuit));
  if (w.vectors > 0) {
    const Circuit c = parse_or_throw(in.netlist, w.circuit);
    Rng rng(0x6d6f7462656e6368ull ^ (input_seed * 0x9e3779b97f4a7c15ull));
    in.patterns = write_patterns(random_sequence(c.num_inputs(), w.vectors, rng));
  } else if (smoke) {
    in.patterns = hitec_text(parse_or_throw(in.netlist, w.circuit), 48, "");
  } else {
    in.patterns = read_file(inputs_dir / kHitecFile);
    const std::string sha = sha256_hex(in.patterns);
    if (sha != kHitecSha256) {
      throw std::runtime_error(std::string(kHitecFile) + " has SHA-256 " + sha +
                               ", expected " + kHitecSha256);
    }
  }
  return in;
}

// -------------------------------------------------------------------- setup

/// Parsed inputs. Built in place: moving a Circuit drops its levelized view.
struct Setup {
  BenchParseResult netlist;
  PatternParseResult patterns;
  const Circuit& circuit() const { return netlist.circuit; }
  const TestSequence& test() const { return patterns.sequence; }
};

struct SetupTimes {
  double parse_s = 0, levelize_s = 0, pattern_s = 0;
  double total() const { return parse_s + levelize_s + pattern_s; }
};

/// Turns the input texts into the Circuit (levelized, as every simulator
/// needs it) and the TestSequence.
void set_up(const Inputs& in, Setup& out, SetupTimes& t) {
  auto t0 = Clock::now();
  out.netlist = parse_bench(in.netlist, in.circuit_name);
  if (!out.netlist.ok) throw std::runtime_error("netlist: " + out.netlist.error);
  t.parse_s = since(t0);
  t0 = Clock::now();
  (void)out.netlist.circuit.levelized();
  t.levelize_s = since(t0);
  t0 = Clock::now();
  out.patterns = parse_patterns(in.patterns);
  if (!out.patterns.ok) throw std::runtime_error("patterns: " + out.patterns.error);
  t.pattern_s = since(t0);
  if (out.patterns.sequence.num_inputs() != out.netlist.circuit.num_inputs()) {
    throw std::runtime_error("pattern width does not match the circuit");
  }
}

// ------------------------------------------------------------------- report

/// Minimal JSON writer for the report line.
class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    quoted(k);
    os_ << ':';
    fresh_ = true;
    return *this;
  }
  Json& open() { sep(); os_ << '{'; fresh_ = true; return *this; }
  Json& close() { os_ << '}'; fresh_ = false; return *this; }
  Json& open_list() { sep(); os_ << '['; fresh_ = true; return *this; }
  Json& close_list() { os_ << ']'; fresh_ = false; return *this; }
  Json& num(double v) {
    sep();
    if (!std::isfinite(v)) {
      os_ << "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    }
    return *this;
  }
  Json& num(std::size_t v) { sep(); os_ << v; return *this; }
  Json& boolean(bool v) { sep(); os_ << (v ? "true" : "false"); return *this; }
  Json& str(const std::string& s) {
    sep();
    quoted(s);
    return *this;
  }
  std::string text() const { return os_.str(); }

 private:
  void quoted(const std::string& s) {
    os_ << '"';
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        os_ << '\\' << ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        os_ << buf;
      } else {
        os_ << ch;
      }
    }
    os_ << '"';
  }
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

/// The deterministic outputs of a campaign; pins.json fixes them per
/// workload and input seed.
struct Outputs {
  std::size_t total_faults = 0, conv_detected = 0, candidates = 0,
              processed = 0, proposed_extra = 0, baseline_extra = 0,
              baseline_only = 0, collection_capped_faults = 0;
  double avg_det = 0, avg_conf = 0, avg_extra = 0;
  std::string items_sha;  ///< digest of the per-fault records ("" = unseen)

  static Outputs of(const experiments::RunResult& r) {
    Outputs o;
    o.total_faults = r.total_faults;
    o.conv_detected = r.conv_detected;
    o.candidates = r.candidates;
    o.processed = r.processed;
    o.proposed_extra = r.proposed_extra;
    o.baseline_extra = r.baseline_extra;
    o.baseline_only = r.baseline_only;
    o.collection_capped_faults = r.collection_capped_faults;
    o.avg_det = r.avg_det;
    o.avg_conf = r.avg_conf;
    o.avg_extra = r.avg_extra;
    return o;
  }
  bool same_counts(const Outputs& o) const {
    return total_faults == o.total_faults && conv_detected == o.conv_detected &&
           candidates == o.candidates && processed == o.processed &&
           proposed_extra == o.proposed_extra &&
           baseline_extra == o.baseline_extra &&
           baseline_only == o.baseline_only &&
           collection_capped_faults == o.collection_capped_faults &&
           avg_det == o.avg_det && avg_conf == o.avg_conf &&
           avg_extra == o.avg_extra;
  }
  void write(Json& j) const {
    j.open();
    j.key("total_faults").num(total_faults);
    j.key("conv_detected").num(conv_detected);
    j.key("candidates").num(candidates);
    j.key("processed").num(processed);
    j.key("proposed_extra").num(proposed_extra);
    j.key("baseline_extra").num(baseline_extra);
    j.key("baseline_only").num(baseline_only);
    j.key("collection_capped_faults").num(collection_capped_faults);
    j.key("avg_det").num(avg_det);
    j.key("avg_conf").num(avg_conf);
    j.key("avg_extra").num(avg_extra);
    if (!items_sha.empty()) j.key("items_sha").str(items_sha);
    j.close();
  }
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string items_digest(const std::vector<MotBatchItem>& items, bool baseline) {
  Sha256 h;
  for (const MotBatchItem& item : items) h.update(encode_journal_record(item, baseline));
  std::string hex;
  for (std::uint8_t b : h.finish()) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  return hex;
}

/// Reads a finished campaign journal back through CampaignJournal's own
/// validating loader and returns its records in fault order.
std::vector<MotBatchItem> journal_records(const std::string& path,
                                          const JournalMeta& meta,
                                          std::string& error) {
  std::vector<MotBatchItem> out;
  const auto j = CampaignJournal::open_resume(path, meta, error);
  if (!j) return out;
  for (std::size_t k = 0; k < meta.num_faults; ++k) {
    if (const MotBatchItem* item = j->lookup(k)) out.push_back(*item);
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
double fastest(const std::vector<double>& v) { return percentile(v, 0.0); }

// ----------------------------------------------------------------- campaign

struct Run {
  const Workload* w;
  std::size_t threads;
  fs::path work;
  experiments::RunConfig config(const std::string& journal_path) const {
    experiments::RunConfig cfg;
    cfg.mot.num_threads = threads;
    if (w->pair_cap > 0) cfg.mot.max_pairs = w->pair_cap;
    cfg.run_baseline = w->baseline;
    cfg.max_mot_faults = w->mot_cap;
    cfg.supervisor.workers = w->workers;
    cfg.journal_path = journal_path;
    return cfg;
  }
  std::string transport() const { return w->workers > 0 ? "fork" : "inprocess"; }
};

/// A fresh directory under the work dir, removed when the object dies.
class TempDir {
 public:
  TempDir(const fs::path& work, const std::string& tag)
      : path_(work / (tag + "-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter_++))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

struct CampaignRun {
  experiments::RunResult result;
  double seconds = 0;
  Outputs outputs;
  std::size_t journal_records = 0;
};

/// One untraced campaign through the public entry point. For the fork
/// workload the journal it wrote is read back: one record per processed
/// candidate, digested for the pin.
CampaignRun run_campaign(const Run& run, const Setup& s) {
  std::optional<TempDir> dir;
  if (run.w->workers > 0) dir.emplace(run.work, "campaign");
  const std::string jpath = dir ? (dir->path() / "campaign.journal").string() : "";
  const experiments::RunConfig cfg = run.config(jpath);
  CampaignRun out;
  const auto t0 = Clock::now();
  out.result = experiments::run_circuit(s.circuit(), s.test(), cfg);
  out.seconds = since(t0);
  if (!out.result.journal_error.empty()) throw std::runtime_error(out.result.journal_error);
  out.outputs = Outputs::of(out.result);
  if (dir) {
    const JournalMeta meta = make_journal_meta(
        s.circuit().name(), out.result.total_faults, s.test(), cfg.mot, cfg.run_baseline);
    std::string err;
    const auto records = journal_records(jpath, meta, err);
    if (!err.empty()) throw std::runtime_error("journal: " + err);
    out.journal_records = records.size();
    out.outputs.items_sha = items_digest(records, run.w->baseline);
  }
  return out;
}

std::size_t failed_ops(const experiments::RunResult& r) {
  return r.incomplete_faults + r.quarantined_faults + r.worker_lost_faults;
}

// -------------------------------------------------------------------- trace

struct Span {
  std::string name;
  double start, end;
  int parent;
};

/// In-memory span recorder; write() is called once, at exit.
class Tracer {
 public:
  int begin(const std::string& name, int parent = -1) {
    spans_.push_back({name, now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    spans_[id].end = now();
    return dur(id);
  }
  double dur(int id) const { return spans_[id].end - spans_[id].start; }
  /// Summed duration of `parent`'s direct children.
  double children(int parent) const {
    double s = 0;
    for (const Span& sp : spans_) {
      if (sp.parent == parent) s += sp.end - sp.start;
    }
    return s;
  }
  void write(const fs::path& path, const std::string& workload) const {
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Json j;
      j.open();
      j.key("id").num(i);
      j.key("name").str(spans_[i].name);
      j.key("start").num(spans_[i].start);
      j.key("end").num(spans_[i].end);
      j.key("parent").num(static_cast<double>(spans_[i].parent));
      j.key("workload").str(workload);
      j.close();
      out << j.text() << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path.string());
  }

 private:
  double now() const { return since(t0_); }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Table 2 / Table 3 aggregation, as run_circuit does it.
Outputs aggregate(const std::vector<MotBatchItem>& items, bool baseline) {
  Outputs o;
  EffectivenessCounters sum;
  for (const MotBatchItem& item : items) {
    if (!item.completed) continue;
    const bool bdet = baseline && item.baseline.detected;
    if (bdet) ++o.baseline_extra;
    if (item.mot.collection_capped) ++o.collection_capped_faults;
    if (item.mot.detected) {
      ++o.proposed_extra;
      sum += item.mot.counters;
    } else if (bdet) {
      ++o.baseline_only;
    }
  }
  if (o.proposed_extra > 0) {
    const double n = static_cast<double>(o.proposed_extra);
    o.avg_det = static_cast<double>(sum.n_det) / n;
    o.avg_conf = static_cast<double>(sum.n_conf) / n;
    o.avg_extra = static_cast<double>(sum.n_extra) / n;
  }
  return o;
}

struct TracedRun {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  Outputs outputs;
  std::size_t attempted = 0, failed = 0;
};

TracedRun traced(const Run& run, const Setup& s, Tracer& tr, std::size_t nproc,
                 double untraced_campaign_s) {
  const Workload& w = *run.w;
  const Circuit& c = s.circuit();
  const TestSequence& test = s.test();
  TracedRun out;
  auto metric = [&](const std::string& n, double v, const std::string& u) {
    out.metrics.push_back({n, v, u});
  };
  auto check = [&](const std::string& n, bool ok, const std::string& d = "") {
    out.checks.push_back({n, ok, d});
  };

  TempDir dir(run.work, "trace");
  const std::string jpath =
      w.workers > 0 ? (dir.path() / "campaign.journal").string() : "";
  const experiments::RunConfig cfg = run.config(jpath);

  // --- the campaign, layer by layer in run_circuit's order -----------------
  const int campaign = tr.begin("campaign");
  int sp = tr.begin("fault.collapse", campaign);
  const std::vector<Fault> faults = collapsed_fault_list(c);
  metric("fault.collapse_s", tr.end(sp), "s");

  std::unique_ptr<CampaignJournal> journal;
  const JournalMeta meta =
      make_journal_meta(c.name(), faults.size(), test, cfg.mot, cfg.run_baseline);
  if (!jpath.empty()) {
    sp = tr.begin("faultsim.checkpoint.create", campaign);
    std::string err;
    journal = CampaignJournal::create(jpath, meta, err);
    tr.end(sp);
    if (!journal) throw std::runtime_error("journal: " + err);
  }

  sp = tr.begin("sim.fault_free", campaign);
  const SequentialSimulator sim(c, cfg.mot.kernel);
  const SeqTrace good = sim.run_fault_free(test, /*keep_lines=*/true);
  metric("sim.fault_free_s", tr.end(sp), "s");

  sp = tr.begin("faultsim.parallel.run", campaign);
  const ParallelFaultSimulator pfs(c);
  const std::vector<ConvOutcome> conv = pfs.run(test, good, faults, run.threads);
  const double prepass_s = tr.end(sp);

  sp = tr.begin("candidates", campaign);
  std::vector<std::size_t> candidates;
  std::size_t conv_detected = 0;
  for (std::size_t k = 0; k < faults.size(); ++k) {
    if (conv[k].detected) {
      ++conv_detected;
    } else if (conv[k].passes_c) {
      candidates.push_back(k);
    }
  }
  const std::size_t n_candidates = candidates.size();
  if (w.mot_cap > 0 && candidates.size() > w.mot_cap) candidates.resize(w.mot_cap);
  tr.end(sp);

  std::vector<MotBatchItem> items;
  SupervisorStats sup_stats;
  double mot_s = 0;
  SupervisorOptions sup;
  sup.workers = w.workers > 0 ? w.workers : 2;
  if (w.workers > 0) {
    sp = tr.begin("faultsim.supervisor.run", campaign);
    items = SupervisedMotRunner(c, cfg.mot, w.baseline, sup)
                .run(test, good, faults, candidates, journal.get(), nullptr, &sup_stats);
    mot_s = tr.end(sp);
  } else {
    sp = tr.begin("faultsim.batch.run", campaign);
    items = MotBatchRunner(c, cfg.mot, w.baseline)
                .run(test, good, faults, candidates, nullptr, nullptr);
    mot_s = tr.end(sp);
  }

  sp = tr.begin("aggregate", campaign);
  out.outputs = aggregate(items, w.baseline);
  tr.end(sp);
  const double campaign_s = tr.end(campaign);
  journal.reset();

  out.outputs.total_faults = faults.size();
  out.outputs.conv_detected = conv_detected;
  out.outputs.candidates = n_candidates;
  out.outputs.processed = candidates.size();
  out.outputs.items_sha = items_digest(items, w.baseline);
  out.attempted = candidates.size();
  for (const MotBatchItem& item : items) {
    if (!item.completed || !item.error.empty()) ++out.failed;
  }
  out.failed += sup_stats.lost_faults;

  metric("faultsim.parallel.run_s", prepass_s, "s");
  metric("faultsim.parallel.faults_per_s", static_cast<double>(faults.size()) / prepass_s, "1/s");
  metric("faultsim.parallel.conv_detected", static_cast<double>(conv_detected), "count");
  metric("faultsim.parallel.candidates", static_cast<double>(n_candidates), "count");
  metric("trace.campaign_s", campaign_s, "s");
  metric("trace.overhead_s", campaign_s - untraced_campaign_s, "s");
  metric("trace.unattributed_s", campaign_s - tr.children(campaign), "s");
  metric("trace.prepass_share", prepass_s / campaign_s, "ratio");
  metric("trace.mot_share", mot_s / campaign_s, "ratio");

  if (w.workers > 0) {
    std::string err;
    const auto records = journal_records(jpath, meta, err);
    check("journal_readable", err.empty(), err);
    check("journal_records_eq_processed", records.size() == candidates.size(),
          std::to_string(records.size()) + " records, " +
              std::to_string(candidates.size()) + " processed");
    check("journal_eq_merged", records == items);
  }

  // --- the other MOT runner on the same candidates -------------------------
  // The batch runner (1 thread) on the fork workload, the forked supervisor
  // (2 workers, no journal) on the in-process ones: every traced run measures
  // both layers and checks that they merge to identical items.
  double batch_s = mot_s;
  double supervisor_s = mot_s;
  if (w.workers > 0) {
    MotOptions serial = cfg.mot;
    serial.num_threads = 1;
    sp = tr.begin("faultsim.batch.run");
    const auto inproc = MotBatchRunner(c, serial, w.baseline)
                            .run(test, good, faults, candidates, nullptr, nullptr);
    batch_s = tr.end(sp);
    check("merged_eq_inprocess", inproc == items);
  } else {
    sp = tr.begin("faultsim.supervisor.run");
    const auto forked = SupervisedMotRunner(c, cfg.mot, w.baseline, sup)
                            .run(test, good, faults, candidates, nullptr, nullptr, &sup_stats);
    supervisor_s = tr.end(sp);
    check("supervisor_eq_batch", forked == items);
  }
  metric("faultsim.batch.run_s", batch_s, "s");
  metric("faultsim.batch.faults_per_s", static_cast<double>(candidates.size()) / batch_s, "1/s");
  metric("faultsim.batch.processed", static_cast<double>(candidates.size()), "count");

  // --- thread-pool speedup of the pre-pass ---------------------------------
  // 1 thread against nproc threads, reusing the campaign's own pre-pass.
  bool same_conv = true;
  auto prepass_at = [&](std::size_t threads) {
    if (threads == run.threads) return prepass_s;
    const int id = tr.begin("faultsim.parallel.run");
    const std::vector<ConvOutcome> again = pfs.run(test, good, faults, threads);
    const double d = tr.end(id);
    for (std::size_t k = 0; k < conv.size(); ++k) {
      same_conv = same_conv && conv[k].detected == again[k].detected &&
                  conv[k].passes_c == again[k].passes_c;
    }
    return d;
  };
  const double t1 = prepass_at(1);
  const double tn = prepass_at(nproc);
  check("prepass_thread_invariant", same_conv);
  metric("util.thread_pool.prepass_speedup", t1 / tn, "ratio");
  metric("util.thread_pool.prepass_1t_s", t1, "s");
  metric("util.thread_pool.prepass_nt_s", tn, "s");

  // --- per-fault pass: in-process, 1 thread, each engine called directly ---
  ConventionalFaultSimulator conv_sim(c, cfg.mot.kernel);
  BackwardCollector collector(c, cfg.mot);
  MotFaultSimulator proposed(c, cfg.mot);
  ExpansionBaseline baseline(c, cfg.mot);
  double conv_s = 0, collect_s = 0, proposed_s = 0, baseline_s = 0;
  std::size_t pairs = 0, capped = 0, by_check = 0, expansions = 0,
              phase1 = 0, detected = 0, aborted = 0;
  std::uint64_t work = 0;
  std::vector<double> fault_ms;
  std::vector<MotBatchItem> direct;
  const int pass = tr.begin("per_fault_pass");
  for (const std::size_t k : candidates) {
    const Fault& f = faults[k];
    const int fs_id = tr.begin("fault", pass);
    sp = tr.begin("faultsim.conventional.trace", fs_id);
    SeqTrace faulty = conv_sim.simulate_fault(test, f, /*keep_lines=*/true, &good);
    conv_s += tr.end(sp);

    sp = tr.begin("mot.collector.collect", fs_id);
    const CollectionResult cr = collector.collect(good, faulty, FaultView(c, f));
    collect_s += tr.end(sp);
    pairs += cr.pairs.size();
    capped += cr.capped ? 1 : 0;
    by_check += cr.detected_by_check ? 1 : 0;

    MotBatchItem item;
    item.fault_index = k;
    proposed.reseed_selection(per_fault_selection_seed(cfg.mot.selection_seed, k));
    sp = tr.begin("mot.proposed.simulate", fs_id);
    item.mot = proposed.simulate_fault(test, good, f, faulty);
    const double d = tr.end(sp);
    proposed_s += d;
    fault_ms.push_back(d * 1e3);
    expansions += item.mot.expansions;
    phase1 += item.mot.phase1_pairs;
    work += item.mot.work_used;
    detected += item.mot.detected ? 1 : 0;

    baseline.reseed_selection(per_fault_selection_seed(~cfg.mot.selection_seed, k));
    sp = tr.begin("mot.baseline.simulate", fs_id);
    const BaselineResult b = baseline.simulate_fault(test, good, f, faulty);
    baseline_s += tr.end(sp);
    aborted += b.aborted ? 1 : 0;
    if (w.baseline) item.baseline = b;
    tr.end(fs_id);
    direct.push_back(std::move(item));
  }
  tr.end(pass);
  check("direct_eq_campaign", direct == items);

  const double n = std::max<double>(1.0, static_cast<double>(candidates.size()));
  metric("faultsim.conventional.trace_s", conv_s, "s");
  metric("mot.collector.collect_s", collect_s, "s");
  metric("mot.collector.pairs", static_cast<double>(pairs), "count");
  metric("mot.collector.capped_faults", static_cast<double>(capped), "count");
  metric("mot.collector.check_resolved_frac", static_cast<double>(by_check) / n, "ratio");
  metric("mot.proposed.simulate_s", proposed_s, "s");
  metric("mot.proposed.expand_self_s", proposed_s - collect_s, "s");
  metric("mot.proposed.expansions", static_cast<double>(expansions), "count");
  metric("mot.proposed.phase1_pairs", static_cast<double>(phase1), "count");
  metric("mot.proposed.work_units", static_cast<double>(work), "count");
  metric("mot.proposed.detected_frac", static_cast<double>(detected) / n, "ratio");
  metric("mot.proposed.fault_ms_p50", percentile(fault_ms, 0.5), "ms");
  metric("mot.proposed.fault_ms_p90", percentile(fault_ms, 0.9), "ms");
  metric("mot.proposed.fault_ms_max", percentile(fault_ms, 1.0), "ms");
  metric("mot.baseline.simulate_s", baseline_s, "s");
  metric("mot.baseline.aborted", static_cast<double>(aborted), "count");

  // --- journal appends, timed on a journal of this program's own --------
  {
    const std::string path = (dir.path() / "appends.journal").string();
    sp = tr.begin("faultsim.checkpoint.appends");
    std::string err;
    auto j = CampaignJournal::create(path, meta, err);
    if (!j) throw std::runtime_error("journal: " + err);
    std::vector<double> append_ms;
    double append_s = 0;
    bool appended = true;
    for (const MotBatchItem& item : direct) {
      const int a = tr.begin("faultsim.checkpoint.append", sp);
      appended = j->append(item) && appended;
      const double d = tr.end(a);
      append_s += d;
      append_ms.push_back(d * 1e3);
    }
    j.reset();
    tr.end(sp);
    check("journal_appends_ok", appended);
    metric("faultsim.checkpoint.appends", static_cast<double>(direct.size()), "count");
    metric("faultsim.checkpoint.append_s", append_s, "s");
    metric("faultsim.checkpoint.append_ms_p90", percentile(append_ms, 0.9), "ms");
    metric("faultsim.checkpoint.bytes", static_cast<double>(fs::file_size(path)), "B");
  }

  const std::size_t workers = sup.workers;
  metric("faultsim.supervisor.run_s", supervisor_s, "s");
  metric("faultsim.supervisor.worker_deaths", static_cast<double>(sup_stats.worker_deaths), "count");
  metric("faultsim.supervisor.requeued_faults", static_cast<double>(sup_stats.requeued_faults), "count");
  // The supervisor runs the [4] baseline only when the workload does.
  const double per_fault_s = conv_s + proposed_s + (w.baseline ? baseline_s : 0.0);
  metric("faultsim.supervisor.overhead_ratio",
         supervisor_s * static_cast<double>(workers) / per_fault_s, "ratio");
  return out;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  fs::path inputs = "perfbench/inputs";
  fs::path work = ".bench_build/work";
  std::string commit = "unknown";
  std::string generate_hitec;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--inputs") a.inputs = value();
    else if (k == "--work") a.work = value();
    else if (k == "--commit") a.commit = value();
    else if (k == "--generate-hitec") a.generate_hitec = value();
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

int generate_hitec(const std::string& path) {
  const Circuit c =
      parse_or_throw(write_bench(circuits::build_benchmark("s5378")), "s5378");
  const std::string text = hitec_text(
      c, HitecLikeParams{}.max_length,
      "# Regenerate: python3 perfbench/run.py --generate-hitec perfbench/inputs/" + std::string(kHitecFile) + "\n");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cout << sha256_hex(text) << "  " << path << '\n';
  return 0;
}

int bench(const Args& a) {
  const Workload& w = find_workload(a.workload, a.smoke);
  const std::size_t nproc = host_cpus();
  const std::size_t threads = w.threads > 0 ? w.threads : nproc;
  const std::uint64_t input_seed = w.vectors > 0 ? a.seed % kInputFamily : 0;
  const Inputs in = make_inputs(w, input_seed, a.smoke, a.inputs);
  const Run run{&w, threads, a.work};
  fs::create_directories(a.work);

  std::vector<Check> checks;
  Tracer tr;

  // Set-up is pure, so setup_s is the fastest of many repeated set-ups. They
  // run in rounds spread over the whole run (one before the first campaign
  // and one after each). On a shared host the CPU switches between a fast
  // and a slow speed every few seconds; a median of millisecond set-ups
  // measures the share of slow periods, the fastest one the code.
  std::vector<double> setup_s, parse_s, levelize_s, pattern_s;
  Setup s;
  auto setup_round = [&](int n) {
    for (int r = 0; r < n; ++r) {
      Setup fresh;
      SetupTimes t;
      const int sp = a.trace ? tr.begin("setup") : -1;
      set_up(in, setup_s.empty() ? s : fresh, t);
      if (a.trace) tr.end(sp);
      setup_s.push_back(t.total());
      parse_s.push_back(t.parse_s);
      levelize_s.push_back(t.levelize_s);
      pattern_s.push_back(t.pattern_s);
    }
  };
  setup_round(kSetupRound);

  Json j;
  j.open();
  j.key("config").open();
  j.key("workload").str(w.name);
  j.key("seed").num(static_cast<std::size_t>(a.seed));
  j.key("input_seed").num(static_cast<std::size_t>(input_seed));
  j.key("input_family").num(static_cast<std::size_t>(w.vectors > 0 ? kInputFamily : 1));
  j.key("smoke").boolean(a.smoke);
  j.key("circuit").str(w.circuit);
  j.key("vectors").num(s.test().length());
  j.key("mot_cap").num(w.mot_cap);
  j.key("pair_cap").num(w.pair_cap);
  j.key("baseline").boolean(w.baseline);
  j.key("nproc").num(nproc);
  j.key("threads").num(threads);
  j.key("workers").num(w.workers);
  j.key("transport").str(run.transport());
  j.key("build_type").str(MOTBENCH_BUILD_TYPE);
  j.key("git_commit").str(a.commit);
  j.key("trace").boolean(a.trace);
  j.close();

  std::vector<double> campaign_s;
  std::vector<double> faults_per_s;
  std::size_t attempted = 0, failed = 0;
  Outputs outputs;
  const auto run_start = Clock::now();
  auto record = [&](const CampaignRun& cr) {
    if (campaign_s.empty()) {
      outputs = cr.outputs;
    } else if (!(cr.outputs.same_counts(outputs) && cr.outputs.items_sha == outputs.items_sha)) {
      checks.push_back({"repeats_agree", false, "campaign outputs differ between repeats"});
    }
    if (w.workers > 0) {
      checks.push_back({"journal_records_eq_processed",
                        cr.journal_records == cr.result.processed,
                        std::to_string(cr.journal_records) + " records"});
    }
    campaign_s.push_back(cr.seconds);
    faults_per_s.push_back(static_cast<double>(cr.result.total_faults) / cr.seconds);
    attempted += cr.result.processed;
    failed += failed_ops(cr.result);
  };

  if (!a.trace) {
    // Whole campaigns back to back, as many as bring the measured time
    // nearest to --seconds (at least one); the figures are their medians.
    do {
      record(run_campaign(run, s));
      setup_round(kSetupRound);
    } while (since(run_start) + median(campaign_s) / 2 <= a.seconds);
    j.key("outputs");
    outputs.write(j);
    j.key("campaign_s").open_list();
    for (double v : campaign_s) j.num(v);
    j.close_list();
    j.key("faults_per_s").open_list();
    for (double v : faults_per_s) j.num(v);
    j.close_list();
    j.key("setup_s").open_list();
    for (double v : setup_s) j.num(v);
    j.close_list();
    j.key("peak_rss_mb").num(peak_rss_mb());
  } else {
    const int sp = tr.begin("untraced_campaign");
    const CampaignRun untraced = run_campaign(run, s);
    tr.end(sp);
    record(untraced);
    TracedRun t = traced(run, s, tr, nproc, untraced.seconds);
    const bool agree = t.outputs.same_counts(outputs);
    checks.push_back({"traced_eq_untraced", agree, ""});
    if (!outputs.items_sha.empty() && outputs.items_sha != t.outputs.items_sha) {
      checks.push_back({"traced_items_eq_journal", false, ""});
    }
    checks.insert(checks.end(), t.checks.begin(), t.checks.end());
    attempted += t.attempted;
    failed += t.failed;
    j.key("outputs");
    t.outputs.write(j);
    t.metrics.insert(t.metrics.begin(),
                     {{"netlist.parse_s", fastest(parse_s), "s"},
                      {"netlist.levelize_s", fastest(levelize_s), "s"},
                      {"sim.pattern_parse_s", fastest(pattern_s), "s"}});
    j.key("layers").open();
    for (const Metric& m : t.metrics) {
      j.key(m.name).open();
      j.key("value").num(m.value);
      j.key("unit").str(m.unit);
      j.close();
    }
    j.close();
    const fs::path trace_file = a.work.parent_path() / "traces" /
                                (std::string(w.name) + "-seed" + std::to_string(a.seed) + ".jsonl");
    tr.write(trace_file, w.name);
    j.key("trace_file").str(trace_file.string());
  }

  j.key("attempted").num(attempted);
  j.key("failed").num(failed);
  j.key("checks").open_list();
  for (const Check& c : checks) {
    j.open();
    j.key("name").str(c.name);
    j.key("ok").boolean(c.ok);
    j.key("detail").str(c.detail);
    j.close();
  }
  j.close_list();
  j.close();
  std::cout << j.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.generate_hitec.empty()) return generate_hitec(a.generate_hitec);
    if (a.workload.empty()) throw std::runtime_error("--workload is required");
    return bench(a);
  } catch (const std::exception& e) {
    std::cerr << "motbench: " << e.what() << '\n';
    return 2;
  }
}
