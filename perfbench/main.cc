// tapo_perfbench: runs one benchmark workload and prints its metrics.
//
//   tapo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-out PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays the same inputs single-threaded with a span around every call
// into a layer and prints the per-layer metrics. Either way the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit code is 0 when every correctness check passed, 1 when one failed and
// 2 on a usage or runtime error. README.md describes the workloads.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "pipeline.h"
#include "tcp/invariants.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "workload/runner.h"

namespace tapo::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kThreads = 4;

struct Workload {
  const char* name = "";
  bool diagnose = false;
  std::vector<ProfileChoice> mix;
  std::uint8_t service = 0;        // fleet record service index
  std::size_t threads = kThreads;  // simulate: ParallelRunner workers
  std::size_t batch_flows = 0;     // simulate: flows per timed batch
  std::size_t timed_batches = 0;   // simulate: distinct timed batches
  std::size_t warmup_flows = 0;    // simulate: set-up warm-up batch
  std::size_t traced_flows = 0;    // simulate: flows the traced run replays
  /// diagnose: flows of each mix entry but the last, which then adds flows
  /// until the capture holds packet_budget packets.
  std::vector<std::size_t> mix_flows = {};
  std::uint64_t packet_budget = 0;
  /// Seconds one round of the timed phase takes on the reference host;
  /// sets the fixed round count of a run (see timed_rounds).
  double round_seconds = 0.0;
};

std::vector<Workload> workloads() {
  using workload::Service;
  const auto cloud = workload::cloud_storage_profile();
  const auto download = workload::software_download_profile();
  const auto web = workload::web_search_profile();
  std::vector<Workload> w;
  w.push_back({.name = "cloud_storage",
               .mix = {{cloud, tcp::RecoveryMechanism::kNative}},
               .service = static_cast<std::uint8_t>(Service::kCloudStorage),
               .batch_flows = 1000,
               .timed_batches = 3,
               .warmup_flows = 1000,
               .traced_flows = 400,
               .round_seconds = 2.2});
  // One worker: with 4, the ordered merge's hand-offs between threads every
  // few tens of microseconds made wall throughput collapse to a half or a
  // third whenever the host stole time from one vCPU (3 of 10 runs in one
  // set), while cloud_storage's long flows rode it out.
  w.push_back({.name = "web_search_srto",
               .mix = {{web, tcp::RecoveryMechanism::kSrto}},
               .service = static_cast<std::uint8_t>(Service::kWebSearch),
               .threads = 1,
               .batch_flows = 10000,
               .timed_batches = 4,
               .warmup_flows = 10000,
               .traced_flows = 10000,
               .round_seconds = 1.2});
  // Most flows are short web searches; most packets belong to the cloud
  // bulk transfers, which fill the packet budget.
  w.push_back({.name = "pcap_live_diagnose",
               .diagnose = true,
               .mix = {{web, std::nullopt},
                       {download, std::nullopt},
                       {cloud, std::nullopt}},
               .mix_flows = {2400, 600},
               .packet_budget = 500'000,
               .round_seconds = 0.36});
  return w;
}

/// Diagnose capture arrival rate: this many arrivals per mean flow
/// duration keeps a few hundred flows open at once on the 3-profile mix.
constexpr double kArrivalsPerMeanDuration = 1000.0;

// ------------------------------------------------------------- measuring

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Restarts the kernel's resident-set high-water mark (VmHWM) at the
/// current RSS, so each timed unit's peak can be read on its own.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM in MiB: the peak RSS since the last reset_peak_rss(), or since
/// the process started.
double peak_rss_mib() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall and CPU seconds of one measured unit of work.
struct Meter {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();
  double wall() const { return since(wall0); }
  double cpu() const { return cpu_seconds() - cpu0; }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Moves the calling thread to the next CPU it may run on, one CPU per
/// call in turn, and restores its CPU mask on release() and destruction. A
/// single-threaded run rotated this way spreads its repetitions evenly
/// over every CPU: on a shared host one CPU can run slower than the others
/// for minutes.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Timings of the timed phase. Each distinct input (a batch, or the
/// diagnose capture) runs once per round, for a fixed number of rounds
/// (timed_rounds). Per input, the median wall time and the median CPU time
/// over its rounds count. On a shared host the speed of the same input
/// swings by 20-40 % from one repetition to the next, and the fastest
/// repetition depends on whether the run happened to catch a quiet moment:
/// on the same runs the per-input medians moved about half as much from
/// run to run as the per-input minimums. Start each run with start(),
/// which restarts the RSS high-water mark, and end it with add().
struct Timings {
  struct Input {
    std::uint64_t flows = 0;
    std::uint64_t pkts = 0;
    std::vector<double> walls;  // every round
    std::vector<double> cpus;   // every round
    double median_wall() const { return median(walls); }
    double median_cpu() const { return median(cpus); }
  };
  std::vector<Input> inputs;
  std::vector<double> run_flows_per_s;     // every run, for the printout
  std::vector<double> run_cpu_us_per_pkt;  // every run, for the printout
  std::vector<double> peak_rss_mb;         // every run
  double total_wall = 0.0;                 // every run

  explicit Timings(std::size_t n) : inputs(n) {}

  static Meter start() {
    reset_peak_rss();
    return Meter();
  }
  void add(std::size_t input, std::uint64_t flows, std::uint64_t pkts,
           const Meter& m) {
    const double wall = m.wall();
    const double cpu = m.cpu();
    Input& in = inputs[input];
    in.flows = flows;
    in.pkts = pkts;
    in.walls.push_back(wall);
    in.cpus.push_back(cpu);
    total_wall += wall;
    run_flows_per_s.push_back(static_cast<double>(flows) / wall);
    run_cpu_us_per_pkt.push_back(cpu * 1e6 / static_cast<double>(pkts));
    peak_rss_mb.push_back(peak_rss_mib());
  }
  std::size_t runs() const { return peak_rss_mb.size(); }

  double sum(double (Input::*field)() const) const {
    double total = 0.0;
    for (const Input& in : inputs) total += (in.*field)();
    return total;
  }
  double flows() const {
    double total = 0.0;
    for (const Input& in : inputs) total += static_cast<double>(in.flows);
    return total;
  }
  double pkts() const {
    double total = 0.0;
    for (const Input& in : inputs) total += static_cast<double>(in.pkts);
    return total;
  }
};

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed with the metrics but kept out of the JSON line.
  std::vector<Metric> notes;
  std::vector<std::string> errors;
  std::vector<std::string> failures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void error(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  /// Counts a tally's flows. A failed flow stays a valid measurement, but
  /// a wrong analysis makes the run incorrect.
  void count(const FlowTally& t) {
    attempted += t.flows;
    failed += t.failed;
    failures.insert(failures.end(), t.failures.begin(), t.failures.end());
    if (t.wrong_outputs != 0) {
      error(std::to_string(t.wrong_outputs) + " flows with a wrong analysis");
    }
  }
};

void print_report(const Report& r) {
  for (const auto& m : r.metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : r.notes) {
    std::printf("  %-34s %18.6f %s (printed only)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("flows attempted %llu, failed %llu (failed_share %.6f)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)));
  for (const auto& f : r.failures) std::printf("failed %s\n", f.c_str());
  for (const auto& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------ simulate workloads

/// The seed stream of a simulate workload: the first split seeds the set-up
/// warm-up batch, the following ones the distinct timed batches in order.
struct BatchSeeds {
  explicit BatchSeeds(std::uint64_t seed) : master(seed) {
    warmup = master.split_seed();
  }
  Rng master;
  std::uint64_t warmup = 0;
  std::uint64_t next() { return master.split_seed(); }
};

/// Flow ids in failure reports: batch * kFlowIdsPerBatch + flow index.
constexpr std::uint64_t kFlowIdsPerBatch = 1'000'000;

struct BatchResult {
  FlowTally tally;
  tapo::RunStats stats;
};

/// One closed-loop batch: ParallelRunner on `threads` workers into the
/// checking sink and the fleet record sink, then the fleet decode and
/// aggregation of the batch's records.
BatchResult run_batch(const Workload& w, std::uint64_t seed, std::size_t flows,
                      std::uint64_t batch, std::size_t threads, Report& report) {
  auto cfg = workload::ExperimentConfig{}
                 .with_profile(w.mix.front().profile)
                 .with_flows(flows)
                 .with_seed(seed);
  if (w.mix.front().recovery) cfg.with_recovery(*w.mix.front().recovery);
  BatchResult out;
  RecordStage records(w.service);
  CheckingSink sink(out.tally, records.sink(), batch * kFlowIdsPerBatch);
  workload::ParallelRunner runner(cfg, {.threads = threads, .progress = {}});
  out.stats = runner.run(sink);
  if (out.tally.flows != flows) {
    report.error("runner delivered " + std::to_string(out.tally.flows) +
                 " of " + std::to_string(flows) + " flows");
  }
  if (auto err = records.collect(out.tally.flows, nullptr)) report.error(*err);
  return out;
}

/// Prints the spread of one per-run figure.
void print_spread(const char* name, const std::vector<double>& v) {
  std::printf("%s per run min %.4g median %.4g max %.4g\n", name,
              *std::min_element(v.begin(), v.end()), median(v),
              *std::max_element(v.begin(), v.end()));
}

/// Adds the end-to-end metrics: median-of-repetitions throughput, CPU cost,
/// set-up time and peak RSS, and the request latency percentiles.
void add_end_to_end(Report& report, const Timings& t,
                    const std::vector<double>& setups,
                    const std::vector<double>& latency_ms) {
  std::printf("%zu inputs, %zu runs in %.1f s\n", t.inputs.size(), t.runs(),
              t.total_wall);
  print_spread("flows_per_s", t.run_flows_per_s);
  print_spread("cpu_us_per_pkt", t.run_cpu_us_per_pkt);
  print_spread("setup_s", setups);
  std::printf("latency samples (requests): %zu\n", latency_ms.size());
  if (latency_ms.size() < 1000) {
    report.error("fewer than 1000 latency samples for p99");
  }
  const double wall = t.sum(&Timings::Input::median_wall);
  report.add("flows_per_s", t.flows() / wall, "flows/s");
  report.add("pkts_per_s", t.pkts() / wall, "pkt/s");
  report.add("cpu_us_per_pkt", t.sum(&Timings::Input::median_cpu) * 1e6 / t.pkts(),
             "us/pkt");
  // The median per-run peak. On cloud_storage the lowest one is the run of
  // the batch whose largest flows happen to be smallest, and it moved 2.5
  // times as much from seed to seed as the median.
  report.add("peak_rss_mb", median(t.peak_rss_mb), "MiB");
  report.add("setup_s", median(setups), "s");
  report.add("sim_latency_ms_p50", percentile(latency_ms, 0.50), "sim_ms");
  // The p99 swings too much from seed to seed on the diagnose workload to
  // carry a bound; the traced run reports it as a per-layer metric.
  report.notes.push_back(
      {"sim_latency_ms_p99", percentile(latency_ms, 0.99), "sim_ms"});
}

/// Rounds every input runs at least, however short --seconds is.
constexpr int kMinRounds = 2;

/// Set-up repetitions. Like the timed inputs, the median one counts: a
/// single set-up of a fraction of a second is at the mercy of whatever the
/// host does in that moment. They are spread evenly over the timed
/// rounds (setup_due), so that their median draws on the same stretch of
/// host time as the timed inputs' rather than on the few seconds before.
constexpr int kSetupReps = 7;

/// Whether a set-up repetition starts round `round` of `rounds`: round 0
/// and then every rounds / kSetupReps rounds, at most one per round.
bool setup_due(int round, int rounds) {
  return round == 0 ||
         round * kSetupReps / rounds != (round - 1) * kSetupReps / rounds;
}

/// Wall seconds of `setup` in a child process forked for it. The child
/// takes its memory and CPU time with it: set-ups repeated in the benchmark
/// process leave the worker threads' malloc arenas holding memory that
/// malloc_trim cannot return, and peak_rss_mb would then depend on how many
/// set-ups ran and how their threads were scheduled. Call only while the
/// process runs a single thread, on its whole CPU mask.
template <typename SetupFn>
double setup_seconds(SetupFn setup) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
  std::fflush(stdout);  // the child must not print the parent's buffer
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("set-up: fork failed");
  if (pid == 0) {
    close(fds[0]);
    double wall = 0.0;
    try {
      const Meter m;
      setup();
      wall = m.wall();
    } catch (...) {
      _exit(1);
    }
    _exit(write(fds[1], &wall, sizeof wall) == sizeof wall ? 0 : 1);
  }
  close(fds[1]);
  double wall = 0.0;
  const ssize_t got = read(fds[0], &wall, sizeof wall);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof wall || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up: child process failed");
  }
  return wall;
}

/// Share of `seconds` left to the set-up repetitions, which run between
/// the timed rounds.
constexpr double kSetupShare = 0.2;

/// The timed phase runs a fixed number of rounds: as many as fill the rest
/// of `seconds` on the reference host, at least kMinRounds. The count does
/// not depend on how fast the program is, so a faster build gets no more
/// repetitions than a slower one. Only a host slowed far below the
/// reference one stops the phase early, at deadline(), to keep a run
/// inside its time limit.
int timed_rounds(const Workload& w, double seconds) {
  return std::max(kMinRounds, static_cast<int>(std::lround(
                                  (1.0 - kSetupShare) * seconds / w.round_seconds)));
}
double deadline(double seconds) { return std::min(1.25 * seconds, 100.0); }

/// Whether round `round` of `rounds` runs, started at `t0`.
bool next_round(int round, int rounds, Clock::time_point t0, double seconds) {
  if (round >= rounds) return false;
  if (round < kMinRounds || since(t0) < deadline(seconds)) return true;
  std::printf("timed phase stopped after %d of %d rounds at the %.0f s "
              "deadline\n",
              round, rounds, deadline(seconds));
  return false;
}

Report simulate_e2e(const Workload& w, std::uint64_t seed, double seconds) {
  Report report;
  std::vector<double> setups;
  auto setup = [&] {
    Report ignored;
    run_batch(w, BatchSeeds(seed).warmup, w.warmup_flows, 0, w.threads,
              ignored);
  };
  BatchSeeds seeds(seed);
  run_batch(w, seeds.warmup, w.warmup_flows, 0, w.threads, report);

  malloc_trim(0);  // set-up leaves its outputs behind, not its garbage
  std::vector<std::uint64_t> batch_seeds(w.timed_batches);
  for (std::uint64_t& b : batch_seeds) b = seeds.next();
  std::vector<std::uint64_t> digests(w.timed_batches);
  FlowTally first_round;  // latency, digest and counters of the inputs
  Timings timings(w.timed_batches);
  CpuRotation cpus;  // a single worker runs on each CPU in turn
  const int rounds = timed_rounds(w, seconds);
  const auto t0 = Clock::now();
  for (int round = 0; next_round(round, rounds, t0, seconds); ++round) {
    if (setup_due(round, rounds)) {
      cpus.release();
      setups.push_back(setup_seconds(setup));
    }
    for (std::size_t k = 0; k < w.timed_batches; ++k) {
      if (w.threads == 1) cpus.next();
      const Meter m = Timings::start();
      BatchResult r = run_batch(w, batch_seeds[k], w.batch_flows, k + 1,
                                w.threads, report);
      timings.add(k, r.tally.flows, r.tally.packets, m);
      if (round == 0) {
        digests[k] = r.tally.digest;
        first_round.merge(r.tally);
      } else if (r.tally.digest != digests[k]) {
        report.error("batch " + std::to_string(k + 1) + " digest changed on "
                     "a repeated run");
      }
      report.count(r.tally);
    }
  }
  std::printf("%s: %zu batches of %zu flows, %llu packets, analysis digest "
              "%s\n",
              w.name, w.timed_batches, w.batch_flows,
              static_cast<unsigned long long>(first_round.packets),
              hex(first_round.digest).c_str());
  add_end_to_end(report, timings, setups, first_round.latency_ms);
  return report;
}

// ------------------------------------------------------ diagnose workload

struct DiagnoseSetup {
  FlowTally tally;  // the simulated flows behind the capture
  Capture capture;
  double utilization = 0.0;
};

/// Upper bound on the flows of the mix entry that fills the packet budget.
constexpr std::size_t kMaxFillFlows = 100'000;

/// Fisher-Yates shuffle driven by the benchmark's own seeded Rng.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_double() * static_cast<double>(i));
    std::swap(v[i - 1], v[std::min(j, i - 1)]);
  }
}

/// The diagnose workload's input: a mix of all three profiles, each flow
/// with a distinct flow id, in a seeded random arrival order, shifted onto
/// a Poisson arrival schedule and written as one classic pcap in memory.
/// The fixed flow counts and the packet budget keep the capture's flow
/// count and size steady across seeds despite heavy-tailed flow sizes.
DiagnoseSetup diagnose_setup(const Workload& w, std::uint64_t seed,
                             std::size_t threads, SpanRecorder* rec) {
  Rng split(seed);
  DiagnoseSetup s;
  FlowGenerator gen(threads, rec);
  std::vector<GeneratedFlow> flows;
  std::size_t id_base = 0;
  for (std::size_t m = 0; m < w.mix.size(); ++m) {
    const bool fill = m + 1 == w.mix.size();
    const std::size_t n = fill ? kMaxFillFlows : w.mix_flows[m];
    const FlowStream stream{w.mix[m], workload::derive_flow_seeds(split.split_seed(), n),
                            id_base};
    if (!fill) {
      gen.generate(stream, 0, n, flows);
      id_base += n;
      continue;
    }
    std::uint64_t packets = 0;
    for (const GeneratedFlow& g : flows) packets += g.result.packets;
    // Parallel generation works in blocks and drops the overshoot; the
    // single-threaded traced run generates exactly the flows it keeps.
    const std::size_t block = threads > 1 ? 16 : 1;
    std::size_t keep = flows.size();
    for (std::size_t next = 0; packets < w.packet_budget;) {
      if (keep == flows.size()) {
        if (next + block > n) {
          throw std::runtime_error("diagnose set-up: packet budget not reached");
        }
        gen.generate(stream, next, block, flows);
        next += block;
      }
      packets += flows[keep++].result.packets;
    }
    flows.resize(keep);
  }
  s.utilization = gen.utilization();
  Rng arrivals(split.split_seed());
  shuffle(flows, arrivals);
  for (const GeneratedFlow& g : flows) {
    s.tally.add_simulated(g.result, g.result.index, g.span);
  }
  s.capture = build_capture(flows, arrivals.split_seed(), kArrivalsPerMeanDuration, rec);
  return s;
}

void check_pass(const DiagnoseResult& d, Report& report) {
  for (const auto& e : d.errors) report.error(e);
}

Report diagnose_e2e(const Workload& w, std::uint64_t seed, double seconds) {
  Report report;
  std::vector<double> setups;
  const DiagnoseSetup s = diagnose_setup(w, seed, kThreads, nullptr);
  malloc_trim(0);  // set-up leaves its outputs behind, not its garbage
  const Capture& cap = s.capture;
  std::printf("%s: %llu flows, %llu packets, %zu pcap bytes; open flows "
              "mean %.1f peak %zu\n",
              w.name, static_cast<unsigned long long>(cap.flows),
              static_cast<unsigned long long>(cap.packets), cap.pcap.size(),
              cap.mean_open_flows, cap.peak_open_flows);
  report.count(s.tally);

  Timings timings(1);
  std::uint64_t digest = 0;
  CpuRotation cpus;
  const int rounds = timed_rounds(w, seconds);
  const auto t0 = Clock::now();
  for (int round = 0; next_round(round, rounds, t0, seconds); ++round) {
    if (setup_due(round, rounds)) {
      cpus.release();
      setups.push_back(setup_seconds(
          [&] { diagnose_setup(w, seed, kThreads, nullptr); }));
    }
    cpus.next();
    const Meter m = Timings::start();
    DiagnoseResult d = diagnose(cap, nullptr);
    // Input flows, not finalized analyses: a flow the live analyzer split
    // counts once, so a change to splitting does not move throughput.
    timings.add(0, cap.flows, d.packets_read, m);
    check_pass(d, report);
    if (round == 0) {
      digest = d.tally.digest;
      std::printf("first pass: %llu flows finalized, %llu split, analysis "
                  "digest %s\n",
                  static_cast<unsigned long long>(d.flows_finalized),
                  static_cast<unsigned long long>(d.flows_split),
                  hex(digest).c_str());
    } else if (d.tally.digest != digest) {
      report.error("diagnose pass digest " + hex(d.tally.digest) +
                   " differs from the first pass's " + hex(digest));
    }
    report.count(d.tally);
  }
  add_end_to_end(report, timings, setups, s.tally.latency_ms);
  return report;
}

// ------------------------------------------------------------ traced run

/// What the traced run measured, turned into the per-layer metrics.
struct TracedRun {
  SpanRecorder rec;
  FlowTally sim;              // the simulated flows (tcp.* counters)
  DiagnoseResult diag;        // the traced diagnose pass
  std::uint64_t capture_packets = 0;
  std::uint64_t records_decoded = 0;
  double utilization = 0.0;
  /// CPU per packet of the same work untraced, single-threaded.
  double untraced_cpu_us_per_pkt = 0.0;
  double traced_cpu_us_per_pkt = 0.0;
  double telemetry_overhead = 0.0;
};

void per_layer_metrics(TracedRun& t, Report& report) {
  std::printf("traced latency samples (requests): %zu\n", t.sim.latency_ms.size());
  if (t.sim.latency_ms.size() < 1000) {
    report.error("fewer than 1000 latency samples for p99");
  }
  auto layers = t.rec.layers();
  auto per = [](double num, double den) { return ratio(num, den); };
  const auto pkts = static_cast<double>(t.sim.packets);
  const auto read_pkts = static_cast<double>(t.diag.packets_read);
  const LayerTotals& draw = layers["workload.draw_scenario"];
  const LayerTotals& sim = layers["sim.run_flow"];
  const LayerTotals& analyze = layers["tapo.analyze"];
  const LayerTotals& ingest = layers["tapo.live_ingest"];
  const LayerTotals& flush = layers["tapo.live_flush"];
  const LayerTotals& read = layers["pcap.read"];
  const LayerTotals& write = layers["pcap.write"];
  const LayerTotals& encode = layers["fleet.encode"];
  const LayerTotals& decode = layers["fleet.decode"];
  const LayerTotals& aggregate = layers["fleet.aggregate"];
  const tcp::SenderStats& s = t.sim.sender;
  const auto segs = static_cast<double>(s.segments_sent);

  report.add("workload.generate_us_per_flow",
             per(draw.self_ns / 1e3, static_cast<double>(draw.spans)), "us/flow");
  report.add("workload.runner_utilization", t.utilization, "ratio");
  report.add("workload.failed_share",
             per(static_cast<double>(report.failed),
                 static_cast<double>(report.attempted)), "ratio");
  report.add("sim.run_flow_ns_per_pkt", per(sim.self_ns, pkts), "ns/pkt");
  report.add("sim.allocs_per_pkt",
             per(static_cast<double>(sim.self_allocs.allocs), pkts), "allocs/pkt");
  report.add("sim.alloc_bytes_per_pkt",
             per(static_cast<double>(sim.self_allocs.bytes), pkts), "B/pkt");
  report.add("sim_latency_ms_p99", percentile(t.sim.latency_ms, 0.99), "sim_ms");
  report.add("sim.flow_ms_p50", percentile(sim.durations_ns, 0.50) / 1e6, "ms");
  report.add("sim.flow_ms_p99", percentile(sim.durations_ns, 0.99) / 1e6, "ms");
  report.add("tcp.retrans_share",
             per(static_cast<double>(s.retransmissions), segs), "ratio");
  report.add("tcp.rto_fires_per_kseg",
             per(1e3 * static_cast<double>(s.rto_fires), segs), "1/kseg");
  report.add("tcp.srto_probes_per_kseg",
             per(1e3 * static_cast<double>(s.srto_probes), segs), "1/kseg");
  report.add("tcp.srto_spurious_share",
             per(static_cast<double>(s.srto_spurious_probes),
                 static_cast<double>(s.srto_probes)), "ratio");
  report.add("tcp.persist_probes_per_kseg",
             per(1e3 * static_cast<double>(s.persist_probes), segs), "1/kseg");
  report.add("tcp.completed_share",
             per(static_cast<double>(t.sim.completed),
                 static_cast<double>(t.sim.flows)), "ratio");
  report.add("tapo.analyze_ns_per_pkt", per(analyze.self_ns, pkts), "ns/pkt");
  report.add("tapo.analyze_allocs_per_pkt",
             per(static_cast<double>(analyze.self_allocs.allocs), pkts),
             "allocs/pkt");
  report.add("tapo.analyze_alloc_bytes_per_pkt",
             per(static_cast<double>(analyze.self_allocs.bytes), pkts), "B/pkt");
  report.add("tapo.analyze_us_p99_flow",
             percentile(analyze.durations_ns, 0.99) / 1e3, "us");
  report.add("tapo.live_ingest_ns_per_pkt", per(ingest.self_ns, read_pkts),
             "ns/pkt");
  report.add("tapo.live_allocs_per_pkt",
             per(static_cast<double>(ingest.self_allocs.allocs +
                                     flush.self_allocs.allocs),
                 read_pkts), "allocs/pkt");
  report.add("tapo.live_flush_ms", flush.total_ns / 1e6, "ms");
  report.add("tapo.live_resident_peak_mb",
             static_cast<double>(t.diag.resident_peak_bytes) / (1024.0 * 1024.0),
             "MiB");
  report.add("tapo.stalls_per_kpkt",
             per(1e3 * static_cast<double>(t.sim.stalls), pkts), "1/kpkt");
  report.add("tapo.flows_split", static_cast<double>(t.diag.flows_split), "count");
  report.add("pcap.write_ns_per_pkt",
             per(write.total_ns, static_cast<double>(t.capture_packets)), "ns/pkt");
  report.add("pcap.read_ns_per_pkt", per(read.self_ns, read_pkts), "ns/pkt");
  report.add("pcap.read_allocs_per_pkt",
             per(static_cast<double>(read.self_allocs.allocs), read_pkts),
             "allocs/pkt");
  report.add("fleet.encode_ns_per_record",
             per(encode.self_ns, static_cast<double>(encode.spans)), "ns/record");
  report.add("fleet.record_bytes_per_flow",
             per(static_cast<double>(t.diag.record_bytes),
                 static_cast<double>(t.diag.tally.flows)), "B/flow");
  report.add("fleet.decode_ns_per_record",
             per(decode.total_ns, static_cast<double>(t.records_decoded)),
             "ns/record");
  report.add("fleet.aggregate_ns_per_record",
             per(aggregate.total_ns, static_cast<double>(t.records_decoded)),
             "ns/record");
  report.add("telemetry.overhead_share", t.telemetry_overhead, "ratio");
  report.add("trace.overhead_share",
             per(t.traced_cpu_us_per_pkt, t.untraced_cpu_us_per_pkt) - 1.0,
             "ratio");
}

void check_digest(const char* what, std::uint64_t traced, std::uint64_t e2e,
                  Report& report) {
  std::printf("%s digest: end-to-end %s, traced %s\n", what, hex(e2e).c_str(),
              hex(traced).c_str());
  if (traced != e2e) {
    report.error(std::string(what) + ": traced digest differs from the "
                 "end-to-end run's");
  }
}

/// CPU cost and analysis digest of one untraced pass over the traced
/// run's inputs.
struct Pass {
  double cpu_us_per_pkt = 0.0;
  std::uint64_t digest = 0;
};

/// Share by which the library's runtime telemetry (tracer and metrics on)
/// raises the CPU cost of `pass`: medians of three passes each way, off
/// and on alternating. Every pass must reproduce `digest`.
template <typename PassFn>
double telemetry_overhead(PassFn pass, std::uint64_t digest, Report& report) {
  std::vector<double> off, on;
  for (int i = 0; i < 3; ++i) {
    for (const bool enabled : {false, true}) {
      if (enabled) telemetry::enable_all();
      const Pass p = pass();
      if (enabled) telemetry::disable_and_reset_all();
      (enabled ? on : off).push_back(p.cpu_us_per_pkt);
      if (p.digest != digest) {
        report.error(std::string("analysis digest changed with telemetry ") +
                     (enabled ? "on" : "off"));
      }
    }
  }
  return median(on) / median(off) - 1.0;
}

/// Runs `pass` with the TCP invariant monitor on. The monitor only reads
/// protocol state, so the pass's outputs are those of an unmonitored one,
/// apart from the per-flow violation counts that FlowTally turns into
/// failures.
template <typename PassFn>
auto checked(PassFn pass) {
  tcp::InvariantMonitor::set_enabled(true);
  auto out = pass();
  tcp::InvariantMonitor::set_enabled(false);
  return out;
}

void simulate_traced(const Workload& w, std::uint64_t seed, TracedRun& t,
                     Report& report) {
  BatchSeeds seeds(seed);
  const std::uint64_t batch_seed = seeds.next();  // the first timed batch
  const std::size_t n = w.traced_flows;
  auto batch_pass = [&](std::size_t threads) {
    const Meter m;
    const BatchResult r = run_batch(w, batch_seed, n, 1, threads, report);
    return Pass{m.cpu() * 1e6 / static_cast<double>(r.tally.packets),
                r.tally.digest};
  };

  // End-to-end reference over the same flows, the untimed checking pass:
  // the TCP invariant monitor is on only here, so a flow with a violation
  // counts as failed while every timed pass runs the code the end-to-end
  // runs do. Its single-threaded twin is the baseline of the tracing
  // overhead.
  const BatchResult e2e = checked([&] {
    return run_batch(w, batch_seed, n, 1, w.threads, report);
  });
  t.utilization = e2e.stats.worker_utilization;
  report.count(e2e.tally);
  const Pass serial = batch_pass(1);
  t.untraced_cpu_us_per_pkt = serial.cpu_us_per_pkt;
  check_digest("single-threaded", serial.digest, e2e.tally.digest, report);

  // The same flows, single-threaded, one span per layer call.
  Meter replay_meter;
  std::vector<GeneratedFlow> flows;
  const FlowStream stream{w.mix.front(), workload::derive_flow_seeds(batch_seed, n), 0};
  FlowGenerator(1, &t.rec).generate(stream, 0, n, flows);
  for (const GeneratedFlow& g : flows) {
    t.sim.add_simulated(g.result, kFlowIdsPerBatch + g.result.index, g.span);
  }
  double replay_cpu = replay_meter.cpu();
  // Release the captures into the diagnose capture before the records
  // stage, which only reads the analyses.
  Capture cap = build_capture(flows, seed, kArrivalsPerMeanDuration, &t.rec);
  t.capture_packets = cap.packets;
  replay_meter = Meter();
  RecordStage records(w.service);
  for (GeneratedFlow& g : flows) {
    const SpanScope span(&t.rec, "fleet.encode", g.result.index);
    records.sink().consume(std::move(g.result));
  }
  if (auto err = records.collect(t.sim.flows, &t.rec)) report.error(*err);
  replay_cpu += replay_meter.cpu();
  t.records_decoded += t.sim.flows;
  t.traced_cpu_us_per_pkt = replay_cpu * 1e6 / static_cast<double>(t.sim.packets);
  check_digest("traced", t.sim.digest, e2e.tally.digest, report);

  // The operator path over the same traffic.
  t.diag = diagnose(cap, &t.rec);
  t.records_decoded += t.diag.tally.flows;
  check_pass(t.diag, report);
  report.count(t.diag.tally);

  t.telemetry_overhead = telemetry_overhead(
      [&] { return batch_pass(w.threads); }, e2e.tally.digest, report);
}

void diagnose_traced(const Workload& w, std::uint64_t seed, TracedRun& t,
                     Report& report) {
  // The end-to-end set-up is the untimed checking pass, with the TCP
  // invariant monitor on (see simulate_traced).
  DiagnoseSetup e2e_setup =
      checked([&] { return diagnose_setup(w, seed, kThreads, nullptr); });
  t.utilization = e2e_setup.utilization;
  report.count(e2e_setup.tally);
  DiagnoseSetup s = diagnose_setup(w, seed, 1, &t.rec);
  t.sim = s.tally;
  t.capture_packets = s.capture.packets;
  check_digest("set-up", s.tally.digest, e2e_setup.tally.digest, report);
  if (s.capture.pcap != e2e_setup.capture.pcap) {
    report.error("traced set-up wrote a different pcap than the end-to-end one");
  }
  e2e_setup = DiagnoseSetup();

  auto diagnose_pass = [&] {
    const Meter m;
    const DiagnoseResult d = diagnose(s.capture, nullptr);
    check_pass(d, report);
    return Pass{m.cpu() * 1e6 / static_cast<double>(d.packets_read),
                d.tally.digest};
  };
  const Pass e2e = diagnose_pass();
  t.untraced_cpu_us_per_pkt = e2e.cpu_us_per_pkt;

  const Meter traced_meter;
  t.diag = diagnose(s.capture, &t.rec);
  t.traced_cpu_us_per_pkt =
      traced_meter.cpu() * 1e6 / static_cast<double>(t.diag.packets_read);
  t.records_decoded += t.diag.tally.flows;
  check_pass(t.diag, report);
  check_digest("diagnose", t.diag.tally.digest, e2e.digest, report);
  report.count(t.diag.tally);

  t.telemetry_overhead = telemetry_overhead(diagnose_pass, e2e.digest, report);
}

void print_layers(const SpanRecorder& rec) {
  std::printf("traced run: %zu spans; self time by span name:\n", rec.size());
  const auto layers = rec.layers();
  double all_ns = 0.0;
  for (const auto& [name, l] : layers) all_ns += l.self_ns;
  for (const auto& [name, l] : layers) {
    std::printf("  %-24s %8llu spans %10.3f ms self (%5.1f%%) %12llu allocs\n",
                name.c_str(), static_cast<unsigned long long>(l.spans),
                l.self_ns / 1e6, 100.0 * ratio(l.self_ns, all_ns),
                static_cast<unsigned long long>(l.self_allocs.allocs));
  }
}

/// The traced run repeats its replay until `seconds` have passed, at least
/// this many times; each per-layer metric is the median over the replays.
constexpr int kMinTracedReps = 3;

Report traced(const Workload& w, std::uint64_t seed, double seconds,
              const std::string& spans_out) {
  Report report;
  std::vector<std::vector<double>> values;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kMinTracedReps || since(t0) < seconds; ++rep) {
    Report r;
    TracedRun t;
    if (w.diagnose) {
      diagnose_traced(w, seed, t, r);
    } else {
      simulate_traced(w, seed, t, r);
    }
    per_layer_metrics(t, r);
    if (rep == 0) {
      print_layers(t.rec);
      if (!spans_out.empty()) {
        if (t.rec.write_jsonl(spans_out)) {
          std::printf("spans written to %s\n", spans_out.c_str());
        } else {
          report.error("cannot write spans to " + spans_out);
        }
      }
      report.metrics = r.metrics;
      report.failures = r.failures;
      values.resize(r.metrics.size());
    }
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      values[i].push_back(r.metrics[i].value);
    }
    report.attempted += r.attempted;
    report.failed += r.failed;
    for (const auto& e : r.errors) report.error(e);
  }
  std::printf("%zu traced replays\n", values.empty() ? 0 : values[0].size());
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    report.metrics[i].value = median(values[i]);
  }
  return report;
}

// ------------------------------------------------------------------ main

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: tapo_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') {
    usage((std::string(flag) + " needs a non-negative integer").c_str());
  }
  return v;
}

int run(int argc, char** argv) {
  std::string name;
  std::string spans_out;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = parse_u64("--seed", value);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = parse_u64("--seconds", value);
    } else if (arg == "--trace") {
      trace = parse_u64("--trace", value);
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    usage("--seed, --seconds >= 1 and --trace 0|1 are required");
  }
  for (const Workload& w : workloads()) {
    if (name != w.name) continue;
    std::printf("workload %s, seed %llu, %s run\n", w.name,
                static_cast<unsigned long long>(seed),
                trace ? "traced" : "end-to-end");
    const Report report =
        trace ? traced(w, seed, static_cast<double>(seconds), spans_out)
        : w.diagnose ? diagnose_e2e(w, seed, static_cast<double>(seconds))
                     : simulate_e2e(w, seed, static_cast<double>(seconds));
    print_report(report);
    return report.correct ? 0 : 1;
  }
  usage(("unknown workload '" + name + "'").c_str());
}

}  // namespace
}  // namespace tapo::perfbench

int main(int argc, char** argv) {
  try {
    return tapo::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
