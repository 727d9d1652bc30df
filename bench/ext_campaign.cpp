// Extension E2 — randomized test campaigns: quantify how TRANSIENT each
// case-study bug is (trigger rate across seeds) versus how reliably
// Sentomist surfaces it when it does fire (top-k detection rate).
//
// Grid mode (default): each case runs serially and fanned out over --jobs
// pool workers — both to measure the multi-core speedup and to check,
// every time, that parallel campaigns produce bit-identical CampaignStats.
// Timing is warmup + median-of---reps with a per-phase breakdown (setup /
// simulate / trace / analyze wall seconds, read from the obs registry
// timers as the difference between snapshots taken around each timed
// leg), so the speedup claims in BENCH_campaign.json are stable and
// attributable.
//
// Scale mode (--scale N): one N-run chaos campaign (the amortized campaign
// engine's headline, DESIGN.md §15) through three legs — serial pooled,
// --jobs pooled, and --jobs with fresh per-run construction — asserting
// CampaignStats AND merged obs snapshots are bit-identical across all
// three, and reporting speedup / efficiency against min(jobs,
// hardware_threads). Every leg's snapshot must count exactly N campaign
// runs. --min-efficiency gates it for CI; --stats-out writes cmp(1)-able
// stats_json files for the serial and parallel legs.
//
// Durable mode (DESIGN.md §13): with --journal PATH the driver instead
// runs ONE campaign of the case picked by --case, journaling every
// outcome; --resume skips already-journaled seeds, --retries bounds the
// retry policy, and --kill-after N SIGKILLs the process after N journal
// appends (the crash-resume smoke in scripts/tier1.sh). The --json output
// in this mode is the deterministic stats_json, so a killed-then-resumed
// campaign's file cmp(1)s byte-identical against an uninterrupted run's.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs_flags.hpp"
#include "obs/metrics.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/worker_pool.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace sent;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() % 2 ? v[v.size() / 2]
                      : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
}

/// Wall seconds per pipeline phase, summed over timed legs. Each leg adds
/// what the registry timers (DESIGN.md §11) gained between a snapshot
/// taken before it and one taken after it.
struct Phases {
  double setup = 0.0;     ///< sim.setup_ns: world construction
  double simulate = 0.0;  ///< sim.drain_ns: event-loop drain
  double trace = 0.0;     ///< trace.round_trip_ns: chaos trace I/O
  double analyze = 0.0;   ///< pipeline.analyze_ns: Sentomist back end
  double run = 0.0;       ///< campaign.run_ns: whole runs
  std::uint64_t runs = 0;

  void add_leg(const obs::Snapshot& before, const obs::Snapshot& after) {
    auto delta = [&](const char* timer) {
      const obs::HistogramData* a = after.timer_data(timer);
      const obs::HistogramData* b = before.timer_data(timer);
      return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0)) * 1e-9;
    };
    setup += delta("sim.setup_ns");
    simulate += delta("sim.drain_ns");
    trace += delta("trace.round_trip_ns");
    analyze += delta("pipeline.analyze_ns");
    run += delta("campaign.run_ns");
    runs += after.counter_value("campaign.runs") -
            before.counter_value("campaign.runs");
  }

  /// Share of run time no phase timer covers.
  double unattributed_frac() const {
    return run > 0.0 ? 1.0 - (setup + simulate + trace + analyze) / run
                     : 0.0;
  }
};

/// One timed campaign with its wall seconds and phase split recorded.
pipeline::CampaignStats timed_campaign(
    const pipeline::ScenarioRunnerFactory& factory,
    const pipeline::CampaignOptions& options, std::vector<double>& secs,
    Phases& phases) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  pipeline::CampaignStats stats = pipeline::run_campaign(factory, options);
  secs.push_back(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  phases.add_leg(before, obs::Registry::global().snapshot());
  return stats;
}

void print_phases(const char* label, const Phases& p) {
  std::printf("  %-22s setup %.3fs, simulate %.3fs, trace %.3fs, "
              "analyze %.3fs, unattributed %.1f%% (%llu runs)\n",
              label, p.setup, p.simulate, p.trace, p.analyze,
              100.0 * p.unattributed_frac(),
              static_cast<unsigned long long>(p.runs));
}

void json_phases(std::ofstream& os, const Phases& p) {
  os << "{\"setup_seconds\": " << p.setup
     << ", \"simulate_seconds\": " << p.simulate
     << ", \"trace_seconds\": " << p.trace
     << ", \"analyze_seconds\": " << p.analyze << "}";
}

/// Durable-mode entry: one journaled (optionally resumed) campaign.
int run_durable(const util::Cli& cli, pipeline::CampaignOptions options,
                std::size_t jobs) {
  const std::string case_name = cli.get("case");
  if (case_name == "all") {
    std::fprintf(stderr,
                 "durable mode journals ONE campaign: pick --case I, II or "
                 "III\n");
    return 2;
  }

  options.threads = jobs;
  options.journal_path = cli.get("journal");
  options.resume = cli.get_switch("resume");
  options.max_retries = static_cast<std::size_t>(cli.get_int("retries"));
  options.journal_flush_every =
      static_cast<std::size_t>(cli.get_int("journal-flush"));
  options.harness_faults.kill_after_appends =
      static_cast<std::uint64_t>(cli.get_int("kill-after"));

  bench::section("Extension E2 (durable): journaled campaign");
  std::printf("case %s, %zu seeds, --jobs %zu, journal %s%s\n",
              case_name.c_str(), options.runs, jobs,
              options.journal_path.c_str(),
              options.resume ? " (resume)" : "");

  pipeline::CampaignStats stats = pipeline::run_campaign(
      pipeline::make_case_runner_factory(case_name, {}), options);
  std::printf("case %s: %s\n", case_name.c_str(),
              pipeline::summarize(stats).c_str());

  const std::string json_path = cli.get("json");
  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  os << pipeline::stats_json(stats);
  std::printf("deterministic stats written to %s\n", json_path.c_str());
  return 0;
}

struct CaseTiming {
  std::string name;
  std::size_t runs = 0;
  std::size_t reps = 0;
  double serial_seconds = 0.0;    ///< median over reps
  double parallel_seconds = 0.0;  ///< median over reps
  Phases serial_phases;    ///< summed over timed reps
  Phases parallel_phases;  ///< summed over timed reps
  bool identical = false;

  double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

/// Warmup (untimed, pages code and pool workers in), then `reps` timed
/// campaigns serial and parallel; medians land in the timing, every rep's
/// stats must stay bit-identical to the first serial rep.
CaseTiming run_both(const std::string& name, const char* printf_label,
                    const std::string& case_name,
                    pipeline::CampaignOptions options, std::size_t jobs,
                    std::size_t reps, std::size_t warmup_runs) {
  CaseTiming timing;
  timing.name = name;
  timing.runs = options.runs;
  timing.reps = reps;

  const pipeline::ScenarioRunnerFactory factory =
      pipeline::make_case_runner_factory(case_name, {});

  if (warmup_runs > 0) {
    pipeline::CampaignOptions w = options;
    w.runs = std::min(options.runs, warmup_runs);
    w.threads = jobs;
    (void)pipeline::run_campaign(factory, w);
  }

  pipeline::CampaignStats first;
  bool identical = true;
  std::vector<double> serial_secs, parallel_secs;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    options.threads = 1;
    pipeline::CampaignStats serial = timed_campaign(
        factory, options, serial_secs, timing.serial_phases);
    options.threads = jobs;
    pipeline::CampaignStats parallel = timed_campaign(
        factory, options, parallel_secs, timing.parallel_phases);

    if (rep == 0) first = serial;
    identical = identical && serial == first && parallel == first;
  }

  timing.serial_seconds = median(serial_secs);
  timing.parallel_seconds = median(parallel_secs);
  timing.identical = identical;
  std::printf("%s %s\n", printf_label, pipeline::summarize(first).c_str());
  print_phases("serial phases:", timing.serial_phases);
  if (!timing.identical)
    std::printf("  !! parallel (--jobs %zu) stats DIVERGED from serial\n",
                jobs);
  return timing;
}

bool write_json(const std::string& path, std::size_t jobs,
                const std::vector<CaseTiming>& timings) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::size_t hw = util::ThreadPool::hardware_threads();
  double serial_total = 0.0, parallel_total = 0.0;
  os << "{\n  \"jobs\": " << jobs << ",\n  \"hardware_threads\": " << hw
     << ",\n  \"effective_jobs\": " << std::min(jobs, hw)
     << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const CaseTiming& t = timings[i];
    serial_total += t.serial_seconds;
    parallel_total += t.parallel_seconds;
    os << "    {\"name\": \"" << t.name << "\", \"runs\": " << t.runs
       << ", \"reps\": " << t.reps
       << ", \"serial_seconds\": " << t.serial_seconds
       << ", \"parallel_seconds\": " << t.parallel_seconds
       << ", \"speedup\": " << t.speedup()
       << ", \"identical\": " << (t.identical ? "true" : "false")
       << ",\n     \"serial_phases\": ";
    json_phases(os, t.serial_phases);
    os << ",\n     \"parallel_phases\": ";
    json_phases(os, t.parallel_phases);
    os << "}" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  double speedup =
      parallel_total > 0.0 ? serial_total / parallel_total : 0.0;
  os << "  ],\n  \"total_serial_seconds\": " << serial_total
     << ",\n  \"total_parallel_seconds\": " << parallel_total
     << ",\n  \"speedup\": " << speedup << "\n}\n";
  return true;
}

// ---- scale mode -----------------------------------------------------------

/// One timed configuration (runner config × campaign options). Reps are
/// driven round-robin across all legs by the caller, so slow machine
/// drift (page cache, allocator arena growth, frequency scaling) lands
/// evenly on every leg instead of favoring whichever leg runs last —
/// back-to-back leg blocks were measurably biased by leg order.
struct ScaleLeg {
  pipeline::CaseRunnerConfig config;
  pipeline::CampaignOptions options;
  std::vector<double> secs;
  Phases phases;
  pipeline::CampaignStats stats;
  obs::Snapshot snapshot;
  double seconds = 0.0;  ///< median over reps

  ScaleLeg(const pipeline::CaseRunnerConfig& config,
           const pipeline::CampaignOptions& options)
      : config(config), options(options) {}
};

/// One timed campaign of `leg`; stats from the last rep (all reps are
/// bit-identical or the campaign itself is broken — checked by the caller
/// against the serial leg). The obs registry is reset before each rep so
/// the leg's snapshot covers exactly one campaign; what it held before is
/// added back afterwards, so the registry, and the --metrics file, still
/// cover the whole invocation as in grid mode.
void run_scale_rep(const std::string& case_name, ScaleLeg& leg) {
  obs::Registry& registry = obs::Registry::global();
  const obs::Snapshot earlier = registry.snapshot();
  registry.reset();
  leg.stats = timed_campaign(
      pipeline::make_case_runner_factory(case_name, leg.config),
      leg.options, leg.secs, leg.phases);
  leg.snapshot = registry.snapshot();
  registry.add(earlier);
}

int run_scale(const util::Cli& cli, pipeline::CampaignOptions options,
              std::size_t jobs) {
  const std::string case_name =
      cli.get("case") == "all" ? std::string("II") : cli.get("case");
  options.runs = static_cast<std::size_t>(cli.get_int("scale"));
  options.seed_batch = static_cast<std::size_t>(cli.get_int("batch"));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("reps"));
  const double intensity = cli.get_double("faults");
  const double min_efficiency = cli.get_double("min-efficiency");

  pipeline::CaseRunnerConfig pooled;
  pooled.intensity = intensity;
  pooled.event_budget =
      static_cast<std::uint64_t>(cli.get_int("cycle-budget"));
  pooled.trace_round_trip = intensity > 0.0;
  pipeline::CaseRunnerConfig fresh = pooled;
  fresh.pooled = false;

  bench::section("Extension E2 (scale): amortized chaos campaign");
  const std::size_t hw = util::ThreadPool::hardware_threads();
  const std::size_t effective = std::min(jobs, hw);
  std::printf("case %s, %zu runs, intensity %g, --jobs %zu "
              "(%zu hardware threads -> %zu effective), %zu rep(s)\n\n",
              case_name.c_str(), options.runs, intensity, jobs, hw,
              effective, reps);

  // Warmup: one small pooled campaign pages in code and pool workers.
  const std::size_t warmup_runs = std::min<std::size_t>(options.runs, 8);
  {
    pipeline::CampaignOptions w = options;
    w.runs = warmup_runs;
    w.threads = jobs;
    (void)pipeline::run_campaign(
        pipeline::make_case_runner_factory(case_name, pooled), w);
  }

  pipeline::CampaignOptions serial_opts = options;
  serial_opts.threads = 1;
  pipeline::CampaignOptions parallel_opts = options;
  parallel_opts.threads = jobs;

  ScaleLeg serial(pooled, serial_opts);
  ScaleLeg parallel(pooled, parallel_opts);
  ScaleLeg fresh_leg(fresh, parallel_opts);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    run_scale_rep(case_name, serial);
    run_scale_rep(case_name, parallel);
    run_scale_rep(case_name, fresh_leg);
  }
  for (ScaleLeg* leg : {&serial, &parallel, &fresh_leg})
    leg->seconds = median(leg->secs);

  std::printf("serial (pooled):    %.2fs  %s\n", serial.seconds,
              pipeline::summarize(serial.stats).c_str());
  print_phases("phases:", serial.phases);
  std::printf("--jobs %zu (pooled):  %.2fs\n", jobs, parallel.seconds);
  print_phases("phases:", parallel.phases);
  std::printf("--jobs %zu (fresh):   %.2fs (per-run construction, "
              "pre-pool path)\n",
              jobs, fresh_leg.seconds);
  print_phases("phases:", fresh_leg.phases);

  const bool stats_identical = serial.stats == parallel.stats &&
                               serial.stats == fresh_leg.stats;
  const bool obs_identical =
      serial.snapshot.deterministic_equal(parallel.snapshot) &&
      serial.snapshot.deterministic_equal(fresh_leg.snapshot);
  bool obs_counted = true;
  for (const ScaleLeg* leg : {&serial, &parallel, &fresh_leg})
    obs_counted = obs_counted &&
                  leg->snapshot.counter_value("campaign.runs") == options.runs;
  const double speedup = parallel.seconds > 0.0
                             ? serial.seconds / parallel.seconds
                             : 0.0;
  const double efficiency =
      effective > 0 ? speedup / static_cast<double>(effective) : 0.0;
  const double pool_gain = parallel.seconds > 0.0
                               ? fresh_leg.seconds / parallel.seconds
                               : 0.0;

  std::printf("\nstats bit-identical (serial == parallel == fresh): %s\n",
              stats_identical ? "yes" : "NO");
  std::printf("obs snapshots bit-identical:                       %s\n",
              obs_identical ? "yes" : "NO");
  std::printf("every leg's snapshot counts %zu campaign runs:     %s\n",
              options.runs, obs_counted ? "yes" : "NO");
  std::printf("speedup %.2fx over serial at --jobs %zu; efficiency %.2f "
              "of %zu effective core(s); pooled %.2fx vs fresh\n",
              speedup, jobs, efficiency, effective, pool_gain);

  // cmp(1)-able stats for the tier-1 scaling gate.
  const std::string stats_out = cli.get("stats-out");
  if (!stats_out.empty()) {
    for (const auto& [suffix, leg] :
         {std::pair<const char*, const ScaleLeg*>{"serial", &serial},
          {"parallel", &parallel}}) {
      std::string path = stats_out + "." + suffix + ".json";
      std::ofstream os(path);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      os << pipeline::stats_json(leg->stats);
    }
    std::printf("stats written to %s.{serial,parallel}.json\n",
                stats_out.c_str());
  }

  std::ofstream os(cli.get("json"));
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", cli.get("json").c_str());
    return 1;
  }
  os << "{\n  \"mode\": \"scale\",\n  \"case\": \"" << case_name
     << "\",\n  \"runs\": " << options.runs << ",\n  \"reps\": " << reps
     << ",\n  \"warmup_runs\": " << warmup_runs
     << ",\n  \"intensity\": " << intensity << ",\n  \"jobs\": " << jobs
     << ",\n  \"hardware_threads\": " << hw
     << ",\n  \"effective_jobs\": " << effective
     << ",\n  \"serial_seconds\": " << serial.seconds
     << ",\n  \"parallel_seconds\": " << parallel.seconds
     << ",\n  \"fresh_parallel_seconds\": " << fresh_leg.seconds
     << ",\n  \"speedup\": " << speedup
     << ",\n  \"efficiency\": " << efficiency
     << ",\n  \"pooled_vs_fresh\": " << pool_gain
     << ",\n  \"stats_identical\": "
     << (stats_identical ? "true" : "false")
     << ",\n  \"obs_identical\": " << (obs_identical ? "true" : "false")
     << ",\n  \"obs_counted\": " << (obs_counted ? "true" : "false")
     << ",\n  \"unattributed_frac\": " << serial.phases.unattributed_frac()
     << ",\n  \"serial_phases\": ";
  json_phases(os, serial.phases);
  os << ",\n  \"parallel_phases\": ";
  json_phases(os, parallel.phases);
  os << ",\n  \"fresh_phases\": ";
  json_phases(os, fresh_leg.phases);
  os << ",\n  \"triggered\": " << serial.stats.triggered
     << ",\n  \"failed\": " << serial.stats.failed
     << ",\n  \"timed_out\": " << serial.stats.timed_out << "\n}\n";
  std::printf("timing written to %s\n", cli.get("json").c_str());

  if (!stats_identical || !obs_identical || !obs_counted) return 1;
  if (min_efficiency > 0.0 && efficiency < min_efficiency) {
    std::fprintf(stderr,
                 "FAIL: efficiency %.2f below --min-efficiency %.2f\n",
                 efficiency, min_efficiency);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("runs", "seeds per case", "20");
  cli.add_flag("top-k", "detection cut-off", "5");
  cli.add_flag("first-seed", "first seed", "1");
  bench::add_jobs_flag(cli, "campaign worker threads");
  cli.add_flag("reps", "timed repetitions per leg (median reported)", "3");
  cli.add_flag("warmup", "untimed warmup seeds before timing, 0 = none",
               "4");
  cli.add_flag("batch",
               "seeds claimed per pool task (0 = auto, DESIGN.md §15)", "0");
  cli.add_flag("scale",
               "scale mode: run ONE chaos campaign of this many seeds "
               "through serial/parallel/fresh legs (0 = off)", "0");
  cli.add_flag("faults", "scale mode: fault intensity", "0.5");
  cli.add_flag("cycle-budget",
               "scale mode: watchdog event budget per run, 0 = unlimited",
               "50000000");
  cli.add_flag("min-efficiency",
               "scale mode: fail below this speedup / effective-cores "
               "ratio (0 = report only)", "0");
  cli.add_flag("stats-out",
               "scale mode: write cmp-able stats_json to "
               "PREFIX.{serial,parallel}.json", "");
  cli.add_flag("json", "timing output file", "BENCH_campaign.json");
  cli.add_flag("journal", "durable mode: run journal path (DESIGN.md §13)",
               "");
  cli.add_switch("resume", "durable mode: skip seeds already journaled");
  cli.add_flag("retries", "durable mode: bounded retries per failed seed",
               "0");
  cli.add_flag("journal-flush",
               "durable mode: per-worker journal append buffer size "
               "(1 = append-through)", "1");
  cli.add_flag("kill-after",
               "durable mode: SIGKILL self after N journal appends "
               "(crash-resume smoke)", "0");
  cli.add_flag("case",
               "case study to run: I, II, III, or all (durable mode needs "
               "a single case)", "all");
  bench::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ObsSession obs_session(cli);

  const std::string case_name = cli.get("case");
  if (!bench::check_case(case_name, {"I", "II", "III", "all"})) return 2;

  pipeline::CampaignOptions options;
  options.runs = static_cast<std::size_t>(cli.get_int("runs"));
  options.k = static_cast<std::size_t>(cli.get_int("top-k"));
  options.first_seed = static_cast<std::uint64_t>(cli.get_int("first-seed"));
  options.seed_batch = static_cast<std::size_t>(cli.get_int("batch"));
  std::size_t jobs = bench::parse_jobs(cli);

  if (!cli.get("journal").empty()) return run_durable(cli, options, jobs);
  // The timed legs read their phase split from the registry timers.
  obs::Registry::global().set_enabled(true);
  if (cli.get_int("scale") > 0) return run_scale(cli, options, jobs);

  const auto reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("reps")));
  const auto warmup = static_cast<std::size_t>(cli.get_int("warmup"));

  bench::section("Extension E2: randomized campaigns (trigger vs detect)");
  std::printf("jobs: %zu, %zu timed rep(s) per leg (median), warmup %zu "
              "seeds\n\n",
              jobs, reps, warmup);
  std::vector<CaseTiming> timings;
  const bool all = case_name == "all";

  if (all || case_name == "I")
    timings.push_back(run_both("case I (D=20ms, 10s)",
                               "case I  (D=20ms, 10s): ", "I", options, jobs,
                               reps, warmup));

  if (all || case_name == "II")
    timings.push_back(run_both("case II (20s)", "case II (20s):         ",
                               "II", options, jobs, reps, warmup));

  if (all || case_name == "III")
    timings.push_back(run_both("case III (9 nodes, 15s)",
                               "case III (9 nodes, 15s):", "III", options,
                               jobs, reps, warmup));

  double serial_total = 0.0, parallel_total = 0.0;
  bool all_identical = true;
  for (const CaseTiming& t : timings) {
    serial_total += t.serial_seconds;
    parallel_total += t.parallel_seconds;
    all_identical = all_identical && t.identical;
  }
  std::printf(
      "\nwall-clock medians: serial %.2fs, --jobs %zu %.2fs (speedup "
      "%.2fx); stats %s\n",
      serial_total, jobs, parallel_total,
      parallel_total > 0.0 ? serial_total / parallel_total : 0.0,
      all_identical ? "identical" : "DIVERGED");

  if (write_json(cli.get("json"), jobs, timings))
    std::printf("timing written to %s\n", cli.get("json").c_str());

  std::printf(
      "\nTrigger rate is a property of the workload (the bug's transience);"
      "\ndetection rate is the tool's contribution once a trace contains "
      "the symptom.\n");
  return all_identical ? 0 : 1;
}
