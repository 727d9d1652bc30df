// sentobench — the repository benchmark driver (perfbench/README.md).
//
//   sentobench --workload chaos-ii|fleet-ingest --seed N
//              --seconds S --trace 0|1 [--seed-offset M] [--smoke]
//              [--commit SHA] [--work-dir DIR]
//
// Every workload drives the public library APIs in a closed loop: chaos-ii
// calls pipeline::run_campaign over the production make_case_runner_factory
// runners, fleet-ingest offers pre-encoded frames to a stream::FleetIngest.
// Inputs are a pure function of --seed (plus --seed-offset); the program
// under test only ever sees the generated inputs.
//
// --trace 0 is the untraced pass: tracing off, end-to-end metrics only.
// --trace 1 runs the same untraced pass for half the time, then replays
// the same inputs with obs tracing on. The spans that src/ already records
// (pipeline.*, campaign.run) time the analysis and the campaign engine; the
// benchmark's own runners and producer loop wrap the remaining calls into
// a layer's public functions in an obs::Span (category "bench"). Per-layer
// self times come from those spans (read back from the obs::TraceLog
// export), per-layer counts from the obs::Registry snapshot. Before any
// traced number is trusted, the traced pass must reproduce the production
// outputs exactly (fidelity gate) and its layer self times must account
// for the traced wall time (attribution check). chaos-ii's traced pass
// also runs one journaled campaign and recovers its journal.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error, 3 when the build is not an optimized, sanitizer-free tree.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "core/anatomizer.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "os/irq.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/journal.hpp"
#include "pipeline/worker_pool.hpp"
#include "stream/ingest.hpp"
#include "trace/framing.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SENTOBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define SENTOBENCH_SANITIZED 1
#endif
#endif
#ifndef SENTOBENCH_SANITIZED
#define SENTOBENCH_SANITIZED 0
#endif

using namespace sent;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Detection cut-off rank, as in the paper's Fig-5 evaluation.
constexpr std::size_t kTopK = 5;
/// Consecutive --seed values start this many seeds apart, so no two seeds
/// of one benchmark invocation series ever share a scenario seed.
constexpr std::uint64_t kSeedStride = 1'000'000;
/// Attribution tolerance: layer self times must cover the traced wall
/// time (times workers) to within this share.
constexpr double kAttributionTolerance = 0.05;
/// Span category of every span this driver records.
constexpr const char* kCat = "bench";
/// Span categories read back from the trace: the driver's own, plus the
/// spans src/pipeline records around analyze and each campaign run.
constexpr const char* kReadCategories[] = {kCat, "pipeline", "campaign"};

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seed_offset = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string work_dir = ".bench_build";  ///< trace exports
};

bool parse_args(int argc, char** argv, Args& args) {
  auto number = [](const std::string& flag, const char* text, double& out) {
    char* end = nullptr;
    out = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(out >= 0.0)) {
      std::fprintf(stderr, "sentobench: %s expects a number >= 0, got '%s'\n",
                   flag.c_str(), text);
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "sentobench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    double x = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--seed" || flag == "--seed-offset") {
      if (!number(flag, value, x)) return false;
      (flag == "--seed" ? args.seed : args.seed_offset) =
          static_cast<std::uint64_t>(x);
    } else if (flag == "--seconds") {
      if (!number(flag, value, x)) return false;
      args.seconds = x;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        std::fprintf(stderr, "sentobench: --trace expects 0 or 1\n");
        return false;
      }
      args.trace = std::string(value) == "1";
    } else {
      std::fprintf(stderr, "sentobench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args.workload != "chaos-ii" && args.workload != "fleet-ingest") {
    std::fprintf(stderr,
                 "sentobench: --workload must be chaos-ii or fleet-ingest\n");
    return false;
  }
  return true;
}

std::uint64_t first_seed(const Args& args) {
  return 1 + args.seed_offset + args.seed * kSeedStride;
}

std::size_t nproc() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

// ---------------------------------------------------------------- results

/// Correctness checks; every one is printed, any failure fails the run.
struct Checks {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    std::printf("check %-6s %s\n", cond ? "ok" : "FAILED", what.c_str());
    ok = ok && cond;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string sizes;  ///< workload sizes, for the provenance line

  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics.push_back({name, value, unit});
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string result_json(const Result& r, bool correct) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Median and the highest percentile (capped at p99) that still has at
/// least ten samples beyond it.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};

double percentile_sorted(const std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

Tail tail_of(std::vector<double> xs) {
  Tail t;
  t.n = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  t.p50 = percentile_sorted(xs, 50.0);
  const double n = static_cast<double>(xs.size());
  t.tail_pct = std::clamp(100.0 * (1.0 - 10.0 / n), 50.0, 99.0);
  t.tail = percentile_sorted(xs, t.tail_pct);
  return t;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, 50.0);
}

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// Throughput and latency per measurement window (one campaign, or one
/// fleet-ingest cycle). A run reports its whole throughput (work over the
/// windows' summed wall time) and the mean over windows of each window's
/// latency median and tail. The shared host switches between a fast and a
/// slow state for seconds to minutes at a time; a mean moves smoothly with
/// the share of a run spent in each, where a median or a low percentile
/// over windows jumps from one state to the other (README.md, "Noise").
struct Windows {
  std::vector<double> rate;  ///< units of work per wall second
  std::vector<double> p50;   ///< latency median, ms
  std::vector<double> tail;  ///< latency tail percentile, ms
  double units = 0.0;        ///< work over all windows
  double seconds = 0.0;      ///< wall time over all windows
  Tail last;                 ///< the most recent window's percentiles

  void add(double window_units, double wall_s,
           std::vector<double> latency_ms) {
    rate.push_back(window_units / wall_s);
    units += window_units;
    seconds += wall_s;
    last = tail_of(std::move(latency_ms));
    p50.push_back(last.p50);
    tail.push_back(last.tail);
  }
  double rate_value() const { return units / seconds; }
  double p50_value() const { return mean(p50); }
  double tail_value() const { return mean(tail); }

  void print(const char* unit_name) const {
    std::printf("%zu windows; per window %zu %s, latency tail p%.2f; "
                "reporting the run's throughput and the mean over windows\n",
                rate.size(), last.n, unit_name, last.tail_pct);
    std::printf("window rates (1/s):");
    for (double r : rate) std::printf(" %.1f", r);
    std::printf("\nwindow p50 (ms):");
    for (double r : p50) std::printf(" %.4f", r);
    std::printf("\nwindow tail (ms):");
    for (double r : tail) std::printf(" %.4f", r);
    std::printf("\n");
  }
};

/// Peak resident set of the process so far. The workloads read it after
/// their first window: one campaign, or one ingest session, is what a user
/// runs; later windows only repeat it, and the allocator's reuse of freed
/// blocks across repeats would make the figure depend on the run length.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Seconds per call of `fn`: the median over `samples` timings, each the
/// mean of `batch` back-to-back calls. The median drops a sample that
/// another tenant's burst happened to hit; the batch lifts a call of a
/// few microseconds well above the clock's own cost and jitter.
template <typename Fn>
double time_median(Fn&& fn, int samples, int batch) {
  std::vector<double> seconds;
  for (int r = 0; r < samples; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int b = 0; b < batch; ++b) fn();
    seconds.push_back(seconds_since(t0) / batch);
  }
  return median(seconds);
}

/// Set-up time, sampled before the first window and again after every
/// window of the untraced pass. The host's speed drifts over seconds, so
/// set-ups timed all at once would report whatever that moment was worth;
/// like the windows' latencies, the figure is the mean over the run's
/// samples.
struct SetupProbe {
  std::function<void()> setup;  ///< everything before the first operation
  int batch = 20;               ///< set-ups per timing
  std::vector<double> seconds;  ///< one median per probe

  void sample() { seconds.push_back(time_median(setup, 21, batch)); }
  double value() const { return mean(seconds); }
};

// ----------------------------------------------------- trace read-back

/// Total duration and count of the driver's spans, by name.
struct SpanTotals {
  struct Entry {
    double us = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Entry> by_name;

  double us(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.us;
  }
  std::uint64_t count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.count;
  }
  /// Mean duration per span in milliseconds, 0 when none recorded.
  double mean_ms(const std::string& name) const {
    const std::uint64_t n = count(name);
    return n ? us(name) / 1000.0 / static_cast<double>(n) : 0.0;
  }
};

/// Sum the spans of kReadCategories in a Chrome trace_event export. Only
/// pipeline.analyze (around pipeline.anatomize / featurize / score) and
/// the outer spans (campaign.run, bench.pass) contain others; the callers
/// subtract the inner spans where they need self time.
SpanTotals read_spans(const std::string& chrome_json) {
  SpanTotals totals;
  std::istringstream in(chrome_json);
  std::string line;
  auto wanted = [&line] {
    for (const char* cat : kReadCategories)
      if (line.find(std::string("\"cat\": \"") + cat + "\"") !=
          std::string::npos)
        return true;
    return false;
  };
  while (std::getline(in, line)) {
    if (!wanted()) continue;
    const std::size_t n0 = line.find("\"name\": \"");
    const std::size_t d0 = line.find("\"dur\": ");
    if (n0 == std::string::npos || d0 == std::string::npos) continue;
    const std::size_t start = n0 + 9;
    const std::string name = line.substr(start, line.find('"', start) - start);
    SpanTotals::Entry& e = totals.by_name[name];
    e.us += std::strtod(line.c_str() + d0 + 7, nullptr);
    ++e.count;
  }
  return totals;
}

/// Turn tracing on (both obs mechanisms) for one traced pass.
void start_tracing() {
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(true);
  obs::TraceLog::global().clear();
  obs::TraceLog::global().set_enabled(true);
}

/// Turn tracing off, keep the export in the work directory for
/// inspection (chrome://tracing or Perfetto), and return the span totals.
SpanTotals stop_tracing(const Args& args) {
  obs::TraceLog::global().set_enabled(false);
  obs::Registry::global().set_enabled(false);
  const std::string json = obs::TraceLog::global().to_chrome_json();
  obs::TraceLog::global().write_chrome_json(
      args.work_dir + "/sentobench-" + args.workload + ".trace.json");
  obs::TraceLog::global().clear();
  return read_spans(json);
}

/// Counters the driver records itself, at the calls it wraps.
struct BenchCounters {
  obs::Counter sim_events =
      obs::Registry::global().counter("bench.sim_events");
  obs::Counter trace_bytes =
      obs::Registry::global().counter("bench.trace_bytes");
  obs::Counter trace_loads =
      obs::Registry::global().counter("bench.trace_loads");
  obs::Counter trace_salvaged =
      obs::Registry::global().counter("bench.trace_salvaged");

  static const BenchCounters& get() {
    static BenchCounters c;
    return c;
  }
};

double per(double total, double n) { return n > 0.0 ? total / n : 0.0; }

/// Print the attribution table and return the unattributed share.
double report_attribution(const std::vector<std::pair<std::string, double>>&
                              layers_us,
                          double total_us, Checks& checks) {
  double covered = 0.0;
  std::printf("\nattribution (traced pass, self time, %% of %.1f ms):\n",
              total_us / 1000.0);
  for (const auto& [name, us] : layers_us) {
    std::printf("  %-24s %10.1f ms %6.1f%%\n", name.c_str(), us / 1000.0,
                100.0 * per(us, total_us));
    covered += us;
  }
  const double unattributed = total_us - covered;
  const double frac = per(unattributed, total_us);
  std::printf("  %-24s %10.1f ms %6.1f%%\n", "unattributed",
              unattributed / 1000.0, 100.0 * frac);
  std::ostringstream what;
  what << "attribution: layer self times cover the traced wall time within "
       << 100.0 * kAttributionTolerance << "% (unattributed "
       << 100.0 * frac << "%)";
  checks.require(std::abs(frac) <= kAttributionTolerance, what.str());
  return frac;
}

/// Names of every per-layer metric, in the order BENCHMARK.json lists
/// them; a workload that never enters a layer reports that layer as 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sim.run_ms", "ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"trace.encode_ms", "ms"},
      {"trace.decode_ms", "ms"},
      {"trace.bytes", "bytes"},
      {"trace.salvaged_frac", "frac"},
      {"fault.perturb_ms", "ms"},
      {"core.anatomize_ms", "ms"},
      {"core.featurize_ms", "ms"},
      {"core.intervals", "count"},
      {"ml.score_ms", "ms"},
      {"ml.gram_ms", "ms"},
      {"ml.fits", "count"},
      {"ml.kernel_cells", "count"},
      {"ml.smo_iterations", "count"},
      {"ml.cells_per_sample", "count"},
      {"campaign.self_ms", "ms"},
      {"campaign.worker_busy_frac", "frac"},
      {"journal.bytes", "bytes"},
      {"journal.recover_ms", "ms"},
      {"stream.offer_ms", "ms"},
      {"stream.tick_ms", "ms"},
      {"stream.finish_ms", "ms"},
      {"stream.final_report_ms", "ms"},
      {"stream.frames_accepted", "count"},
      {"stream.flush_full", "count"},
      {"stream.flush_cached", "count"},
      {"stream.cached_frac", "frac"},
      {"stream.peak_buffered_bytes", "bytes"},
      {"bench.tracing_overhead", "frac"},
      {"bench.unattributed_frac", "frac"},
  };
  return names;
}

/// Fill `result` with every per-layer metric from `values` (0 if absent).
void add_layer_metrics(Result& result,
                       const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : layer_metrics()) {
    auto it = values.find(name);
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

/// The OCSVM's Gram-build wall-clock timer (snapshot `timers` section).
const obs::HistogramData* gram_timer(const obs::Snapshot& snap) {
  for (const auto& [name, data] : snap.timers)
    if (name == "ml.kernel_build_ns") return &data;
  return nullptr;
}

/// ML-layer counts from the registry, per `units` (runs or passes).
void add_ml_counts(std::map<std::string, double>& v, const obs::Snapshot& snap,
                   double units, double samples) {
  const auto cells =
      static_cast<double>(snap.counter_value("ml.kernel_cells_built"));
  if (const obs::HistogramData* gram = gram_timer(snap); gram && gram->count)
    v["ml.gram_ms"] = static_cast<double>(gram->sum) / 1e6 /
                      static_cast<double>(gram->count);
  v["ml.fits"] =
      per(static_cast<double>(snap.counter_value("ml.ocsvm_fits")), units);
  v["ml.kernel_cells"] = per(cells, units);
  v["ml.smo_iterations"] =
      per(static_cast<double>(snap.counter_value("ml.smo_iterations")), units);
  v["ml.cells_per_sample"] = per(cells, samples);
}

// ============================================================ campaigns

/// Retries per Failed/TimedOut seed (CampaignOptions::max_retries). One
/// attempt fails with probability ~0.0017 at intensity 0.5, so three
/// attempts in a row fail for about one seed in 2e8.
constexpr std::size_t kMaxRetries = 2;

/// chaos-ii: the case-II chaos ladder of bench/ext_chaos at intensity 0.5.
struct CampaignSpec {
  pipeline::CaseRunnerConfig config;
  std::size_t workers = 1;
  std::size_t runs_per_campaign = 1000;
};

CampaignSpec campaign_spec(const Args& args) {
  CampaignSpec spec;
  spec.config.intensity = 0.5;
  spec.config.event_budget = 50'000'000;
  spec.config.trace_round_trip = true;
  // Two workers, not four: four leave no vCPU on a 4-vCPU host for any
  // other thread, and each preemption of a worker lands in the run_ms
  // tail (p99 swung 5.9-16 ms between runs at 4 workers; README.md).
  spec.workers = std::min<std::size_t>(2, nproc());
  spec.runs_per_campaign = args.smoke ? 12 : 1000;
  return spec;
}

pipeline::CampaignOptions campaign_options(const CampaignSpec& spec,
                                           std::uint64_t first) {
  pipeline::CampaignOptions options;
  options.first_seed = first;
  options.runs = spec.runs_per_campaign;
  options.k = kTopK;
  options.threads = spec.workers;
  // The campaign's retry policy: a seed whose injected trace truncation
  // left no interval to analyze is re-attempted on an offset retry seed,
  // so a seed fails only when every attempt failed (it is quarantined).
  options.max_retries = kMaxRetries;
  return options;
}

struct CampaignRun {
  pipeline::CampaignStats stats;
  std::string stats_json;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak RSS after this campaign
};

/// Run back-to-back campaigns of spec.runs_per_campaign seeds: until
/// `seconds` have passed (at least one) when `count` is 0, else exactly
/// `count`. Campaign c covers seeds first + c * runs_per_campaign ...
/// A non-null `probe` is sampled after every campaign, off the clock.
std::vector<CampaignRun> run_campaigns(
    const pipeline::ScenarioRunnerFactory& factory, const CampaignSpec& spec,
    std::uint64_t first, double seconds, std::size_t count,
    SetupProbe* probe) {
  std::vector<CampaignRun> runs;
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0;; ++c) {
    if (count ? c >= count : (c > 0 && seconds_since(start) >= seconds))
      break;
    pipeline::CampaignOptions options =
        campaign_options(spec, first + c * spec.runs_per_campaign);
    CampaignRun run;
    const Clock::time_point t0 = Clock::now();
    run.stats = pipeline::run_campaign(factory, options);
    run.wall_s = seconds_since(t0);
    run.stats_json = pipeline::stats_json(run.stats);
    run.peak_rss_mb = peak_rss_mb();
    runs.push_back(std::move(run));
    if (probe) probe->sample();
  }
  return runs;
}

// ---- traced runner: the production case-II runner's steps, with a span
// around each call that src/ does not already time itself.

/// Case-II chaos runner: simulate, save, perturb, salvage-load, analyze.
pipeline::ScenarioRunner traced_case2_runner(
    const pipeline::CaseRunnerConfig& config) {
  auto arena = std::make_shared<apps::WorldArena>();
  const fault::FaultPlan plan =
      fault::FaultPlan::at_intensity(config.intensity);
  return [config, arena, plan](std::uint64_t seed) {
    const BenchCounters& counters = BenchCounters::get();
    apps::Case2Config c;
    c.seed = seed;
    c.faults = plan;
    c.event_budget = config.event_budget;
    apps::Case2Result r;
    {
      obs::Span span("sim.run", kCat);
      r = apps::run_case2(c, arena.get());
    }
    counters.sim_events.inc(r.events_executed);
    std::string text;
    {
      obs::Span span("trace.encode", kCat);
      std::ostringstream saved;
      trace::save_trace(r.relay_trace, saved);
      text = saved.str();
    }
    counters.trace_bytes.inc(text.size());
    util::Rng rng = util::Rng(seed).substream("trace-faults");
    {
      obs::Span span("fault.perturb", kCat);
      text = fault::FaultInjector::perturb_trace_text(std::move(text), plan,
                                                      rng);
    }
    trace::LenientLoadResult loaded;
    {
      obs::Span span("trace.decode", kCat);
      std::istringstream in(text);
      loaded = trace::load_trace_lenient(in);
    }
    counters.trace_loads.inc();
    if (!loaded.complete) counters.trace_salvaged.inc();
    // pipeline::analyze records its own anatomize / featurize / score spans.
    pipeline::AnalysisReport report =
        pipeline::analyze({{&loaded.trace, 0}}, os::irq::kRadioSpi);
    arena->recycle(std::move(loaded.trace));
    arena->recycle(std::move(r.relay_trace));
    return report;
  };
}

pipeline::ScenarioRunnerFactory traced_factory(const CampaignSpec& spec) {
  return [spec](std::size_t) { return traced_case2_runner(spec.config); };
}

/// The journal layer (pipeline/journal), outside the attribution window:
/// the first campaign once more, journaled with the default commit policy
/// (one atomic rewrite of the file per outcome), then recover_journal on
/// the final file, timed as the median of several scans.
void measure_journal(const Args& args, const CampaignSpec& spec,
                     const pipeline::ScenarioRunnerFactory& factory,
                     const CampaignRun& plain, std::map<std::string, double>& v,
                     Checks& checks) {
  const std::string path =
      args.work_dir + "/sentobench-" + args.workload + ".journal";
  std::filesystem::remove(path);
  pipeline::CampaignOptions options = campaign_options(spec, first_seed(args));
  options.journal_path = path;
  const Clock::time_point t0 = Clock::now();
  const std::string journaled =
      pipeline::stats_json(pipeline::run_campaign(factory, options));
  const double journaled_s = seconds_since(t0);
  const auto bytes = static_cast<double>(std::filesystem::file_size(path));

  pipeline::JournalRecovery recovery;
  const double recover_s =
      time_median([&] { recovery = pipeline::recover_journal(path); }, 5, 1);
  std::filesystem::remove(path);
  checks.require(journaled == plain.stats_json,
                 "journal: the journaled campaign gives the same stats_json");
  checks.require(recovery.header_valid && !recovery.truncated &&
                     recovery.records.size() == spec.runs_per_campaign,
                 "journal: recover_journal finds every outcome intact");
  v["journal.bytes"] = bytes;
  v["journal.recover_ms"] = recover_s * 1000.0;
  std::printf("journal: %.0f bytes, campaign %.3f s journaled vs %.3f s "
              "plain, recover %.3f ms\n",
              bytes, journaled_s, plain.wall_s, recover_s * 1000.0);
}

Result run_campaign_workload(const Args& args, Checks& checks) {
  const CampaignSpec spec = campaign_spec(args);
  const std::uint64_t first = first_seed(args);
  std::printf("workload chaos-ii: case-II campaigns of %zu seeds on %zu "
              "worker(s), fault intensity %g, trace round-trip, event budget "
              "%llu; first seed %llu\n",
              spec.runs_per_campaign, spec.workers, spec.config.intensity,
              static_cast<unsigned long long>(spec.config.event_budget),
              static_cast<unsigned long long>(first));

  // Set-up: the campaign's pool and its per-worker runners — everything
  // before the first seeded run.
  SetupProbe setup;
  setup.setup = [&spec] {
    util::ThreadPool pool(spec.workers);
    pipeline::ScenarioRunnerFactory factory =
        pipeline::make_case_runner_factory("II", spec.config);
    std::vector<pipeline::ScenarioRunner> runners;
    for (std::size_t w = 0; w < std::max<std::size_t>(pool.size(), 1); ++w)
      runners.push_back(factory(w));
  };
  setup.sample();

  const pipeline::ScenarioRunnerFactory production =
      pipeline::make_case_runner_factory("II", spec.config);

  // Determinism: a short prefix campaign is bit-identical serial and on
  // the workload's worker count (untimed).
  {
    CampaignSpec prefix = spec;
    prefix.runs_per_campaign =
        std::min<std::size_t>(spec.runs_per_campaign, 32);
    pipeline::CampaignOptions serial = campaign_options(prefix, first);
    serial.threads = 1;
    checks.require(
        pipeline::stats_json(pipeline::run_campaign(production, serial)) ==
            pipeline::stats_json(pipeline::run_campaign(
                production, campaign_options(prefix, first))),
        "determinism: serial and " + std::to_string(spec.workers) +
            "-worker campaigns give byte-identical stats_json");
  }

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<CampaignRun> untraced =
      run_campaigns(production, spec, first, untraced_seconds, 0, &setup);

  Result result;
  Windows windows;
  std::size_t triggered = 0, detected = 0, runs = 0, retried = 0;
  bool accounted = true;
  for (const CampaignRun& run : untraced) {
    const pipeline::CampaignStats& s = run.stats;
    std::vector<double> run_ms;
    for (double w : s.run_wall_seconds) run_ms.push_back(w * 1000.0);
    windows.add(static_cast<double>(s.runs), run.wall_s, std::move(run_ms));
    runs += s.runs;
    triggered += s.triggered;
    detected += s.detected_top_k;
    result.failed += s.failed + s.timed_out;
    retried += s.retried;
    accounted = accounted && s.completed() + s.failed + s.timed_out == s.runs &&
                s.detected_top_k <= s.triggered &&
                s.run_wall_seconds.size() == s.runs;
  }
  result.attempted = runs;
  checks.require(accounted && runs > 0,
                 "campaign accounting: every seed completed, failed or timed "
                 "out, and has a wall time");
  const double runs_per_s = windows.rate_value();
  const double p50 = windows.p50_value(), tail = windows.tail_value();
  // Over the first campaign's seeds only, so the figure is a function of
  // the seed alone and not of how many campaigns fit into the run.
  const double detection = untraced.front().stats.detection_rate();
  std::printf("untraced: %zu runs, %zu triggered, %zu detected in top-%zu "
              "(first campaign: detection rate %.6f), %zu retries, %llu "
              "failed after retries; ",
              runs, triggered, detected, kTopK, detection, retried,
              static_cast<unsigned long long>(result.failed));
  windows.print("runs");
  result.sizes = std::to_string(untraced.size()) + " campaigns x " +
                 std::to_string(spec.runs_per_campaign) + " seeds, " +
                 std::to_string(spec.workers) + " worker(s)";

  if (!args.trace) {
    result.add("runs_per_s", runs_per_s, "1/s");
    result.add("run_ms_p50", p50, "ms");
    result.add("run_ms_p99", tail, "ms");
    // Campaigns have no frames: their unit of work is the seeded run.
    result.add("frames_per_s", runs_per_s, "1/s");
    result.add("offer_ms_p50", p50, "ms");
    result.add("offer_ms_p99", tail, "ms");
    result.add("setup_s", setup.value(), "s");
    result.add("peak_rss_mb", untraced.front().peak_rss_mb, "MB");
    result.add("detection_rate", detection, "frac");
    return result;
  }

  // ---- traced pass: the same campaigns through the traced runners.
  start_tracing();
  const std::vector<CampaignRun> traced =
      run_campaigns(traced_factory(spec), spec, first, 0.0, untraced.size(),
                    nullptr);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const SpanTotals spans = stop_tracing(args);

  bool identical = traced.size() == untraced.size();
  double traced_wall = 0.0;
  for (std::size_t c = 0; c < traced.size(); ++c) {
    identical = identical && traced[c].stats_json == untraced[c].stats_json;
    traced_wall += traced[c].wall_s;
  }
  checks.require(identical,
                 "fidelity: traced runners reproduce the production "
                 "campaigns' stats_json byte for byte");

  const auto n = static_cast<double>(runs);
  const double worker_us =
      traced_wall * 1e6 * static_cast<double>(spec.workers);
  const double runner_us = spans.us("campaign.run");
  const double sim_events =
      static_cast<double>(snap.counter_value("bench.sim_events"));
  const double intervals =
      static_cast<double>(snap.counter_value("pipeline.intervals"));
  // pipeline.analyze's time outside anatomize and featurize: the
  // score_and_rank call (pipeline.score is its detector fit) plus the
  // per-sample bug labelling, which is small.
  const double score_us = spans.us("pipeline.analyze") -
                          spans.us("pipeline.anatomize") -
                          spans.us("pipeline.featurize");

  std::map<std::string, double> v;
  v["sim.run_ms"] = spans.mean_ms("sim.run");
  v["sim.events"] = per(sim_events, n);
  v["sim.ns_per_event"] = per(spans.us("sim.run") * 1000.0, sim_events);
  v["trace.encode_ms"] = spans.mean_ms("trace.encode");
  v["trace.decode_ms"] = spans.mean_ms("trace.decode");
  v["trace.bytes"] =
      per(static_cast<double>(snap.counter_value("bench.trace_bytes")), n);
  v["trace.salvaged_frac"] =
      per(static_cast<double>(snap.counter_value("bench.trace_salvaged")),
          static_cast<double>(snap.counter_value("bench.trace_loads")));
  v["fault.perturb_ms"] = spans.mean_ms("fault.perturb");
  v["core.anatomize_ms"] = spans.mean_ms("pipeline.anatomize");
  v["core.featurize_ms"] = spans.mean_ms("pipeline.featurize");
  v["core.intervals"] = per(intervals, n);
  v["ml.score_ms"] = per(score_us / 1000.0,
                         static_cast<double>(spans.count("pipeline.analyze")));
  add_ml_counts(v, snap, n, intervals);
  v["campaign.self_ms"] = (worker_us - runner_us) / 1000.0 / n;
  v["campaign.worker_busy_frac"] = per(runner_us, worker_us);
  const double traced_rps = n / traced_wall;
  v["bench.tracing_overhead"] = 1.0 - per(traced_rps, runs_per_s);

  // Top-level layers: everything inside the runner, plus the campaign
  // engine's own time outside it. The runner's glue is unattributed.
  std::vector<std::pair<std::string, double>> layers;
  for (const char* name :
       {"sim.run", "trace.encode", "fault.perturb", "trace.decode"})
    layers.emplace_back(name, spans.us(name));
  layers.emplace_back("core.anatomize", spans.us("pipeline.anatomize"));
  layers.emplace_back("core.featurize", spans.us("pipeline.featurize"));
  layers.emplace_back("ml.score", score_us);
  layers.emplace_back("campaign.self", worker_us - runner_us);
  v["bench.unattributed_frac"] = report_attribution(layers, worker_us, checks);
  std::printf("traced: %.3f s (%.1f runs/s vs %.1f untraced)\n", traced_wall,
              traced_rps, runs_per_s);
  measure_journal(args, spec, production, untraced.front(), v, checks);
  add_layer_metrics(result, v);
  return result;
}

// ========================================================= fleet ingest

struct Fleet {
  std::size_t devices = 0;
  double run_seconds = 0.0;  ///< simulated seconds per device run
  std::uint64_t first_seed = 0;
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;  ///< per device
  std::vector<trace::InstrMeta> instr_table;  ///< the fleet's program image
  std::size_t total_frames = 0;
  std::size_t total_bytes = 0;

  apps::Case2Result record(std::size_t device) const {
    apps::Case2Config config;
    config.seed = first_seed + device;
    config.run_seconds = run_seconds;
    return apps::run_case2(config);
  }
};

/// Record clean case-II device runs until the fleet holds
/// `target_intervals` analysis intervals, and slice each relay trace into
/// wire frames (untimed input generation). Sizing by intervals rather than
/// by device count keeps the OCSVM's working set — an n x n Gram matrix
/// over the fleet's n samples — the same size for every seed. One trace
/// is alive at a time, so input generation does not set the peak RSS.
Fleet make_fleet(std::size_t target_intervals, double run_seconds,
                 std::uint64_t first) {
  Fleet fleet;
  fleet.run_seconds = run_seconds;
  fleet.first_seed = first;
  for (std::size_t i = 0, intervals = 0; intervals < target_intervals; ++i) {
    const apps::Case2Result run = fleet.record(i);
    intervals += core::Anatomizer(run.relay_trace)
                     .intervals_for(os::irq::kRadioSpi)
                     .size();
    fleet.devices = i + 1;
    fleet.frames.push_back(
        trace::encode_trace(run.relay_trace, static_cast<std::uint32_t>(i)));
    fleet.total_frames += fleet.frames.back().size();
    for (const auto& f : fleet.frames.back()) fleet.total_bytes += f.size();
    if (i == 0) fleet.instr_table = run.relay_trace.instr_table;
  }
  return fleet;
}

/// pipeline::analyze over the fleet's traces, recorded again (the runs are
/// deterministic): the batch side of the parity check.
pipeline::AnalysisReport batch_report(
    const Fleet& fleet, const pipeline::AnalysisOptions& options) {
  std::vector<apps::Case2Result> runs;
  std::vector<pipeline::TaggedTrace> tagged;
  for (std::size_t i = 0; i < fleet.devices; ++i)
    runs.push_back(fleet.record(i));
  for (std::size_t i = 0; i < fleet.devices; ++i)
    tagged.push_back({&runs[i].relay_trace, i});
  return pipeline::analyze(tagged, os::irq::kRadioSpi, options);
}

bool reports_identical(const pipeline::AnalysisReport& a,
                       const pipeline::AnalysisReport& b) {
  if (a.samples.size() != b.samples.size() || a.scores != b.scores ||
      a.ranking.size() != b.ranking.size() ||
      a.detector_name != b.detector_name || a.degraded != b.degraded)
    return false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].sample_index != b.ranking[i].sample_index ||
        a.ranking[i].score != b.ranking[i].score)
      return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const pipeline::Sample& x = a.samples[i];
    const pipeline::Sample& y = b.samples[i];
    const core::EventInterval& p = x.interval;
    const core::EventInterval& q = y.interval;
    if (x.node_id != y.node_id || x.run != y.run || x.has_bug != y.has_bug ||
        x.bug_kinds != y.bug_kinds || p.irq != q.irq ||
        p.start_index != q.start_index || p.end_index != q.end_index ||
        p.start_cycle != q.start_cycle || p.end_cycle != q.end_cycle ||
        p.task_count != q.task_count || p.seq_in_type != q.seq_in_type ||
        p.truncated != q.truncated)
      return false;
  }
  return true;
}

/// Per-device detection at kTopK: adds to `triggered` the devices whose
/// run triggered the bug, and to `detected` those whose first buggy
/// interval is within that device's kTopK most suspicious intervals of the
/// fleet-wide ranking.
void count_fleet_detections(const pipeline::AnalysisReport& report,
                            std::size_t devices, std::size_t& triggered,
                            std::size_t& detected) {
  std::vector<std::size_t> seen(devices, 0), first_bug(devices, 0);
  for (const pipeline::RankedEntry& entry : report.ranking) {
    const pipeline::Sample& s = report.samples[entry.sample_index];
    ++seen[s.run];
    if (s.has_bug && first_bug[s.run] == 0) first_bug[s.run] = seen[s.run];
  }
  for (std::size_t rank : first_bug) {
    triggered += rank > 0;
    detected += rank > 0 && rank <= kTopK;
  }
}

struct PassResult {
  double wall_s = 0.0;  ///< first offer through final_report
  std::vector<double> offer_ms;
  std::size_t offered = 0;
  std::size_t rejected = 0;
  std::uint64_t quarantined = 0;
  bool all_finished = true;
  double peak_rss_mb = 0.0;  ///< process peak RSS after this pass
  pipeline::AnalysisReport report;  ///< final_report (dropped once compared)
  bool parity = true;  ///< report bit-identical to the reference
};

/// One closed-loop pass over the fleet, in ext_fleet's drive() order:
/// every tick, each device offers the frames whose send tick has come
/// (frame k is due at tick k); backpressured frames retry next tick.
/// With `time_offers`, each offer is timed together with the tick() it
/// precedes (the traced pass leaves that to its spans).
PassResult ingest_pass(const Fleet& fleet, const stream::IngestConfig& config,
                       const pipeline::AnalysisOptions& options,
                       bool time_offers) {
  stream::FleetIngest ingest(config);
  PassResult pass;
  if (time_offers) pass.offer_ms.reserve(fleet.total_frames);
  std::vector<std::size_t> next(fleet.frames.size(), 0);
  obs::Span pass_span("bench.pass", kCat);
  const Clock::time_point start = Clock::now();
  for (;;) {
    bool any_left = false, offered_this_tick = false;
    for (std::size_t d = 0; d < fleet.frames.size(); ++d) {
      const auto& frames = fleet.frames[d];
      while (next[d] < frames.size() && next[d] <= ingest.now()) {
        const Clock::time_point t0 = time_offers ? Clock::now() : start;
        stream::Admit admit;
        {
          obs::Span span("stream.offer", kCat);
          admit = ingest.offer(static_cast<std::uint32_t>(d), frames[next[d]]);
        }
        if (time_offers) pass.offer_ms.push_back(seconds_since(t0) * 1000.0);
        offered_this_tick = true;
        ++pass.offered;
        if (admit == stream::Admit::Backpressure) break;
        if (admit == stream::Admit::Rejected) {
          ++pass.rejected;
          next[d] = frames.size();
          break;
        }
        ++next[d];
      }
      any_left = any_left || next[d] < frames.size();
    }
    if (!any_left) break;
    const Clock::time_point t0 = time_offers ? Clock::now() : start;
    {
      obs::Span span("stream.tick", kCat);
      ingest.tick();
    }
    if (time_offers && offered_this_tick)
      pass.offer_ms.back() += seconds_since(t0) * 1000.0;
  }
  {
    obs::Span span("stream.finish", kCat);
    ingest.finish_all();
  }
  {
    obs::Span span("stream.final_report", kCat);
    pass.report = ingest.final_report(options);
  }
  pass.wall_s = seconds_since(start);
  pass.peak_rss_mb = peak_rss_mb();
  for (const stream::StreamStatus& st : ingest.status()) {
    pass.quarantined += st.counters.frames_quarantined;
    pass.all_finished =
        pass.all_finished && st.state == stream::StreamState::Finished;
  }
  return pass;
}

/// fleet-ingest's inputs: kFleets fleets of kFleetIntervals intervals
/// each. A fleet of 400 intervals (about 9 devices) keeps the Gram matrix
/// of its largest refit at 1.3 MB, inside one core's 2 MB L2, so how much
/// of the shared cache other tenants take moves the pass less: alternating
/// 10-s runs varied 4.5% in frames/s at 400 intervals against 9% at 800
/// and more at 1600 (README.md, "Workloads"). Four fleets, offered in
/// turn, give each window about 1200 offers (a p99 tail) and let
/// detection_rate count about 35 devices.
constexpr std::size_t kFleets = 4;
constexpr std::size_t kFleetIntervals = 400;
/// Fleet f's devices use seeds first + f * kFleetSeedStride + device.
constexpr std::uint64_t kFleetSeedStride = 1000;

Result run_fleet_workload(const Args& args, Checks& checks) {
  const std::size_t target_intervals = args.smoke ? 40 : kFleetIntervals;
  const double run_seconds = args.smoke ? 1.0 : 5.0;
  const std::uint64_t first = first_seed(args);
  std::vector<Fleet> fleets;
  std::size_t devices = 0, frames = 0, bytes = 0;
  for (std::size_t f = 0; f < kFleets; ++f) {
    fleets.push_back(make_fleet(target_intervals, run_seconds,
                                first + f * kFleetSeedStride));
    devices += fleets.back().devices;
    frames += fleets.back().total_frames;
    bytes += fleets.back().total_bytes;
  }
  std::printf("workload fleet-ingest: %zu fleets of clean case-II devices "
              "x %.0f s (>= %zu intervals each, %zu devices in all), "
              "1-thread pool, default IngestConfig; first seed %llu\n",
              kFleets, run_seconds, target_intervals, devices,
              static_cast<unsigned long long>(first));

  util::ThreadPool pool(1);
  pipeline::AnalysisOptions options;
  options.pool = &pool;
  std::vector<stream::IngestConfig> configs(kFleets);
  for (std::size_t f = 0; f < kFleets; ++f) {
    configs[f].line = os::irq::kRadioSpi;
    configs[f].instr_table = fleets[f].instr_table;
    configs[f].pool = &pool;
  }
  std::printf("inputs: %zu frames, %zu bytes\n", frames, bytes);

  // Set-up: the detector pool and the service itself, a few microseconds.
  SetupProbe setup;
  setup.batch = 200;
  setup.setup = [&configs] {
    util::ThreadPool setup_pool(1);
    stream::IngestConfig c = configs.front();
    c.pool = &setup_pool;
    stream::FleetIngest ingest(c);
  };
  setup.sample();

  // A cycle is one pass over each fleet in turn, and a measurement window.
  // Pass i is over fleet i % kFleets. Each pass's final report is compared
  // with its fleet's reference once the clock has stopped, then dropped;
  // an empty reference takes the first report. A non-null `probe` is
  // sampled after every cycle, off the clock.
  auto run_cycles = [&](double seconds, std::size_t count, bool time_offers,
                        std::vector<pipeline::AnalysisReport>& references,
                        SetupProbe* probe) {
    std::vector<PassResult> passes;
    const Clock::time_point start = Clock::now();
    for (std::size_t c = 0;; ++c) {
      if (count ? c >= count : (c > 0 && seconds_since(start) >= seconds))
        break;
      for (std::size_t f = 0; f < kFleets; ++f) {
        PassResult pass =
            ingest_pass(fleets[f], configs[f], options, time_offers);
        if (references[f].samples.empty())
          references[f] = std::move(pass.report);
        else
          pass.parity = reports_identical(pass.report, references[f]);
        pass.report = {};
        passes.push_back(std::move(pass));
      }
      if (probe) probe->sample();
    }
    return passes;
  };
  auto all_identical = [](const std::vector<PassResult>& passes) {
    return std::all_of(passes.begin(), passes.end(),
                       [](const PassResult& p) { return p.parity; });
  };

  std::vector<pipeline::AnalysisReport> streamed(kFleets);
  const std::vector<PassResult> untraced =
      run_cycles(args.trace ? args.seconds / 2 : args.seconds, 0, true,
                 streamed, &setup);
  const std::size_t cycles = untraced.size() / kFleets;
  std::vector<pipeline::AnalysisReport> batch;
  bool parity = all_identical(untraced);
  std::size_t triggered = 0, detected = 0;
  for (std::size_t f = 0; f < kFleets; ++f) {
    batch.push_back(batch_report(fleets[f], options));
    parity = parity && reports_identical(streamed[f], batch[f]);
    count_fleet_detections(batch[f], fleets[f].devices, triggered, detected);
  }
  Result result;
  Windows windows;
  bool clean = true;
  for (std::size_t c = 0; c < cycles; ++c) {
    double wall_s = 0.0, offered = 0.0;
    std::vector<double> offer_ms;
    for (std::size_t f = 0; f < kFleets; ++f) {
      const PassResult& p = untraced[c * kFleets + f];
      wall_s += p.wall_s;
      offered += static_cast<double>(p.offered);
      offer_ms.insert(offer_ms.end(), p.offer_ms.begin(), p.offer_ms.end());
      result.attempted += p.offered;
      result.failed += p.quarantined + p.rejected;
      clean = clean && p.all_finished;
    }
    windows.add(offered, wall_s, std::move(offer_ms));
  }
  checks.require(parity,
                 "parity: every pass's final_report is bit-identical to "
                 "pipeline::analyze over the same traces");
  checks.require(clean, "every stream finished cleanly in every pass");
  const double frames_per_s = windows.rate_value();
  const double p50 = windows.p50_value(), tail = windows.tail_value();
  const double detection =
      per(static_cast<double>(detected), static_cast<double>(triggered));
  std::printf("untraced: %llu offers, %zu of %zu devices triggered; ",
              static_cast<unsigned long long>(result.attempted), triggered,
              devices);
  windows.print("offers");
  result.sizes = std::to_string(cycles) + " cycles x " +
                 std::to_string(kFleets) + " fleets (" +
                 std::to_string(devices) + " devices, " +
                 std::to_string(frames) + " frames per cycle)";

  if (!args.trace) {
    // The fleet's unit of work is the offered frame.
    result.add("runs_per_s", frames_per_s, "1/s");
    result.add("run_ms_p50", p50, "ms");
    result.add("run_ms_p99", tail, "ms");
    result.add("frames_per_s", frames_per_s, "1/s");
    result.add("offer_ms_p50", p50, "ms");
    result.add("offer_ms_p99", tail, "ms");
    result.add("setup_s", setup.value(), "s");
    // After the first cycle: one session over every fleet.
    result.add("peak_rss_mb", untraced[kFleets - 1].peak_rss_mb, "MB");
    result.add("detection_rate", detection, "frac");
    return result;
  }

  // ---- traced pass: the same cycles with tracing on.
  start_tracing();
  const std::vector<PassResult> traced =
      run_cycles(0.0, cycles, false, batch, nullptr);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const SpanTotals spans = stop_tracing(args);
  checks.require(all_identical(traced),
                 "fidelity: the traced passes' final_report is bit-identical "
                 "to pipeline::analyze over the same traces");

  double traced_wall = 0.0, traced_offers = 0.0;
  for (const PassResult& p : traced) {
    traced_wall += p.wall_s;
    traced_offers += static_cast<double>(p.offered);
  }
  const auto n = static_cast<double>(traced.size());
  const double pass_us = spans.us("bench.pass");
  const double samples =
      static_cast<double>(snap.counter_value("stream.samples"));
  const double full =
      static_cast<double>(snap.counter_value("stream.flush.full"));
  const double cached =
      static_cast<double>(snap.counter_value("stream.flush.cached"));
  const double featurize_only =
      static_cast<double>(snap.counter_value("stream.flush.featurize_only"));

  std::map<std::string, double> v;
  v["trace.bytes"] = static_cast<double>(bytes) / kFleets;
  v["core.intervals"] = per(samples, n);
  add_ml_counts(v, snap, n, samples);
  // The service's refits fit the OCSVM directly; only final_report goes
  // through score_and_rank, whose detector fit pipeline.score times.
  v["ml.score_ms"] = spans.mean_ms("pipeline.score");
  v["stream.offer_ms"] = spans.mean_ms("stream.offer");
  v["stream.tick_ms"] = spans.mean_ms("stream.tick");
  v["stream.finish_ms"] = spans.mean_ms("stream.finish");
  v["stream.final_report_ms"] = spans.mean_ms("stream.final_report");
  v["stream.frames_accepted"] =
      per(static_cast<double>(snap.counter_value("stream.frames.accepted")), n);
  v["stream.flush_full"] = per(full, n);
  v["stream.flush_cached"] = per(cached, n);
  v["stream.cached_frac"] = per(cached, full + cached + featurize_only);
  v["stream.peak_buffered_bytes"] =
      static_cast<double>(snap.gauge_value("stream.peak_buffered_bytes"));
  const double traced_fps = traced_offers / traced_wall;
  v["bench.tracing_overhead"] = 1.0 - per(traced_fps, frames_per_s);

  std::vector<std::pair<std::string, double>> layers;
  for (const char* name :
       {"stream.offer", "stream.tick", "stream.finish", "stream.final_report"})
    layers.emplace_back(name, spans.us(name));
  v["bench.unattributed_frac"] = report_attribution(layers, pass_us, checks);
  const obs::HistogramData* gram = gram_timer(snap);
  std::printf("traced: %.3f s (%.1f frames/s vs %.1f untraced); nested in "
              "stream.tick/finish: Gram builds %.1f ms of it\n",
              traced_wall, traced_fps, frames_per_s,
              gram ? static_cast<double>(gram->sum) / 1e6 : 0.0);
  add_layer_metrics(result, v);
  return result;
}

std::string provenance_json(const Args& args, const std::string& sizes) {
  std::ostringstream os;
  os << "{\"provenance\": {\"workload\": \"" << args.workload
     << "\", \"seed\": " << args.seed << ", \"seed_offset\": "
     << args.seed_offset << ", \"first_seed\": " << first_seed(args)
     << ", \"sizes\": \"" << sizes << "\", \"seconds\": "
     << args.seconds << ", \"trace\": " << args.trace
     << ", \"smoke\": " << (args.smoke ? "true" : "false")
     << ", \"nproc\": " << nproc() << ", \"build_type\": \""
     << json_escape(SENTOBENCH_BUILD_TYPE) << "\", \"cxx_flags\": \""
     << json_escape(SENTOBENCH_CXX_FLAGS) << "\", \"compiler\": \""
     << json_escape(SENTOBENCH_COMPILER) << " (" << json_escape(__VERSION__)
     << ")\", \"commit\": \"" << json_escape(args.commit) << "\"}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "sentobench: refusing to measure a non-optimized build "
                       "(build type " SENTOBENCH_BUILD_TYPE ")\n");
  return 3;
#endif
  if (SENTOBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "sentobench: refusing to measure a sanitizer build\n");
    return 3;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sentobench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Checks checks;
  Result result;
  try {
    result = args.workload == "fleet-ingest"
                 ? run_fleet_workload(args, checks)
                 : run_campaign_workload(args, checks);
  } catch (const std::exception& e) {
    checks.require(false, std::string("workload threw: ") + e.what());
  }
  std::printf("\n");
  for (const Metric& m : result.metrics)
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%s\n", provenance_json(args, result.sizes).c_str());
  std::printf("%s\n", result_json(result, checks.ok).c_str());
  return checks.ok ? 0 : 1;
}
