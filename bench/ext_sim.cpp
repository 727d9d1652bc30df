// Extension E6 — interpreter-core throughput: virtual MIPS and events/sec
// of the bytecode dispatch engine, measured on the three Fig-5 case studies.
//
// The timed region covers only the simulation (run_caseN). Runs go through
// one apps::WorldArena (DESIGN.md §15), as campaign workers run them: an
// untimed warm-up run grows the event slab and the trace buffers, and every
// timed rep then starts from that same warm state, so the timings measure
// dispatch rather than allocator and page-fault history. Every run's
// traces are serialized and digested (FNV-1a over the save_trace bytes):
// the digest must be the same in every run and, at seed 1, must equal the
// digest pinned next to the case runner. Those pins were taken when the
// bytecode engine and an independent closure-per-instruction engine agreed
// byte for byte (DESIGN.md §12.5), so a vMIPS number only passes the gate
// for a run that reproduces that exact interleaving.
//
// Results land in BENCH_sim.json. --min-mips turns the binary into a
// regression gate: one vMIPS floor per case, and the run fails if any case
// falls below its floor or any digest diverges.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "bench_util.hpp"
#include "trace/serialize.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"

using namespace sent;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Everything one simulation run produces that the gate needs.
struct Outcome {
  std::vector<trace::NodeTrace> traces;
  std::uint64_t events = 0;
};

/// FNV-1a digest and size of a run's concatenated save_trace bytes.
struct TraceDigest {
  std::uint64_t fnv = 0;
  std::size_t bytes = 0;
  bool operator==(const TraceDigest&) const = default;
};

struct Case {
  const char* name;
  Outcome (*run)(std::uint64_t seed, apps::WorldArena& arena);
  TraceDigest seed1;  ///< pinned digest of the seed-1 run
};

Outcome run_fig5a(std::uint64_t seed, apps::WorldArena& arena) {
  apps::Case1Config config;
  config.seed = seed;
  config.sample_periods_ms = {20};  // the vulnerable rate
  config.run_seconds = 10.0;
  config.osc.maintenance_heavy_prob = 1.0;
  config.osc.heavy_iterations = 50000;
  config.osc.heavy_iteration_cost = 40;
  apps::Case1Result r = apps::run_case1(config, &arena);
  Outcome out;
  out.traces.push_back(std::move(r.runs[0].sensor_trace));
  out.events = r.events_executed;
  return out;
}
constexpr TraceDigest kFig5aSeed1{0x548db880aec644c8, 5046041};

Outcome run_fig5b(std::uint64_t seed, apps::WorldArena& arena) {
  apps::Case2Config config;
  config.seed = seed;
  // Bench variant of the Fig-5b workload: large sensor reports. The relay
  // checksums one byte per loop iteration, so the payload range sets the
  // instruction density of the run (the busy-drop bug itself is
  // payload-agnostic).
  config.min_payload_bytes = 1024;
  config.max_payload_bytes = 2048;
  config.mean_interval_ms = 80.0;
  apps::Case2Result r = apps::run_case2(config, &arena);
  Outcome out;
  out.traces.push_back(std::move(r.relay_trace));
  out.events = r.events_executed;
  return out;
}
constexpr TraceDigest kFig5bSeed1{0x79f39bf143ad74c8, 2500089};

Outcome run_fig5c(std::uint64_t seed, apps::WorldArena& arena) {
  apps::Case3Config config;
  config.seed = seed;
  // Bench variant of the Fig-5c workload: every non-root node reports at a
  // high rate, so the anatomized report handler (sample + encode loop)
  // dominates the run rather than radio airtime.
  config.num_sources = 8;
  config.app.report_period = sim::cycles_from_millis(8);
  config.app.report_stagger = config.app.report_period / 9;
  config.app.mean_event_on = sim::cycles_from_millis(10000);
  config.app.mean_event_off = sim::cycles_from_millis(500);
  config.app.encode_words = 8;
  config.app.heartbeat_period = sim::cycles_from_millis(3000);
  config.app.beacon_period = sim::cycles_from_millis(4000);
  config.app.heartbeat_padding = 8;
  apps::Case3Result r = apps::run_case3(config, &arena);
  Outcome out;
  for (net::NodeId src : r.sources)
    out.traces.push_back(std::move(r.traces[src]));
  arena.recycle_all(r.traces);  // the root's buffer (sources are moved-from)
  out.events = r.events_executed;
  return out;
}
constexpr TraceDigest kFig5cSeed1{0x8d411744a2b00eae, 12050926};

TraceDigest digest_of(const std::vector<trace::NodeTrace>& traces) {
  std::string blob;
  for (const auto& t : traces) blob += trace::save_trace(t);
  return {util::fnv1a64(blob), blob.size()};
}

std::uint64_t total_instrs(const std::vector<trace::NodeTrace>& traces) {
  std::uint64_t n = 0;
  for (const auto& t : traces) n += t.instrs.size();
  return n;
}

/// One case's measurement.
struct CaseResult {
  std::string name;
  double wall_seconds = 0.0;  ///< best over --reps
  std::uint64_t instrs = 0;
  std::uint64_t events = 0;
  TraceDigest digest;
  bool reps_agree = true;  ///< every rep produced the same digest
  bool pinned = false;     ///< seed 1: compared against the pinned digest
  bool matches_pin = true;

  bool ok() const { return reps_agree && matches_pin; }
  double vmips() const {
    return wall_seconds > 0.0
               ? static_cast<double>(instrs) / wall_seconds / 1e6
               : 0.0;
  }
  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

CaseResult run_case(const Case& c, std::uint64_t seed, int reps) {
  CaseResult result;
  result.name = c.name;
  apps::WorldArena arena;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1: untimed warm-up
    auto t0 = std::chrono::steady_clock::now();
    Outcome out = c.run(seed, arena);
    double wall = seconds_since(t0);
    const TraceDigest digest = digest_of(out.traces);
    if (rep < 0) {
      result.instrs = total_instrs(out.traces);
      result.events = out.events;
      result.digest = digest;
    } else {
      result.wall_seconds =
          rep == 0 ? wall : std::min(result.wall_seconds, wall);
      result.reps_agree = result.reps_agree && digest == result.digest;
    }
    arena.recycle_all(out.traces);
  }
  if (seed == 1) {
    result.pinned = true;
    result.matches_pin = result.digest == c.seed1;
  }

  std::printf("%-26s %7.2f vMIPS  %7.3fs %9.0f ev/s  (%" PRIu64
              " instrs, %" PRIu64 " events)\n",
              c.name, result.vmips(), result.wall_seconds,
              result.events_per_sec(), result.instrs, result.events);
  std::printf("%-26s traces %016" PRIx64 " %zu bytes  %s\n", "",
              result.digest.fnv, result.digest.bytes,
              !result.ok()   ? "DIVERGED"
              : result.pinned ? "matches pin"
                              : "unpinned seed");
  return result;
}

/// Parse "f1,f2,f3" (one vMIPS floor per case); "" or "0" means no floors.
bool parse_floors(const std::string& value, std::size_t cases,
                  std::vector<double>& floors) {
  floors.assign(cases, 0.0);
  if (value.empty() || value == "0") return true;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::size_t comma = value.find(',', pos);
    const bool last = i + 1 == cases;
    if (last != (comma == std::string::npos)) return false;
    const std::string field = value.substr(pos, comma - pos);
    char* end = nullptr;
    floors[i] = std::strtod(field.c_str(), &end);
    if (field.empty() || *end != '\0' || floors[i] < 0.0) return false;
    pos = comma + 1;
  }
  return true;
}

bool write_json(const std::string& path, int reps,
                const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << "{\n  \"reps\": " << reps << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, c.digest.fnv);
    os << "    {\"name\": \"" << c.name << "\""
       << ", \"instrs\": " << c.instrs << ", \"events\": " << c.events
       << ",\n     \"wall_seconds\": " << c.wall_seconds
       << ", \"vmips\": " << c.vmips()
       << ", \"events_per_sec\": " << c.events_per_sec()
       << ",\n     \"trace_fnv\": \"" << digest
       << "\", \"trace_bytes\": " << c.digest.bytes
       << ", \"pinned\": " << (c.pinned ? "true" : "false")
       << ", \"traces_match\": " << (c.ok() ? "true" : "false") << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Case kCases[] = {
      {"case I (D=20ms, 10s)", run_fig5a, kFig5aSeed1},
      {"case II (20s)", run_fig5b, kFig5bSeed1},
      {"case III (9 nodes, 15s)", run_fig5c, kFig5cSeed1},
  };
  constexpr std::size_t kNumCases = std::size(kCases);

  util::Cli cli;
  cli.add_flag("seed", "scenario seed (seed 1 is checked against pins)", "1");
  cli.add_flag("reps",
               "timed repetitions per case after one untimed warm-up "
               "(best-of)",
               "3");
  cli.add_flag("json", "output file", "BENCH_sim.json");
  cli.add_flag("min-mips",
               "fail unless each case reaches its vMIPS floor: three "
               "comma-separated floors for cases I,II,III (0 = no floors)",
               "0");
  if (!cli.parse(argc, argv)) return 1;

  auto seed = static_cast<std::uint64_t>(cli.get_nonneg_int("seed"));
  int reps = static_cast<int>(cli.get_nonneg_int("reps"));
  if (reps < 1) reps = 1;
  std::vector<double> floors;
  if (!parse_floors(cli.get("min-mips"), kNumCases, floors)) {
    std::fprintf(stderr,
                 "flag --min-mips expects 0 or %zu comma-separated "
                 "non-negative numbers, got '%s'\n",
                 kNumCases, cli.get("min-mips").c_str());
    return 2;
  }

  bench::section("Extension E6: bytecode dispatch throughput");
  std::printf("seed %" PRIu64 ", best of %d warm reps per case\n\n", seed,
              reps);

  std::vector<CaseResult> results;
  for (const Case& c : kCases) results.push_back(run_case(c, seed, reps));

  bool ok = true;
  for (std::size_t i = 0; i < kNumCases; ++i) {
    const CaseResult& r = results[i];
    if (!r.ok()) {
      std::printf("!! %s: traces diverge from the %s\n", r.name.c_str(),
                  r.reps_agree ? "pinned digest" : "first rep");
      ok = false;
    }
    if (floors[i] > 0.0 && r.vmips() < floors[i]) {
      std::printf("!! %s: %.2f vMIPS below floor %.2f\n", r.name.c_str(),
                  r.vmips(), floors[i]);
      ok = false;
    }
  }

  if (write_json(cli.get("json"), reps, results))
    std::printf("\nresults written to %s\n", cli.get("json").c_str());
  return ok ? 0 : 1;
}
