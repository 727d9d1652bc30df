#include "pipeline/worker_pool.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "os/irq.hpp"
#include "trace/serialize.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sent::pipeline {

namespace {

/// Chaos-ladder trace I/O leg (same as bench/ext_chaos): save, perturb
/// with the run-seeded substream, salvage-load. The text is encoded into
/// one string, perturbed in place and parsed from a view of it; no stream
/// copies. A zero plan perturbs nothing and the round trip is the identity.
/// Timed as trace.round_trip_ns, apart from pipeline.analyze_ns, so the
/// back end is not charged for the codec (DESIGN.md §11).
trace::NodeTrace round_trip(const trace::NodeTrace& t,
                            const fault::FaultPlan& faults, util::Rng rng) {
  static const obs::Histogram round_trip_ns =
      obs::Registry::global().timer("trace.round_trip_ns");
  obs::ScopedTimer timer(round_trip_ns);
  const std::string text = fault::FaultInjector::perturb_trace_text(
      trace::save_trace(t), faults, rng);
  return trace::load_trace_lenient(text).trace;
}

/// A runner's worker-local arena, or null for fresh construction. Shared
/// because ScenarioRunner is a copyable std::function.
using ArenaPtr = std::shared_ptr<apps::WorldArena>;

ArenaPtr make_arena(const CaseRunnerConfig& config) {
  return config.pooled ? std::make_shared<apps::WorldArena>() : nullptr;
}

void recycle(const ArenaPtr& arena, trace::NodeTrace&& t) {
  if (arena) arena->recycle(std::move(t));
}

fault::FaultPlan plan_for(const CaseRunnerConfig& config) {
  return config.intensity > 0.0
             ? fault::FaultPlan::at_intensity(config.intensity)
             : fault::FaultPlan{};
}

ScenarioRunner make_case1_runner(const CaseRunnerConfig& config) {
  return [config, arena = make_arena(config)](std::uint64_t seed) {
    apps::Case1Config c;
    c.seed = seed;
    c.sample_periods_ms = {20};  // the vulnerable rate
    c.run_seconds = 10.0;
    c.faults = plan_for(config);
    c.event_budget = config.event_budget;
    apps::Case1Result r = apps::run_case1(c, arena.get());
    AnalysisReport report;
    if (config.trace_round_trip) {
      trace::NodeTrace t = round_trip(r.runs[0].sensor_trace, c.faults,
                                      util::Rng(seed).substream("trace-faults"));
      report = analyze({{&t, 0}}, os::irq::kAdc);
      recycle(arena, std::move(t));
    } else {
      report = analyze({{&r.runs[0].sensor_trace, 0}}, os::irq::kAdc);
    }
    for (apps::Case1Run& run : r.runs)
      recycle(arena, std::move(run.sensor_trace));
    return report;
  };
}

ScenarioRunner make_case2_runner(const CaseRunnerConfig& config) {
  return [config, arena = make_arena(config)](std::uint64_t seed) {
    apps::Case2Config c;
    c.seed = seed;
    c.faults = plan_for(config);
    c.event_budget = config.event_budget;
    apps::Case2Result r = apps::run_case2(c, arena.get());
    AnalysisReport report;
    if (config.trace_round_trip) {
      trace::NodeTrace t = round_trip(r.relay_trace, c.faults,
                                      util::Rng(seed).substream("trace-faults"));
      report = analyze({{&t, 0}}, os::irq::kRadioSpi);
      recycle(arena, std::move(t));
    } else {
      report = analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi);
    }
    recycle(arena, std::move(r.relay_trace));
    return report;
  };
}

ScenarioRunner make_case3_runner(const CaseRunnerConfig& config) {
  return [config, arena = make_arena(config)](std::uint64_t seed) {
    apps::Case3Config c;
    c.seed = seed;
    c.faults = plan_for(config);
    c.event_budget = config.event_budget;
    apps::Case3Result r = apps::run_case3(c, arena.get());
    AnalysisReport report;
    if (config.trace_round_trip) {
      // Per-node perturbation substreams, same keying as bench/ext_chaos.
      std::vector<trace::NodeTrace> salvaged;
      salvaged.reserve(r.sources.size());
      for (net::NodeId src : r.sources)
        salvaged.push_back(round_trip(
            r.traces[src], c.faults,
            util::Rng(seed).substream("trace-faults-" +
                                      std::to_string(src))));
      std::vector<TaggedTrace> traces;
      for (trace::NodeTrace& t : salvaged) traces.push_back({&t, 0});
      report = analyze(traces, r.report_line);
      for (trace::NodeTrace& t : salvaged) recycle(arena, std::move(t));
    } else {
      std::vector<TaggedTrace> traces;
      for (net::NodeId src : r.sources) traces.push_back({&r.traces[src], 0});
      report = analyze(traces, r.report_line);
    }
    if (arena) arena->recycle_all(r.traces);
    return report;
  };
}

}  // namespace

ScenarioRunnerFactory make_case_runner_factory(const std::string& name,
                                               const CaseRunnerConfig& config) {
  SENT_REQUIRE_MSG(name == "I" || name == "II" || name == "III",
                   "unknown case study: " << name);
  return [name, config](std::size_t) {
    if (name == "I") return make_case1_runner(config);
    if (name == "III") return make_case3_runner(config);
    return make_case2_runner(config);
  };
}

}  // namespace sent::pipeline
