// Amortized campaign engine (DESIGN.md §15): EventQueue::reset units,
// WorldArena trace recycling, and the pooled-vs-fresh parity battery — a
// reused/reset world must emit bit-identical traces and CampaignStats to a
// freshly constructed one across all three Fig-5 cases, with and without
// fault injection, serial and parallel.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.hpp"
#include "apps/world_arena.hpp"
#include "obs/metrics.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/worker_pool.hpp"
#include "sim/event_queue.hpp"
#include "trace/serialize.hpp"
#include "util/assert.hpp"

namespace sent::pipeline {
namespace {

// ---- EventQueue::reset ----------------------------------------------------

// The reset contract: a scrubbed queue is observationally identical to a
// freshly constructed one — same firing order, same clock, same executed
// count — no matter how dirty it was before the reset.
TEST(EventQueueReset, ResetQueueMatchesFreshExecution) {
  auto drive = [](sim::EventQueue& q) {
    std::vector<int> order;
    q.schedule_at(10, [&order] { order.push_back(1); });
    q.schedule_at(5, [&order] { order.push_back(2); });
    q.schedule_at(10, [&order] { order.push_back(3); });  // FIFO with #1
    q.run_until(20);
    return std::make_pair(order, q.now());
  };

  sim::EventQueue reused;
  // Dirty the queue: schedules, a cancel, a partial drain, a watchdog.
  sim::EventId cancelled = reused.schedule_at(3, [] {});
  reused.schedule_at(7, [] {});
  reused.schedule_at(9, [] { });
  reused.cancel(cancelled);
  reused.set_watchdog_budget(1 << 20);
  reused.run_all();
  reused.reset();

  sim::EventQueue fresh;
  EXPECT_EQ(drive(reused), drive(fresh));
  EXPECT_EQ(reused.now(), fresh.now());
  EXPECT_EQ(reused.executed(), fresh.executed());
  EXPECT_EQ(reused.watchdog_budget(), fresh.watchdog_budget());
}

TEST(EventQueueReset, DropsPendingEventsWithoutRunningThem) {
  sim::EventQueue q;
  bool fired = false;
  q.schedule_at(5, [&fired] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.reset();
  EXPECT_TRUE(q.empty());
  q.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.now(), sim::Cycle{0});
}

// Stale EventIds from before the reset: cancelling one while its slot no
// longer exists is a harmless no-op (the generation-tag contract).
TEST(EventQueueReset, StaleCancelAfterResetIsHarmless) {
  sim::EventQueue q;
  sim::EventId stale = q.schedule_at(5, [] {});
  q.reset();
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_TRUE(q.empty());
}

// reset() is a run boundary, never legal from inside the run itself.
TEST(EventQueueReset, RefusedInsideAnEvent) {
  sim::EventQueue q;
  q.schedule_at(1, [&q] {
    EXPECT_THROW(q.reset(), util::PreconditionError);
  });
  q.run_all();
}

// ---- WorldArena -----------------------------------------------------------

// A run through a warm arena (reused queue slab + recycled trace buffers)
// must serialize to the exact bytes of a fresh-construction run.
TEST(WorldArena, ReusedWorldEmitsBitIdenticalTrace) {
  auto run_and_save = [](apps::WorldArena* arena) {
    apps::Case2Config config;
    config.seed = 42;
    config.run_seconds = 5.0;
    apps::Case2Result r = apps::run_case2(config, arena);
    std::ostringstream os;
    trace::save_trace(r.relay_trace, os);
    if (arena) arena->recycle(std::move(r.relay_trace));
    return os.str();
  };
  const std::string fresh = run_and_save(nullptr);
  apps::WorldArena arena;
  EXPECT_EQ(run_and_save(&arena), fresh);  // cold arena
  EXPECT_GT(arena.banked_buffers(), 0u);
  EXPECT_EQ(run_and_save(&arena), fresh);  // warm: recycled buffers in play
  EXPECT_EQ(run_and_save(&arena), fresh);
}

// A watchdog timeout unwinds mid-run and leaves pending events behind; the
// next checkout must scrub the wedged world and run clean.
TEST(WorldArena, QueueRecoversAfterWatchdogTimeout) {
  apps::WorldArena arena;
  apps::Case2Config config;
  config.seed = 7;
  config.run_seconds = 5.0;
  config.event_budget = 1000;  // far below a real 5s run
  EXPECT_THROW(apps::run_case2(config, &arena), sim::WatchdogTimeout);

  config.event_budget = 0;
  apps::Case2Result pooled = apps::run_case2(config, &arena);
  apps::Case2Result fresh = apps::run_case2(config, nullptr);
  std::ostringstream a, b;
  trace::save_trace(pooled.relay_trace, a);
  trace::save_trace(fresh.relay_trace, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(WorldArena, RecycledBuffersAreScrubbed) {
  apps::WorldArena arena;
  trace::NodeTrace t;
  t.node_id = 9;
  t.lifecycle.push_back({});
  arena.recycle(std::move(t));
  trace::NodeTrace back = arena.take_buffer();
  EXPECT_EQ(back.node_id, 0u);
  EXPECT_TRUE(back.lifecycle.empty());
  EXPECT_EQ(arena.banked_buffers(), 0u);
}

// ---- pooled-vs-fresh parity battery ---------------------------------------

// The tentpole guarantee: the pooled factories produce bit-identical
// CampaignStats to the historic fresh-construction path across all three
// Fig-5 cases, clean and under fault injection, at --jobs 1 and 4.
TEST(WorkerPoolParity, PooledMatchesFreshAcrossCasesFaultsAndJobs) {
  for (const std::string name : {"I", "II", "III"}) {
    for (double intensity : {0.0, 0.5}) {
      CaseRunnerConfig pooled;
      pooled.intensity = intensity;
      pooled.trace_round_trip = intensity > 0.0;
      pooled.event_budget = 50000000;
      CaseRunnerConfig fresh = pooled;
      fresh.pooled = false;

      CampaignOptions options;
      options.first_seed = 1;
      options.runs = 4;
      options.k = 5;
      options.threads = 1;
      CampaignStats golden =
          run_campaign(make_case_runner_factory(name, fresh), options);

      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        options.threads = threads;
        EXPECT_EQ(run_campaign(make_case_runner_factory(name, pooled),
                               options),
                  golden)
            << "case " << name << " intensity " << intensity << " threads "
            << threads;
      }
    }
  }
}

// The obs counters flush at the same run boundaries either way (reset for
// pooled, destruction for fresh), so whole-campaign snapshots agree on
// every deterministic metric.
TEST(WorkerPoolParity, ObsSnapshotsMatchPooledVsFresh) {
  auto snapshot_for = [](bool pooled) {
    obs::Registry::global().reset();
    obs::Registry::global().set_enabled(true);
    CaseRunnerConfig config;
    config.pooled = pooled;
    CampaignOptions options;
    options.first_seed = 1;
    options.runs = 3;
    options.k = 5;
    options.threads = 1;
    run_campaign(make_case_runner_factory("II", config), options);
    obs::Registry::global().set_enabled(false);
    return obs::Registry::global().snapshot();
  };
  obs::Snapshot pooled = snapshot_for(true);
  obs::Snapshot fresh = snapshot_for(false);
  EXPECT_EQ(pooled.counter_value("campaign.runs"), 3u);
  EXPECT_TRUE(pooled.deterministic_equal(fresh));
  EXPECT_TRUE(fresh.deterministic_equal(pooled));
}

// ---- factory plumbing -----------------------------------------------------

TEST(WorkerPool, FactoryRejectsUnknownCase) {
  EXPECT_THROW(make_case_runner_factory("IV", {}), util::PreconditionError);
}

// Each worker gets its own runner (its own arena); the factory is invoked
// lazily, at most once per worker, on the worker's own thread.
TEST(WorkerPool, FactoryInvokedAtMostOncePerWorker) {
  std::atomic<int> built{0};
  ScenarioRunnerFactory factory = [&built](std::size_t) {
    ++built;
    return ScenarioRunner([](std::uint64_t) {
      AnalysisReport report;
      report.samples.resize(1);
      report.scores.resize(1, 0.5);
      report.ranking.push_back({0, 0.5});
      return report;
    });
  };
  CampaignOptions options;
  options.first_seed = 0;
  options.runs = 32;
  options.k = 1;
  options.threads = 4;
  CampaignStats stats = run_campaign(factory, options);
  EXPECT_EQ(stats.runs, 32u);
  EXPECT_GE(built.load(), 1);
  EXPECT_LE(built.load(), 4);
}

// Phase timers (DESIGN.md §11): on a chaos campaign every attempt records
// each phase timer once, at any thread count, and the deterministic
// snapshot sections never carry timers, so they stay byte-identical.
TEST(WorkerPoolPhases, RegistryTimersCountEveryAttempt) {
  obs::Registry& registry = obs::Registry::global();
  CaseRunnerConfig config;
  config.intensity = 0.5;
  config.event_budget = 50'000'000;
  config.trace_round_trip = true;
  std::vector<std::string> json;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    registry.reset();
    registry.set_enabled(true);
    CampaignOptions options;
    options.first_seed = 1;
    options.runs = 6;
    options.k = 5;
    options.threads = threads;
    CampaignStats stats =
        run_campaign(make_case_runner_factory("II", config), options);
    registry.set_enabled(false);
    ASSERT_EQ(stats.failed + stats.timed_out, 0u);
    const obs::Snapshot snap = registry.snapshot();
    json.push_back(snap.to_json());
    for (const char* name : {"sim.setup_ns", "sim.drain_ns",
                             "trace.round_trip_ns", "pipeline.analyze_ns"}) {
      const obs::HistogramData* timer = snap.timer_data(name);
      ASSERT_NE(timer, nullptr) << name;
      EXPECT_EQ(timer->count, stats.runs + stats.retried)
          << name << " at threads " << threads;
      EXPECT_EQ(json.back().find(name), std::string::npos) << name;
    }
  }
  EXPECT_EQ(json[0], json[1]);
}

// Seed batching must not move stats: any chunk size aggregates in seed
// order, bit-identically to serial.
TEST(WorkerPoolBatching, SeedBatchSizeNeverMovesStats) {
  CampaignOptions serial;
  serial.first_seed = 1;
  serial.runs = 24;
  serial.k = 5;
  serial.threads = 1;
  CampaignStats golden =
      run_campaign(make_case_runner_factory("II", {}), serial);
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                            std::size_t{64}}) {
    CampaignOptions options = serial;
    options.threads = 4;
    options.seed_batch = batch;
    EXPECT_EQ(run_campaign(make_case_runner_factory("II", {}), options),
              golden)
        << "seed_batch " << batch;
  }
}

}  // namespace
}  // namespace sent::pipeline
