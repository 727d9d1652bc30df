#include "fault/injector.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace sent::fault {

namespace {

// Planned-vs-realized bookkeeping (DESIGN.md §11): `*_planned` counts what
// attach time scheduled, `*_realized` what actually perturbed the run — the
// gap a fault-coverage claim must report (ZOFI's lesson). All values are a
// pure function of (plan, seed), so they live in the deterministic metrics
// sections. Handles register as one block on first use.
struct Metrics {
  obs::Counter busy_planned =
      obs::Registry::global().counter("fault.radio_busy_planned");
  obs::Counter busy_realized =
      obs::Registry::global().counter("fault.radio_busy_realized");
  obs::Counter mute_planned =
      obs::Registry::global().counter("fault.radio_mute_planned");
  obs::Counter mute_realized =
      obs::Registry::global().counter("fault.radio_mute_realized");
  obs::Counter sensor_stuck_planned =
      obs::Registry::global().counter("fault.sensor_stuck_planned");
  obs::Counter sensor_stuck_realized =
      obs::Registry::global().counter("fault.sensor_stuck_realized");
  obs::Counter sensor_spikes =
      obs::Registry::global().counter("fault.sensor_spikes_realized");
  obs::Counter clock_drift_nodes =
      obs::Registry::global().counter("fault.clock_drift_nodes");
  obs::Counter spurious_planned =
      obs::Registry::global().counter("fault.spurious_irq_planned");
  obs::Counter spurious_realized =
      obs::Registry::global().counter("fault.spurious_irq_realized");
  obs::Counter irq_drops =
      obs::Registry::global().counter("fault.irq_drops_realized");
  obs::Counter trace_truncations =
      obs::Registry::global().counter("fault.trace_truncations");
  obs::Counter trace_corruptions =
      obs::Registry::global().counter("fault.trace_corruptions");

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

}  // namespace

FaultInjector::FaultInjector(sim::EventQueue& queue, FaultPlan plan,
                             util::Rng rng, sim::Cycle horizon)
    : queue_(queue), plan_(plan), rng_(rng), horizon_(horizon) {
  SENT_REQUIRE_MSG(horizon >= queue.now(),
                   "fault horizon " << horizon << " precedes now "
                                    << queue.now());
}

std::vector<sim::Cycle> FaultInjector::draw_poisson(util::Rng& rng,
                                                    double per_s) const {
  std::vector<sim::Cycle> starts;
  if (per_s <= 0.0) return starts;
  const double mean_gap =
      static_cast<double>(sim::kCyclesPerSecond) / per_s;
  double t = static_cast<double>(queue_.now());
  const double end = static_cast<double>(horizon_);
  for (;;) {
    t += rng.exponential(mean_gap);
    if (t >= end) return starts;
    starts.push_back(static_cast<sim::Cycle>(t));
  }
}

void FaultInjector::attach_radio(hw::RadioChip& chip) {
  const std::string id = std::to_string(chip.node_id());
  if (plan_.radio_stuck_busy_per_s > 0.0) {
    util::Rng sub = rng_.substream("radio-busy-" + id);
    const sim::Cycle dur = sim::cycles_from_millis(plan_.radio_stuck_busy_ms);
    for (sim::Cycle at : draw_poisson(sub, plan_.radio_stuck_busy_per_s)) {
      ++counts_.busy_windows;
      Metrics::get().busy_planned.inc();
      // Windows are clamped to the horizon so a run that stops there is
      // never left with the chip wedged by a half-expired fault.
      const sim::Cycle d = std::min(dur, horizon_ - at);
      queue_.schedule_at(at, [&chip, d] {
        Metrics::get().busy_realized.inc();
        chip.inject_stuck_busy(d);
      });
    }
  }
  if (plan_.radio_mute_per_s > 0.0) {
    util::Rng sub = rng_.substream("radio-mute-" + id);
    const sim::Cycle dur = sim::cycles_from_millis(plan_.radio_mute_ms);
    for (sim::Cycle at : draw_poisson(sub, plan_.radio_mute_per_s)) {
      ++counts_.mute_windows;
      Metrics::get().mute_planned.inc();
      const sim::Cycle d = std::min(dur, horizon_ - at);
      queue_.schedule_at(at, [&chip, d] {
        Metrics::get().mute_realized.inc();
        chip.inject_mute(d);
      });
    }
  }
}

hw::SensorFn FaultInjector::wrap_sensor(hw::SensorFn inner,
                                        const std::string& label) {
  if (plan_.sensor_stuck_per_s <= 0.0 && plan_.sensor_spike_prob <= 0.0)
    return inner;
  util::Rng sub = rng_.substream("sensor-" + label);
  auto starts = draw_poisson(sub, plan_.sensor_stuck_per_s);
  counts_.sensor_stuck_windows += starts.size();
  Metrics::get().sensor_stuck_planned.inc(starts.size());
  const sim::Cycle dur = sim::cycles_from_millis(plan_.sensor_stuck_ms);
  const double spike_prob = plan_.sensor_spike_prob;
  const double spike = plan_.sensor_spike_counts;

  // Mutable state shared by all calls; the sensor is sampled at
  // non-decreasing cycles, so a cursor over the window list suffices.
  struct State {
    util::Rng rng;                      // spike draws
    std::vector<sim::Cycle> starts;
    std::size_t cursor = 0;
    std::optional<std::uint16_t> held;  // stuck-at value of current window
  };
  auto st = std::make_shared<State>(
      State{sub.substream("spikes"), std::move(starts), 0, std::nullopt});

  return [inner, st, dur, spike_prob, spike](sim::Cycle now) -> std::uint16_t {
    // Drop expired windows (and the value they held).
    while (st->cursor < st->starts.size() &&
           st->starts[st->cursor] + dur <= now) {
      ++st->cursor;
      st->held.reset();
    }
    const bool stuck = st->cursor < st->starts.size() &&
                       st->starts[st->cursor] <= now;
    if (stuck) {
      // Stuck-at: freeze at the first value sampled inside the window.
      if (!st->held) {
        st->held = inner(now);
        Metrics::get().sensor_stuck_realized.inc();
      }
      return *st->held;
    }
    double v = static_cast<double>(inner(now));
    if (spike_prob > 0.0 && st->rng.chance(spike_prob)) {
      v += spike;
      Metrics::get().sensor_spikes.inc();
    }
    return static_cast<std::uint16_t>(std::clamp(v, 0.0, 1023.0));
  };
}

void FaultInjector::attach_clock(std::uint32_t node_id,
                                 os::TimerService& timers) {
  if (plan_.clock_drift_ppm <= 0.0) return;
  util::Rng sub = rng_.substream("clock-" + std::to_string(node_id));
  Metrics::get().clock_drift_nodes.inc();
  timers.set_drift_ppm(
      sub.uniform(-plan_.clock_drift_ppm, plan_.clock_drift_ppm));
}

void FaultInjector::attach_interrupts(std::uint32_t node_id,
                                      mcu::Machine& machine,
                                      os::TimerService& timers) {
  const std::string id = std::to_string(node_id);
  if (plan_.spurious_irq_per_s > 0.0) {
    util::Rng sub = rng_.substream("spurious-" + id);
    for (sim::Cycle at : draw_poisson(sub, plan_.spurious_irq_per_s)) {
      ++counts_.spurious_irqs;
      Metrics::get().spurious_planned.inc();
      // The line is picked at fire time from whatever handlers are bound
      // then (Rule 1: only a line's own handler can run), but the pick
      // itself is pre-drawn so scheduling order never shifts the stream.
      const std::uint64_t pick = sub.next();
      queue_.schedule_at(at, [&machine, &timers, pick] {
        auto lines = machine.bound_lines();
        if (lines.empty()) return;
        Metrics::get().spurious_realized.inc();
        const trace::IrqLine line = lines[pick % lines.size()];
        // A spurious interrupt on a timer line is an early compare match;
        // a raw raise would run the handler with the slot still armed and
        // break the driver's restart invariant.
        if (timers.owns(line)) {
          timers.fire_early(line);
          return;
        }
        machine.raise_irq(line);
      });
    }
  }
  if (plan_.drop_irq_prob > 0.0) {
    auto drop_rng =
        std::make_shared<util::Rng>(rng_.substream("irq-drop-" + id));
    const double p = plan_.drop_irq_prob;
    machine.set_irq_drop_hook([drop_rng, p](trace::IrqLine) {
      if (!drop_rng->chance(p)) return false;
      Metrics::get().irq_drops.inc();
      return true;
    });
  }
}

std::string FaultInjector::perturb_trace_text(std::string text,
                                              const FaultPlan& plan,
                                              util::Rng& rng) {
  if (!plan.any_trace() || text.empty()) return text;
  if (plan.trace_truncate_prob > 0.0 &&
      rng.chance(plan.trace_truncate_prob)) {
    Metrics::get().trace_truncations.inc();
    text.resize(static_cast<std::size_t>(rng.below(text.size() + 1)));
  }
  if (plan.trace_corrupt_prob > 0.0 && !text.empty() &&
      rng.chance(plan.trace_corrupt_prob)) {
    Metrics::get().trace_corruptions.inc();
    // Rewrite one byte with a character that is never valid in a numeric
    // field, so a hit on a number, a tab, a newline or a section name
    // fails the parse. Not every hit is detectable: 'X' is a valid
    // lifecycle kind code (Reti), so a P or I row rewritten to X loads
    // cleanly, and a hit inside an instruction-table name or a bug-kind
    // string parses as a different string.
    static constexpr char kGarbage[] = {'X', '*', '?', '!', '#'};
    text[rng.below(text.size())] =
        kGarbage[rng.below(sizeof(kGarbage))];
  }
  return text;
}

FaultPlan FaultPlan::at_intensity(double intensity) {
  FaultPlan p;
  if (intensity <= 0.0) return p;
  p.radio_stuck_busy_per_s = 2.0 * intensity;
  p.radio_mute_per_s = 1.0 * intensity;
  p.sensor_stuck_per_s = 0.5 * intensity;
  p.sensor_spike_prob = 0.01 * intensity;
  p.clock_drift_ppm = 50.0 * intensity;
  p.spurious_irq_per_s = 5.0 * intensity;
  p.drop_irq_prob = 0.002 * intensity;
  p.trace_truncate_prob = 0.15 * intensity;
  p.trace_corrupt_prob = 0.15 * intensity;
  return p;
}

}  // namespace sent::fault
