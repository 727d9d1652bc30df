// FaultInjector — realizes a FaultPlan against one run's world.
//
// Construction draws nothing. Each attach_* call derives an independent,
// label-keyed Rng substream (keyed by the attached component's node id), so
// the faults one component sees do not depend on how many other components
// are attached or in which order other substreams are consumed. All window
// schedules are drawn eagerly at attach time over [now, horizon); only the
// pre-drawn events are then placed on the simulation queue. That makes a
// chaos run a pure function of (plan, seed): bit-identical at any campaign
// thread count.
//
// Layer map:
//   attach_radio      — hardware: stuck-busy + mute windows
//   wrap_sensor       — hardware: stuck-at windows + glitch spikes
//   attach_clock      — hardware: per-node crystal drift (timer ppm)
//   attach_interrupts — OS: spurious raises + dropped raises
//   perturb_trace_text— trace I/O: truncation / corruption (static; used
//                       on save/load round-trips)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "hw/radio.hpp"
#include "hw/sensor.hpp"
#include "mcu/machine.hpp"
#include "os/timer.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace sent::fault {

class FaultInjector {
 public:
  /// Faults are scheduled over [queue.now(), horizon).
  FaultInjector(sim::EventQueue& queue, FaultPlan plan, util::Rng rng,
                sim::Cycle horizon);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  FaultInjector(FaultInjector&&) = default;

  // ---- hardware layer ----------------------------------------------------

  /// Schedule stuck-busy and mute windows on a radio chip.
  void attach_radio(hw::RadioChip& chip);

  /// Wrap a sensor signal with stuck-at windows and glitch spikes. The
  /// label keys the substream (use e.g. "adc-<node>").
  hw::SensorFn wrap_sensor(hw::SensorFn inner, const std::string& label);

  /// Draw this node's crystal drift and apply it to its timer service.
  void attach_clock(std::uint32_t node_id, os::TimerService& timers);

  // ---- OS layer ----------------------------------------------------------

  /// Schedule spurious interrupt raises (on lines with bound handlers at
  /// fire time) and install the dropped-raise filter on a machine. A
  /// spurious raise that lands on a timer line is routed through the timer
  /// service as an early fire so driver bookkeeping stays consistent.
  void attach_interrupts(std::uint32_t node_id, mcu::Machine& machine,
                         os::TimerService& timers);

  // ---- trace I/O layer ---------------------------------------------------

  /// Perturb a serialized trace per the plan: maybe truncate at a random
  /// offset, maybe rewrite one random byte. Some rewrites load cleanly (see
  /// the definition). Zero-probability plans return the text unchanged
  /// without consuming any randomness.
  static std::string perturb_trace_text(std::string text,
                                        const FaultPlan& plan,
                                        util::Rng& rng);

  // ---- bookkeeping -------------------------------------------------------

  struct Counts {
    std::uint64_t busy_windows = 0;
    std::uint64_t mute_windows = 0;
    std::uint64_t sensor_stuck_windows = 0;
    std::uint64_t spurious_irqs = 0;  ///< scheduled (delivery may coalesce)
  };
  const Counts& counts() const { return counts_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  sim::EventQueue& queue_;
  FaultPlan plan_;
  util::Rng rng_;
  sim::Cycle horizon_;
  Counts counts_;

  /// Poisson window starts over [now, horizon) at `per_s` windows/second.
  std::vector<sim::Cycle> draw_poisson(util::Rng& rng, double per_s) const;
};

}  // namespace sent::fault
