// Per-node CPU resource model.
//
// The paper's software iWARP is CPU-bound: copies, CRC32, MPA marker
// insertion and kernel protocol processing all contend for the host CPU.
// CpuModel serializes that work on a single timeline per node, which is what
// makes bandwidth saturate at software-stack rates instead of line rate.
#pragma once

#include "common/types.hpp"
#include "simnet/simulation.hpp"

namespace dgiwarp::sim {

/// Two-lane CPU: kernel-context work (interrupts, softirq protocol
/// processing, ACK generation) preempts user-space work (the iWARP stack's
/// copies, CRCs, marker handling). Kernel charges serialize among
/// themselves and displace queued user work; user charges queue FIFO in
/// their own lane. Without this split, ACKs would wait behind the
/// receiver's entire user-space backlog, inflating RTT with queue depth —
/// which no real kernel does.
class CpuModel {
 public:
  explicit CpuModel(Simulation& sim) : sim_(sim) {}

  /// User-lane charge: reserve the CPU for `cost` ns after previously
  /// queued user work; returns the completion time.
  TimeNs charge(TimeNs cost);

  /// Kernel-lane charge: runs after earlier kernel work only, and pushes
  /// pending user work back by `cost` (preemption steals those cycles).
  TimeNs charge_kernel(TimeNs cost);

  /// Charge on the respective lane and schedule `done` at completion.
  void charge_then(TimeNs cost, Simulation::Task done);
  void charge_kernel_then(TimeNs cost, Simulation::Task done);

  /// CostSite-tagged variants: identical timing (the tag only feeds the
  /// cost-attribution profiler, telemetry/profiler.hpp, and profiling off
  /// is one predictable branch inside record()). Splitting one combined
  /// charge into several tagged ones is timing-neutral too — sequential
  /// charges on a lane are additive.
  TimeNs charge(TimeNs cost, const telemetry::CostSite& site) {
    profile(site, cost);
    return charge(cost);
  }
  TimeNs charge_kernel(TimeNs cost, const telemetry::CostSite& site) {
    profile(site, cost);
    return charge_kernel(cost);
  }
  void charge_then(TimeNs cost, const telemetry::CostSite& site,
                   Simulation::Task done) {
    profile(site, cost);
    charge_then(cost, std::move(done));
  }
  void charge_kernel_then(TimeNs cost, const telemetry::CostSite& site,
                          Simulation::Task done) {
    profile(site, cost);
    charge_kernel_then(cost, std::move(done));
  }

  TimeNs free_at() const { return user_free_at_; }
  TimeNs busy_total() const { return busy_total_; }

 private:
  void profile(const telemetry::CostSite& site, TimeNs cost) {
    sim_.telemetry().profiler().record(site, cost);
  }

  Simulation& sim_;
  TimeNs user_free_at_ = 0;
  TimeNs kernel_free_at_ = 0;
  TimeNs busy_total_ = 0;
};

}  // namespace dgiwarp::sim
