// Unidirectional link with serialization delay, propagation delay, and
// fault injection. Two of these form a full-duplex cable.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simnet/faults.hpp"
#include "simnet/packet.hpp"
#include "simnet/simulation.hpp"

namespace dgiwarp::sim {

struct LinkParams {
  double bandwidth_bps = 10e9;  // 10GE, matching the paper's testbed
  TimeNs propagation = 300;     // ~60 m of fibre + PHY
};

/// Per-link view, read where one link is compared with its siblings (LAG
/// members, a trunk against its hosts); every field also counts into the
/// owning Simulation's registry under simnet.link.* (all links summed).
struct LinkStats {
  telemetry::Metric frames_offered;
  telemetry::Metric frames_dropped;
  telemetry::Metric frames_delivered;
  telemetry::Metric frames_duplicated;  // extra copies injected by faults
  telemetry::Metric frames_corrupted;   // payloads damaged in flight
  // Congestion instrumentation. These two only mirror into the registry
  // (cc.marks / simnet.link.queue_drops) once a threshold or capacity is
  // configured on some link — default fabrics keep their metrics JSON free
  // of cc keys (bound lazily, see Link::bind_cc_counters).
  telemetry::Metric frames_marked;  // ECN CE bits set at this queue
  telemetry::Metric queue_drops;    // tail drops at the bounded queue
};

/// One direction of one cable. Topology hands these out by reference
/// (host_uplink/host_downlink/trunk_up/trunk_down) as its fault-injection
/// and inspection surface; a reference stays valid for the topology's
/// lifetime.
class Link {
 public:
  using Receiver = std::function<void(Frame)>;

  Link(Simulation& sim, Rng& rng, LinkParams params, std::string name);

  void set_receiver(Receiver rx) { rx_ = std::move(rx); }
  /// Install a fault configuration on this direction (replacing any
  /// previous one). See Faults::isolated for per-link draw streams.
  void set_faults(Faults f) { faults_ = std::move(f); }

  /// ECN marking: frames enqueued while queue_depth() >= `frames` get their
  /// congestion-experienced bit set (0 disables, the default). Mirrors a
  /// switch port's WRED/ECN threshold in its crudest deterministic form.
  void set_ecn_threshold(std::size_t frames);
  /// Bounded output queue: frames offered while queue_depth() >= `frames`
  /// are tail-dropped without consuming wire time (0 = unbounded, the
  /// default — the pre-CC fabric behaviour).
  void set_queue_capacity(std::size_t frames);

  /// Queue a frame for transmission. Serialization begins when the link is
  /// free (output queueing), then the frame propagates, possibly dropped,
  /// jittered or reordered by the fault model, and is handed to the
  /// receiver callback.
  void transmit(Frame f);

  /// Virtual time needed to serialize `wire_bytes` onto this link.
  TimeNs serialization_delay(std::size_t wire_bytes) const;

  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Frames accepted but not yet fully serialized onto the wire (the
  /// output-queue depth a switch port would show right now). Exact at
  /// observation time: departures up to now() are pruned lazily, no extra
  /// simulation events are scheduled to maintain it.
  std::size_t queue_depth() const;
  /// High-water mark of queue_depth() over the link's lifetime.
  std::size_t max_queue_depth() const { return max_depth_; }

 private:
  /// Fault decisions draw from the fault config's dedicated stream when one
  /// was installed (Faults::isolated), else from the fabric-wide stream.
  Rng& fault_rng() { return faults_.rng ? *faults_.rng : rng_; }

  /// Park `f` in a free slot of wire_ until its arrival event.
  u32 park(Frame f);
  /// The arrival event of the frame in `slot`: unpark it and hand it to the
  /// receiver. A duplicated `copy` does not mark the span's kWireRx stage.
  void arrive(u32 slot, bool copy);

  /// Bind the congestion counters into the registry the first time either
  /// CC feature is configured. Deliberately not done in the constructor:
  /// registry keys exist iff some link opted into marking/bounding, keeping
  /// default-config metrics exports byte-identical to the pre-CC tree.
  void bind_cc_counters();

  Simulation& sim_;
  Rng& rng_;
  LinkParams params_;
  std::string name_;
  Receiver rx_;
  Faults faults_;
  TimeNs busy_until_ = 0;
  LinkStats stats_;
  telemetry::Counter& bytes_delivered_;
  telemetry::Counter& frames_queued_;  // frames that waited for the wire
  mutable std::deque<TimeNs> departures_;  // tx_done of queued frames
  // Frames between transmit() and their arrival, each in a slot that its
  // arrival event names, so the event captures 16 B and allocates nothing.
  // Not a FIFO: jitter, reorder and duplication change the arrival order.
  std::vector<Frame> wire_;
  std::vector<u32> free_wire_;
  std::size_t max_depth_ = 0;
  std::size_t ecn_threshold_ = 0;   // 0 = no marking
  std::size_t queue_capacity_ = 0;  // 0 = unbounded
  bool cc_counters_bound_ = false;
  // Fetched on the first queued frame while spans are on, so the key enters
  // the registry when that frame needs it, as a by-name lookup would.
  telemetry::Histogram* wait_hist_ = nullptr;
};

}  // namespace dgiwarp::sim
