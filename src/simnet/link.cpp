#include "simnet/link.hpp"

#include <utility>

namespace dgiwarp::sim {

Link::Link(Simulation& sim, Rng& rng, LinkParams params, std::string name)
    : sim_(sim),
      rng_(rng),
      params_(params),
      name_(std::move(name)),
      bytes_delivered_(sim.telemetry().counter("simnet.link.bytes_delivered")),
      frames_queued_(sim.telemetry().counter("simnet.link.frames_queued")) {
  auto& reg = sim_.telemetry();
  stats_.frames_offered.bind(reg.counter("simnet.link.frames_offered"));
  stats_.frames_dropped.bind(reg.counter("simnet.link.drops"));
  stats_.frames_delivered.bind(reg.counter("simnet.link.frames_delivered"));
  stats_.frames_duplicated.bind(reg.counter("simnet.link.frames_duplicated"));
  stats_.frames_corrupted.bind(reg.counter("simnet.link.frames_corrupted"));
}

void Link::bind_cc_counters() {
  if (cc_counters_bound_) return;
  cc_counters_bound_ = true;
  auto& reg = sim_.telemetry();
  stats_.frames_marked.bind(reg.counter("cc.marks"));
  stats_.queue_drops.bind(reg.counter("simnet.link.queue_drops"));
}

void Link::set_ecn_threshold(std::size_t frames) {
  ecn_threshold_ = frames;
  if (frames > 0) bind_cc_counters();
}

void Link::set_queue_capacity(std::size_t frames) {
  queue_capacity_ = frames;
  if (frames > 0) bind_cc_counters();
}

TimeNs Link::serialization_delay(std::size_t wire_bytes) const {
  const double bits = static_cast<double>(wire_bytes) * 8.0;
  return static_cast<TimeNs>(bits / params_.bandwidth_bps * 1e9);
}

std::size_t Link::queue_depth() const {
  while (!departures_.empty() && departures_.front() <= sim_.now())
    departures_.pop_front();
  return departures_.size();
}

void Link::transmit(Frame f) {
  ++stats_.frames_offered;
  auto& reg = sim_.telemetry();

  // Per-port output-queue state first: the admission decisions below look
  // at the depth the frame finds on arrival. Pruned lazily against now()
  // at observation points, so no extra simulation events maintain it.
  while (!departures_.empty() && departures_.front() <= sim_.now())
    departures_.pop_front();

  // Bounded queue: a frame arriving at a full output queue is tail-dropped
  // before it touches the wire — no serialization time is consumed and
  // busy_until_ does not move, exactly like a switch port out of buffers.
  if (queue_capacity_ > 0 && departures_.size() >= queue_capacity_) {
    ++stats_.frames_dropped;
    ++stats_.queue_drops;
    reg.trace().record(telemetry::TraceKind::kLinkDrop, f.id, f.wire_bytes());
    if (f.span)
      reg.spans().stage_at(f.span, telemetry::Stage::kDropped, sim_.now(),
                           f.id);
    return;
  }

  // ECN: the congestion-experienced bit is set while the standing queue is
  // at or above the threshold — the receiver-side CC loop (src/cc/) turns
  // this into CNPs/rate decisions. Marking is done at enqueue time (the
  // depth this frame observed), the deterministic analogue of a switch
  // marking on queue occupancy.
  if (ecn_threshold_ > 0 && departures_.size() >= ecn_threshold_) {
    f.ecn = true;
    ++stats_.frames_marked;
    reg.trace().record(telemetry::TraceKind::kEcnMark, f.id,
                       departures_.size());
  }

  // Output queueing: serialization starts when the link frees up.
  const TimeNs start = busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const TimeNs tx_done = start + serialization_delay(f.wire_bytes());
  busy_until_ = tx_done;

  departures_.push_back(tx_done);
  if (departures_.size() > max_depth_) max_depth_ = departures_.size();

  auto& spans = reg.spans();
  if (start > sim_.now()) {
    frames_queued_.inc();
    // Queue-depth sampling rides the span switch: per-frame histogram
    // samples only accumulate while someone is watching lifecycles.
    if (spans.enabled()) {
      if (!wait_hist_)
        wait_hist_ = &reg.histogram("simnet.link.queue_wait_hist_ns");
      wait_hist_->add(static_cast<double>(start - sim_.now()));
    }
  }
  // Serialization onto the wire begins at `start` — stamped explicitly so
  // the span's queueing phase is exact even though transmit() runs now.
  if (f.span) spans.stage_at(f.span, telemetry::Stage::kWireTx, start, f.id);

  Rng& frng = fault_rng();
  if (faults_.loss && faults_.loss->should_drop(frng, sim_.now())) {
    ++stats_.frames_dropped;
    reg.trace().record(telemetry::TraceKind::kLinkDrop, f.id, f.wire_bytes());
    if (f.span)
      spans.stage_at(f.span, telemetry::Stage::kDropped, tx_done, f.id);
    return;  // the wire time is still consumed; the bits just die
  }

  // Corruption happens after the loss decision: a dropped frame never
  // consults the corruption model, and serialization time was charged for
  // the original length even if the model truncates the tail.
  if (faults_.corruption && !f.payload.empty() &&
      faults_.corruption->corrupt(frng, sim_.now(), f.payload)) {
    f.corrupted = true;
    ++stats_.frames_corrupted;
    reg.trace().record(telemetry::TraceKind::kLinkCorrupt, f.id,
                       f.wire_bytes());
  }

  TimeNs arrival = tx_done + params_.propagation;
  if (faults_.jitter > 0) arrival += frng.range(0, faults_.jitter - 1);
  if (faults_.reorder_rate > 0.0 && frng.chance(faults_.reorder_rate))
    arrival += faults_.reorder_delay;

  // Frame duplication (e.g. L2 flooding / retransmitting middleboxes): a
  // second identical copy arrives `dup_delay` after the original.
  if (faults_.dup_rate > 0.0 && frng.chance(faults_.dup_rate)) {
    ++stats_.frames_duplicated;
    sim_.at(arrival + faults_.dup_delay,
            [this, slot = park(f)] { arrive(slot, true); });
  }

  sim_.at(arrival, [this, slot = park(std::move(f))] { arrive(slot, false); });
}

u32 Link::park(Frame f) {
  if (free_wire_.empty()) {
    wire_.push_back(std::move(f));
    return static_cast<u32>(wire_.size() - 1);
  }
  const u32 slot = free_wire_.back();
  free_wire_.pop_back();
  wire_[slot] = std::move(f);
  return slot;
}

void Link::arrive(u32 slot, bool copy) {
  Frame f = std::move(wire_[slot]);
  free_wire_.push_back(slot);
  ++stats_.frames_delivered;
  bytes_delivered_.inc(f.payload.size());
  if (f.span && !copy)
    sim_.telemetry().spans().stage(f.span, telemetry::Stage::kWireRx, f.id);
  if (rx_) rx_(std::move(f));
}

}  // namespace dgiwarp::sim
