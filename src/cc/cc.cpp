#include "cc/cc.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dgiwarp::cc {

namespace {
// Alpha below this is congestion-free for all practical purposes: stop the
// decay timer instead of rescheduling it forever (Simulation::run() must be
// able to drain once traffic stops).
constexpr double kAlphaFloor = 1.0 / 256.0;
// Rate within this fraction of line rate snaps to line rate and disarms
// the recovery timer (same drain argument).
constexpr double kLineSnap = 0.999;
}  // namespace

const char* cc_mode_name(CcMode m) {
  switch (m) {
    case CcMode::kOff: return "off";
    case CcMode::kDcqcn: return "dcqcn";
    case CcMode::kTimely: return "timely";
  }
  return "?";
}

RateController::RateController(sim::Simulation& sim, CcMode mode,
                               CcParams params)
    : sim_(sim),
      mode_(mode),
      params_(params),
      // Constructed only for cc_mode != kOff, so this adds cc.* keys exactly
      // to the runs that opted into congestion control (default-config
      // metrics JSON stays byte-identical).
      cnps_(sim.telemetry().counter("cc.cnps")) {}

RateController::Flow& RateController::flow(u64 key) {
  auto [it, inserted] = flows_.try_emplace(key);
  if (inserted) {
    it->second.rate = kLineRateBps;
    it->second.target = kLineRateBps;
  }
  return it->second;
}

double RateController::rate_bps(u64 key) const {
  auto it = flows_.find(key);
  return it == flows_.end() ? kLineRateBps : it->second.rate;
}

void RateController::set_rate(u64 key, Flow& f, double r) {
  r = std::clamp(r, kMinRateBps, kLineRateBps);
  if (r < f.rate) ++rate_decreases_;
  f.rate = r;
  sim_.telemetry().trace().record(telemetry::TraceKind::kCcRateChange, key,
                                  static_cast<u64>(r));
}

TimeNs RateController::reserve_send(u64 key, std::size_t packet_bytes) {
  Flow& f = flow(key);
  const TimeNs start = std::max(f.next_tx, sim_.now());
  const double bits =
      static_cast<double>(packet_bytes + kWireOverheadBytes) * 8.0;
  f.next_tx = start + static_cast<TimeNs>(bits / f.rate * 1e9);
  return start;
}

void RateController::on_cnp(u64 key) {
  if (mode_ != CcMode::kDcqcn) return;
  Flow& f = flow(key);
  cnps_.inc();
  sim_.telemetry().trace().record(telemetry::TraceKind::kCcCnp, key,
                                  static_cast<u64>(f.rate));
  // DCQCN reaction point: bump the congestion estimate, snapshot the
  // current rate as the recovery target, cut the rate by alpha/2.
  f.alpha = (1.0 - kDcqcnG) * f.alpha + kDcqcnG;
  f.target = f.rate;
  f.recovery_rounds = 0;
  set_rate(key, f, f.rate * (1.0 - f.alpha / 2.0));

  if (!f.alpha_armed) {
    f.alpha_armed = true;
    sim_.after(params_.dcqcn_alpha_timer, [this, key] { alpha_tick(key); });
  }
  if (!f.rate_armed) {
    f.rate_armed = true;
    sim_.after(params_.dcqcn_rate_timer, [this, key] { rate_tick(key); });
  }
}

void RateController::alpha_tick(u64 key) {
  Flow& f = flow(key);
  f.alpha *= 1.0 - kDcqcnG;
  if (f.alpha > kAlphaFloor) {
    sim_.after(params_.dcqcn_alpha_timer, [this, key] { alpha_tick(key); });
  } else {
    f.alpha = 0;
    f.alpha_armed = false;
  }
}

void RateController::rate_tick(u64 key) {
  Flow& f = flow(key);
  ++f.recovery_rounds;
  if (f.recovery_rounds > kDcqcnFastRecoveryRounds) {
    // Past fast recovery: probe the target upward, gently first, then in
    // hyper-additive strides once congestion has stayed away for a while.
    const int ai_rounds = f.recovery_rounds - kDcqcnFastRecoveryRounds;
    const double step =
        ai_rounds > kDcqcnHaiAfterRounds ? kDcqcnHaiBps : kDcqcnAiBps;
    f.target = std::min(f.target + step, kLineRateBps);
  }
  set_rate(key, f, (f.rate + f.target) / 2.0);
  if (f.rate >= kLineSnap * kLineRateBps) {
    f.rate = kLineRateBps;
    f.target = kLineRateBps;
    f.rate_armed = false;  // fully recovered: nothing left to schedule
  } else {
    sim_.after(params_.dcqcn_rate_timer, [this, key] { rate_tick(key); });
  }
}

void RateController::on_rtt_sample(u64 key, TimeNs rtt) {
  if (mode_ != CcMode::kTimely) return;
  Flow& f = flow(key);
  if (!f.have_rtt) {
    f.have_rtt = true;
    f.prev_rtt = rtt;
    return;
  }
  const double new_diff = static_cast<double>(rtt - f.prev_rtt);
  f.prev_rtt = rtt;
  f.rtt_diff_ns = (1.0 - kTimelyEwmaAlpha) * f.rtt_diff_ns +
                  kTimelyEwmaAlpha * new_diff;
  const double norm_grad = f.rtt_diff_ns / static_cast<double>(kTimelyMinRtt);

  double r;
  if (rtt < kTimelyTLow) {
    r = f.rate + kTimelyAddBps;  // clearly uncongested
  } else if (rtt > kTimelyTHigh) {
    // RTT beyond the hard ceiling: decrease no matter which way the
    // gradient points, proportional to how far past the ceiling we are.
    r = f.rate * (1.0 - params_.timely_beta *
                            (1.0 - static_cast<double>(kTimelyTHigh) /
                                       static_cast<double>(rtt)));
  } else if (norm_grad <= 0) {
    r = f.rate + kTimelyAddBps;  // queues draining
  } else {
    r = f.rate * (1.0 - params_.timely_beta * norm_grad);  // queues growing
  }
  set_rate(key, f, r);
}

}  // namespace dgiwarp::cc
