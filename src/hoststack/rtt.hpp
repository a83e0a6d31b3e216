// The RFC 6298 round-trip estimator that TCP and RD share. It only smooths;
// each transport clamps and backs off its own timeout.
#pragma once

#include "common/types.hpp"

namespace dgiwarp::host {

struct RttEstimator {
  TimeNs srtt = 0;  // 0 until the first sample
  TimeNs rttvar = 0;

  /// Folds in one sample, in integer nanoseconds.
  void update(TimeNs sample) {
    if (srtt == 0) {
      srtt = sample;
      rttvar = sample / 2;
    } else {
      const TimeNs err = sample > srtt ? sample - srtt : srtt - sample;
      rttvar = (3 * rttvar + err) / 4;
      srtt = (7 * srtt + sample) / 8;
    }
  }
  /// srtt + 4 * rttvar, before the transport's clamp.
  TimeNs rto() const { return srtt + 4 * rttvar; }
};

}  // namespace dgiwarp::host
