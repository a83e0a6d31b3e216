#include "simnet/faults.hpp"

namespace dgiwarp::sim {

namespace {

// Hits each byte with probability `rate` and flips one random bit of each
// byte hit, drawing per byte in byte order; true if any byte was hit.
bool flip_random_bits(Rng& rng, double rate, Bytes& payload) {
  if (rate <= 0.0) return false;
  bool changed = false;
  for (auto& b : payload) {
    if (rng.chance(rate)) {
      b ^= static_cast<u8>(1u << rng.below(8));
      changed = true;
    }
  }
  return changed;
}

}  // namespace

// Key function anchors.
LossModel::~LossModel() = default;
CorruptionModel::~CorruptionModel() = default;

bool BernoulliCorruption::corrupt(Rng& rng, TimeNs, Bytes& payload) {
  return flip_random_bits(rng, rate_, payload);
}

bool GilbertElliottCorruption::corrupt(Rng& rng, TimeNs, Bytes& payload) {
  if (bad_) {
    if (rng.chance(p_b2g_)) bad_ = false;
  } else {
    if (rng.chance(p_g2b_)) bad_ = true;
  }
  return flip_random_bits(rng, bad_ ? rate_bad_ : rate_good_, payload);
}

}  // namespace dgiwarp::sim
