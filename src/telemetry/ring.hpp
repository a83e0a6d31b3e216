// Fixed-capacity ring that overwrites its oldest element once full, shared
// by the event trace (TraceRing) and the sampled time series (TimeSeries).
// Memory stays bounded by the capacity however long the run; every
// overwritten element is counted in dropped().
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace dgiwarp::telemetry {

template <class T>
class BoundedRing {
 public:
  /// Capacity 0: holds nothing until reset().
  BoundedRing() = default;
  explicit BoundedRing(std::size_t capacity) { reset(capacity); }

  /// Empty the ring and reserve `capacity` slots (at least one).
  void reset(std::size_t capacity) {
    cap_ = capacity ? capacity : 1;
    head_ = 0;
    recorded_ = 0;
    items_.clear();
    items_.reserve(cap_);
  }

  void push(const T& v) {
    if (items_.size() < cap_) {
      items_.push_back(v);
    } else {
      items_[head_] = v;  // overwrite the oldest
      head_ = (head_ + 1) % cap_;
    }
    ++recorded_;
  }

  /// Elements currently held, oldest first. head_ stays 0 until the ring
  /// fills; from then on it is both the next write slot and the oldest.
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(items_.size());
    const auto head = items_.begin() + static_cast<long>(head_);
    out.insert(out.end(), head, items_.end());
    out.insert(out.end(), items_.begin(), head);
    return out;
  }

  std::size_t capacity() const { return cap_; }
  std::size_t size() const { return items_.size(); }
  u64 recorded() const { return recorded_; }
  u64 dropped() const { return recorded_ > cap_ ? recorded_ - cap_ : 0; }

 private:
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // next write position once full
  std::vector<T> items_;
  u64 recorded_ = 0;
};

}  // namespace dgiwarp::telemetry
