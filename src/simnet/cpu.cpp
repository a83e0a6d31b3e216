#include "simnet/cpu.hpp"

namespace dgiwarp::sim {

TimeNs CpuModel::charge(TimeNs cost) {
  if (cost < 0) cost = 0;
  const TimeNs start =
      user_free_at_ > sim_.now() ? user_free_at_ : sim_.now();
  user_free_at_ = start + cost;
  busy_total_ += cost;
  return user_free_at_;
}

TimeNs CpuModel::charge_kernel(TimeNs cost) {
  if (cost < 0) cost = 0;
  const TimeNs start =
      kernel_free_at_ > sim_.now() ? kernel_free_at_ : sim_.now();
  kernel_free_at_ = start + cost;
  busy_total_ += cost;
  // Preemption: queued user work loses these cycles.
  if (user_free_at_ > sim_.now()) user_free_at_ += cost;
  return kernel_free_at_;
}

void CpuModel::charge_then(TimeNs cost, Simulation::Task done) {
  sim_.at(charge(cost), std::move(done));
}

void CpuModel::charge_kernel_then(TimeNs cost, Simulation::Task done) {
  sim_.at(charge_kernel(cost), std::move(done));
}

}  // namespace dgiwarp::sim
