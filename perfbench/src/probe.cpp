#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "common/memcount.hpp"

namespace pb {

using namespace dgiwarp;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

u64 fnv1a(u64 h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void Output::add_counters(const telemetry::Registry& reg,
                          const std::vector<std::string>& names) {
  for (const auto& n : names)
    det[n] += static_cast<double>(reg.counter_value(n));
}

void Phases::mark() {
  const auto now = Clock::now();
  const HeapTally a = heap_tally();
  const mem::AllocTally path = mem::snapshot();
  if (open_) {
    const double dt = seconds_between(t0_, now);
    HeapTally& tally = in_run_ ? run_alloc : setup_alloc;
    (in_run_ ? run_s : setup_s) += dt;
    tally.count += a.count - a0_.count;
    tally.bytes += a.bytes - a0_.bytes;
    if (in_run_) {
      run_bytes_path.count += path.count - path_count0_;
      run_bytes_path.bytes += path.bytes - path_bytes0_;
    }
  }
  open_ = true;
  t0_ = now;
  a0_ = a;
  path_count0_ = path.count;
  path_bytes0_ = path.bytes;
}

void Tracer::attach(sim::Simulation& sim) {
  auto& reg = sim.telemetry();
  // Room for every message of a point: the default cap would silently
  // drop spans on the larger workloads.
  reg.spans().enable(1 << 20);
  reg.profiler().enable();
  reg.trace().enable();
  sim.set_observer(this);
  sim_ = &sim;
  have_last_ = false;
}

void Tracer::on_event(TimeNs, u64) {
  const auto now = Clock::now();
  if (have_last_)
    gaps_ns_.push_back(static_cast<float>(
        std::chrono::duration<double, std::nano>(now - last_).count()));
  last_ = now;
  have_last_ = true;
  pending_max_ = std::max(pending_max_, sim_->pending());
}

void Tracer::collect(sim::Simulation& sim) {
  sim.set_observer(nullptr);
  sim_ = nullptr;
  auto& reg = sim.telemetry();
  for (const telemetry::Span& s : reg.spans().finished()) {
    if (s.parent != 0 || !s.completed) continue;
    const telemetry::SpanBreakdown b = telemetry::breakdown(s);
    for (u8 p = 0; p < telemetry::kSpanPhaseCount; ++p)
      phase_ns_[p].push_back(static_cast<double>(b.phase_ns[p]));
  }
  if (const auto* h = reg.find_histogram("simnet.link.queue_wait_hist_ns")) {
    const auto& v = h->samples().values();
    queue_wait_ns_.insert(queue_wait_ns_.end(), v.begin(), v.end());
  }
  for (u8 l = 0; l < telemetry::kCostLayerCount; ++l)
    prof_ns_[l] +=
        reg.profiler().total_ns(static_cast<telemetry::CostLayer>(l));
}

void Tracer::report(Output& out, u64 ops) const {
  auto& t = out.traced;
  std::vector<double> gaps(gaps_ns_.begin(), gaps_ns_.end());
  t["simnet.event_ns_p50"] = percentile(gaps, 50);
  t["simnet.event_ns_p99"] = percentile(gaps, 99);
  t["simnet.pending_max"] = static_cast<double>(pending_max_);
  // A frame that never queued waited 0 ns; only queued frames are sampled.
  t["simnet.link.queue_wait_ns_p99"] = percentile(queue_wait_ns_, 99);
  t["verbs.post_send_ns"] = percentile(post_send_ns, 50);
  t["verbs.poll_ns"] = percentile(poll_ns, 50);
  t["setup.node_us"] = percentile(node_ns, 50) / 1e3;
  t["setup.isock_us"] = percentile(isock_ns, 50) / 1e3;
  t["setup.sip_us"] = percentile(sip_ns, 50) / 1e3;

  static const char* const kPhase[telemetry::kSpanPhaseCount] = {
      "stack_tx", "queueing", "wire", "retransmit_stall", "wakeup",
      "stack_rx"};
  for (u8 p = 0; p < telemetry::kSpanPhaseCount; ++p) {
    const std::string base = std::string("span.") + kPhase[p] + "_ns";
    t[base + ".p50"] = percentile(phase_ns_[p], 50);
    t[base + ".p99"] = percentile(phase_ns_[p], 99);
  }

  // Modeled CPU charged per layer, per op (virtual ns).
  const double per_op = 1.0 / static_cast<double>(std::max<u64>(ops, 1));
  auto layer = [&](telemetry::CostLayer l) {
    return static_cast<double>(prof_ns_[static_cast<u8>(l)]) * per_op;
  };
  using L = telemetry::CostLayer;
  t["prof.ip_ns"] = layer(L::kIp);
  t["prof.udp_ns"] = layer(L::kUdp);
  t["prof.tcp_ns"] = layer(L::kTcp);
  t["prof.rd_ns"] = layer(L::kRd);
  t["prof.mpa_ns"] = layer(L::kMpa);
  t["prof.ddp_ns"] = layer(L::kDdp);
  t["prof.rdmap_ns"] = layer(L::kRdmap);
  t["prof.verbs_ns"] = layer(L::kVerbs);
  t["prof.isock_ns"] = layer(L::kIsock);
}

}  // namespace pb
