// The two-host workloads, `stream` and `rd_lossy`.
//
// Each point builds a fresh two-host Topology, so points never share TCP,
// RD or switch state. The loop is closed with a window of kDepth messages:
// the first kDepth are posted up front, and each receiver-side completion
// posts the next one. Completions are observed through the CQ event handler
// and stamped with sim.now(); the benchmark never polls during a run,
// because CompletionQueue::poll() charges modeled CPU and would perturb the
// model. The CQs are drained (and every completion checked) once the point
// has finished.
#include <cmath>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "simnet/faults.hpp"
#include "simnet/topology.hpp"
#include "verbs/node.hpp"
#include "verbs/qp_rc.hpp"
#include "verbs/qp_ud.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace dgiwarp;

enum class Op { kUdSend, kUdWriteRecord, kRcSend, kRcWrite, kRdSend,
                kRdWriteRecord };

bool is_rc(Op op) { return op == Op::kRcSend || op == Op::kRcWrite; }
bool is_rd(Op op) { return op == Op::kRdSend || op == Op::kRdWriteRecord; }
/// The message lands in a registered region (Write-Record, RC Write)
/// rather than in a posted receive buffer.
bool lands_in_region(Op op) {
  return op == Op::kUdWriteRecord || op == Op::kRdWriteRecord ||
         op == Op::kRcWrite;
}
bool is_write_record(Op op) {
  return op == Op::kUdWriteRecord || op == Op::kRdWriteRecord;
}

struct Point {
  const char* name;
  Op op;
  std::size_t min_size;  // each message draws its size uniformly from
  std::size_t max_size;  // [min_size, max_size]
  double loss;       // Bernoulli frame drop on the sender's uplink
  std::size_t messages;
  bool latency;  // contributes op-latency samples
  bool goodput;  // contributes to the goodput geometric mean
};

constexpr std::size_t kDepth = 8;
constexpr std::size_t kRing = 2 * kDepth;  // posted receive buffers
constexpr std::size_t kNotifyBytes = 8;    // RC Write's notifying Send
/// Message k starts at a k-dependent offset into a seeded random pattern,
/// so a message delivered in the wrong place or order fails the compare.
constexpr std::size_t kPatternSpan = 4096;
constexpr u16 kRcPort = 4791;
constexpr TimeNs kDeadline = 120 * kSecond;

u64 mix(u64 seed, u64 salt) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Runs one point; returns its goodput in MB/s.
double run_point(const Point& p, std::size_t index, u64 seed,
                 const verbs::DeviceConfig& dev, Output& out, Phases& ph,
                 Tracer* tr, std::vector<double>& lat_us) {
  const std::string where = std::string("point ") + p.name;
  ph.begin_setup();

  sim::Topology::Params tp;
  tp.seed = mix(seed, 2 * index);
  sim::Topology topo(tp);
  sim::Simulation& sim = topo.sim();
  if (tr) tr->attach(sim);

  verbs::NodeSpec spec;
  spec.dev = dev;
  spec.cq_capacity = 1 << 20;  // completions pile up until the drain
  spec.endpoint = is_rc(p.op)   ? verbs::NodeSpec::Endpoint::kNone
                  : is_rd(p.op) ? verbs::NodeSpec::Endpoint::kRd
                                : verbs::NodeSpec::Endpoint::kUd;
  auto make_node = [&](const char* name) {
    spec.name = name;
    return timed(tr, &Tracer::node_ns,
                 [&] { return std::make_unique<verbs::Node>(topo, spec); });
  };
  std::unique_ptr<verbs::Node> tx = make_node("tx");
  std::unique_ptr<verbs::Node> rx = make_node("rx");
  if (!tx->status().ok() || !rx->status().ok()) {
    out.error(where + ": node setup failed");
    ph.end();
    return 0.0;
  }
  if (p.loss > 0.0)
    topo.host_uplink(tx->index())
        .set_faults(sim::Faults::bernoulli(p.loss).isolated(
            mix(seed, 2 * index + 1)));

  // Inputs, all drawn from the seed.
  Rng rng(mix(seed, 1000 + index));
  const std::size_t max_size = p.max_size;
  Bytes pattern(max_size + kPatternSpan);
  for (auto& b : pattern) b = static_cast<u8>(rng.next_u64() >> 56);
  std::vector<std::size_t> sizes(p.messages);
  for (auto& s : sizes)
    s = static_cast<std::size_t>(rng.range(static_cast<i64>(p.min_size),
                                           static_cast<i64>(p.max_size)));
  auto payload = [&](u64 k) {
    return ConstByteSpan{pattern.data() + (k * 2654435761ull) % kPatternSpan,
                         sizes[k]};
  };

  // Receive side: kDepth region slots and/or a ring of posted buffers.
  const bool in_region = lands_in_region(p.op);
  Bytes region;
  verbs::MemoryRegion mr{};
  if (in_region) {
    region.assign(kDepth * max_size, 0);
    mr = rx->pd().register_memory(ByteSpan{region},
                                  verbs::kLocalWrite | verbs::kRemoteWrite);
  }
  std::vector<Bytes> ring;
  if (!is_write_record(p.op))
    ring.assign(kRing,
                Bytes(p.op == Op::kRcWrite ? kNotifyBytes : max_size, 0));
  const Bytes notify(kNotifyBytes, 0x55);

  std::shared_ptr<verbs::RcQueuePair> rc_tx, rc_rx;
  if (is_rc(p.op)) {
    const verbs::RcQpAttr rx_attr{&rx->pd(), &rx->send_cq(), &rx->recv_cq()};
    const verbs::RcQpAttr tx_attr{&tx->pd(), &tx->send_cq(), &tx->recv_cq()};
    if (!rx->device()
             .rc_listen(kRcPort, rx_attr,
                        [&rc_rx](std::shared_ptr<verbs::RcQueuePair> qp) {
                          rc_rx = std::move(qp);
                        })
             .ok()) {
      out.error(where + ": rc_listen failed");
      ph.end();
      return 0.0;
    }
    auto qp = tx->device().rc_connect(tx_attr, rx->host().endpoint(kRcPort));
    if (!qp.ok()) {
      out.error(where + ": rc_connect failed");
      ph.end();
      return 0.0;
    }
    rc_tx = std::move(qp).value();
  }
  verbs::QueuePair* rq = is_rc(p.op) ? nullptr : rx->qp().get();
  auto post_ring = [&](std::size_t slot) {
    if (!rq->post_recv({slot, ByteSpan{ring[slot]}}).ok())
      out.error(where + ": post_recv failed");
  };
  if (rq && !ring.empty())
    for (std::size_t s = 0; s < kRing; ++s) post_ring(s);

  // The closed loop.
  std::vector<TimeNs> posted_at(p.messages, 0);
  std::vector<bool> verified(p.messages, false);
  u64 posted = 0, completed = 0, mismatches = 0;
  std::size_t delivered_bytes = 0;
  bool post_failed = false;
  TimeNs t_first = 0, t_last = 0;
  verbs::QueuePair* sq = nullptr;

  auto post = [&](const verbs::SendWr& wr) {
    return timed(tr, &Tracer::post_send_ns, [&] { return sq->post_send(wr); });
  };
  auto post_next = [&] {
    if (post_failed || posted >= p.messages) return;
    const u64 k = posted++;
    verbs::SendWr wr;
    wr.wr_id = k;
    wr.local = payload(k);
    if (!is_rc(p.op))
      wr.remote = {rx->qp()->local_ep(), rx->qp()->qpn()};
    if (in_region) {
      wr.remote_stag = mr.stag;
      wr.remote_offset = (k % kDepth) * max_size;
    }
    posted_at[k] = sim.now();
    Status st = Status::Ok();
    switch (p.op) {
      case Op::kUdSend:
      case Op::kRdSend:
      case Op::kRcSend:
        wr.opcode = verbs::WrOpcode::kSend;
        st = post(wr);
        break;
      case Op::kUdWriteRecord:
      case Op::kRdWriteRecord:
        wr.opcode = verbs::WrOpcode::kWriteRecord;
        st = post(wr);
        break;
      case Op::kRcWrite: {
        // RDMA Write, then a Send that tells the target it has landed.
        wr.opcode = verbs::WrOpcode::kRdmaWrite;
        wr.signaled = false;
        st = post(wr);
        if (!st.ok()) break;
        verbs::SendWr n;
        n.wr_id = k;
        n.opcode = verbs::WrOpcode::kSend;
        n.local = ConstByteSpan{notify};
        st = post(n);
        break;
      }
    }
    if (!st.ok()) {
      post_failed = true;
      out.error(where + ": post_send failed: " + st.to_string());
    }
  };

  rx->recv_cq().set_event_handler([&] {
    const u64 n = completed++;
    if (n >= posted) {
      if (mismatches++ == 0) out.error(where + ": unexpected completion");
      return;
    }
    const std::size_t len = sizes[n];
    const u8* got = in_region ? region.data() + (n % kDepth) * max_size
                              : ring[n % kRing].data();
    if (std::memcmp(got, payload(n).data(), len) == 0) {
      verified[n] = true;
      delivered_bytes += len;
    } else if (mismatches++ == 0) {
      out.error(where + ": message " + std::to_string(n) +
                " arrived corrupted or out of order");
    }
    t_last = sim.now();
    if (p.latency) lat_us.push_back(to_us(t_last - posted_at[n]));
    if (!ring.empty()) post_ring(n % kRing);  // give the buffer back
    post_next();
  });

  // Source-side completions trail the receiver's; the point ends when both
  // sides have reported every message.
  u64 send_done = 0;
  tx->send_cq().set_event_handler([&send_done] { ++send_done; });

  ph.begin_run();
  if (is_rc(p.op)) {
    bool up = false;
    rc_tx->on_established([&up](Status st) { up = st.ok(); });
    sim.run_while_pending([&] { return up && rc_rx != nullptr; },
                          sim.now() + kSecond);
    if (!up || !rc_rx) {
      out.error(where + ": RC connection did not come up");
      ph.end();
      rx->recv_cq().set_event_handler(nullptr);
      tx->send_cq().set_event_handler(nullptr);
      return 0.0;
    }
    rq = rc_rx.get();
    for (std::size_t s = 0; s < kRing; ++s) post_ring(s);
    sq = rc_tx.get();
  } else {
    sq = tx->qp().get();
  }
  t_first = sim.now();
  for (std::size_t i = 0; i < kDepth; ++i) post_next();
  sim.run_while_pending(
      [&] {
        return (completed >= p.messages || post_failed) &&
               completed >= posted && send_done >= posted;
      },
      t_first + kDeadline);
  ph.end();
  rx->recv_cq().set_event_handler(nullptr);
  tx->send_cq().set_event_handler(nullptr);

  out.det["simnet.events"] += static_cast<double>(sim.events_executed());
  out.add_counters(sim.telemetry(), layer_counters());
  out.registry_fnv = fnv1a(out.registry_fnv, sim.telemetry().to_json());
  if (tr) tr->collect(sim);

  // Drain and check every completion. The n-th receive-side completion is
  // message n: the handler above already relied on that order.
  u64 ok_msgs = 0;  // verified and completed without error
  auto drain = [&](verbs::CompletionQueue& cq) {
    return timed(tr, &Tracer::poll_ns, [&] { return cq.poll(); });
  };
  u64 n = 0;
  while (!rx->recv_cq().empty()) {
    const auto c = drain(rx->recv_cq());
    bool ok = c && c->status.ok() && n < p.messages;
    if (ok && is_write_record(p.op))
      ok = c->validity.complete(static_cast<u32>(sizes[n]));
    else if (ok && p.op != Op::kRcWrite)
      ok = c->byte_len == sizes[n];
    if (!ok && mismatches++ == 0)
      out.error(where + ": completion " + std::to_string(n) + " failed");
    if (ok && verified[n]) ++ok_msgs;
    ++n;
  }
  u64 send_ok = 0;
  while (!tx->send_cq().empty()) {
    const auto c = drain(tx->send_cq());
    if (c && c->status.ok()) ++send_ok;
  }
  if (send_ok != posted && mismatches++ == 0)
    out.error(where + ": " + std::to_string(send_ok) +
              " good send completions for " + std::to_string(posted) +
              " posts");
  out.ops += p.messages;
  out.failed += p.messages - ok_msgs;
  const double goodput = rate_MBps(delivered_bytes, t_last - t_first);
  out.det[std::string("point.") + p.name + ".goodput_MBps"] = goodput;
  return goodput;
}

void run_points(const std::vector<Point>& points,
                const verbs::DeviceConfig& dev, u64 seed, Output& out,
                Phases& ph, Tracer* tr) {
  std::vector<double> lat_us;
  double log_sum = 0.0;
  std::size_t n_goodput = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double goodput =
        run_point(points[i], i, seed, dev, out, ph, tr, lat_us);
    if (points[i].goodput) {
      log_sum += std::log(std::max(goodput, 1e-9));
      ++n_goodput;
    }
  }
  out.det["goodput_MBps"] = std::exp(
      log_sum / static_cast<double>(std::max<std::size_t>(n_goodput, 1)));
  out.det["op_latency_p50_us"] = percentile(lat_us, 50);
  out.det["op_latency_p99_us"] = percentile(lat_us, 99);
  out.det["op_latency_samples"] = static_cast<double>(lat_us.size());
}

}  // namespace

void run_stream(u64 seed, Output& out, Phases& ph, Tracer* tr) {
  // Sizes vary a little around the nominal one, so each seed gives its own
  // inputs and its own virtual timings. Small points feed the latency
  // figures, large points the goodput.
  auto small = [](const char* name, Op op) {
    return Point{name, op, 48, 80, 0.0, 2500, true, false};
  };
  auto large = [](const char* name, Op op) {
    return Point{name, op, 252 * KiB, 256 * KiB, 0.0, 160, false, true};
  };
  const std::vector<Point> points = {
      small("ud_send_64", Op::kUdSend),
      large("ud_send_256k", Op::kUdSend),
      small("ud_wrec_64", Op::kUdWriteRecord),
      large("ud_wrec_256k", Op::kUdWriteRecord),
      small("rc_send_64", Op::kRcSend),
      large("rc_send_256k", Op::kRcSend),
      small("rc_write_64", Op::kRcWrite),
      large("rc_write_256k", Op::kRcWrite),
  };
  run_points(points, verbs::DeviceConfig{}, seed, out, ph, tr);
}

void run_rd_lossy(u64 seed, Output& out, Phases& ph, Tracer* tr) {
  auto rd = [](const char* name, Op op, std::size_t size,
               std::size_t messages, double loss) {
    return Point{name, op, size - size / 64, size, loss, messages, true, true};
  };
  constexpr std::size_t k8 = 8 * KiB, k64 = 64 * KiB;
  const std::vector<Point> points = {
      rd("rd_send_8k_1pct", Op::kRdSend, k8, 6000, 0.01),
      rd("rd_send_8k_5pct", Op::kRdSend, k8, 6000, 0.05),
      rd("rd_send_64k_1pct", Op::kRdSend, k64, 500, 0.01),
      rd("rd_send_64k_5pct", Op::kRdSend, k64, 500, 0.05),
      rd("rd_wrec_8k_1pct", Op::kRdWriteRecord, k8, 6000, 0.01),
      rd("rd_wrec_8k_5pct", Op::kRdWriteRecord, k8, 6000, 0.05),
      rd("rd_wrec_64k_1pct", Op::kRdWriteRecord, k64, 500, 0.01),
      rd("rd_wrec_64k_5pct", Op::kRdWriteRecord, k64, 500, 0.05),
  };
  verbs::DeviceConfig dev;
  // 8 KiB datagrams (six wire fragments each): a 64 KiB message crosses the
  // loss as eight datagrams that RD recovers one by one. With the default
  // 64 KiB datagram, 5 % frame loss drops ~90 % of attempts and RD gives up.
  dev.max_ud_payload = k8 + 64;
  // RD's default 50 ms backoff ceiling lets a datagram that is lost a few
  // times in a row stall its whole window for tens of ms; a handful of such
  // stalls then decide a point's goodput, which swings 2x from seed to seed.
  // A 5 ms ceiling keeps every point's result a property of the loss rate.
  dev.rd.max_rto = 5 * kMillisecond;
  // Backoff can still hold a message's tail for several RTOs; the target
  // must not expire the partial message meanwhile.
  dev.ud_message_timeout = kSecond;
  run_points(points, dev, seed, out, ph, tr);
}

}  // namespace pb
