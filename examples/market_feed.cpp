// Market-data feed example — the paper's motivating datacenter workload
// ("streaming data such as financial market feeds").
//
// One publisher fans quote updates out to N subscribers through a single
// UD queue pair: the connectionless transport means the publisher keeps no
// per-subscriber connection state, and a one-sided Write-Record per
// subscriber places each quote directly into that subscriber's book.
//
//   $ ./market_feed [subscribers] [updates] [loss%]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "simnet/topology.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_ud.hpp"

using namespace dgiwarp;

namespace {

struct Quote {
  u32 symbol;
  u32 seq;
  double bid;
  double ask;

  Bytes serialize() const {
    Bytes out;
    WireWriter w(out);
    w.u32be(symbol);
    w.u32be(seq);
    w.u64be(static_cast<u64>(bid * 1e6));
    w.u64be(static_cast<u64>(ask * 1e6));
    return out;
  }
};

struct Subscriber {
  std::unique_ptr<host::Host> host;
  std::unique_ptr<verbs::Device> dev;
  std::unique_ptr<verbs::ProtectionDomain> pd;
  std::shared_ptr<verbs::CompletionQueue> cq;
  std::shared_ptr<verbs::UdQueuePair> qp;
  Bytes book;  // registered region: one slot per symbol
  u32 stag = 0;
  u64 updates_seen = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_subs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 16;
  const u32 updates = argc > 2 ? static_cast<u32>(std::atoi(argv[2])) : 200;
  const double loss = argc > 3 ? std::atof(argv[3]) / 100.0 : 0.5 / 100.0;

  constexpr std::size_t kSymbols = 64;
  constexpr std::size_t kSlot = 24;  // serialized quote size

  sim::Topology topo;
  host::Host pub_host(topo, "publisher");
  verbs::Device pub_dev(pub_host);
  verbs::ProtectionDomain pub_pd(pub_host);
  auto pub_cq = pub_dev.create_cq(1 << 16);
  auto pub_qp = *pub_dev.create_ud_qp(
      {&pub_pd, pub_cq.get(), pub_cq.get(), 9100, false});

  // Lossy downlinks: market feeds tolerate gaps (latest quote wins).
  topo.host_uplink(0).set_faults(sim::Faults::bernoulli(loss));

  std::vector<Subscriber> subs(n_subs);
  for (std::size_t i = 0; i < n_subs; ++i) {
    subs[i].host = std::make_unique<host::Host>(
        topo, "sub" + std::to_string(i));
    subs[i].dev = std::make_unique<verbs::Device>(*subs[i].host);
    subs[i].pd = std::make_unique<verbs::ProtectionDomain>(*subs[i].host);
    subs[i].cq = subs[i].dev->create_cq(1 << 16);
    auto* cq = subs[i].cq.get();
    subs[i].qp = *subs[i].dev->create_ud_qp(
        {subs[i].pd.get(), cq, cq, 9200, false});
    subs[i].book.assign(kSymbols * kSlot, 0);
    auto mr = subs[i].pd->register_memory(
        ByteSpan{subs[i].book}, verbs::kLocalWrite | verbs::kRemoteWrite);
    subs[i].stag = mr.stag;
    // Count record completions as they arrive.
    auto* counter = &subs[i].updates_seen;
    subs[i].qp->recv_cq().set_event_handler([cq, counter] {
      while (auto c = cq->poll()) {
        if (c->status.ok() &&
            c->opcode == verbs::WcOpcode::kRecvWriteRecord)
          ++*counter;
      }
    });
  }

  // Publish: every update write-records the quote into the symbol's slot in
  // EVERY subscriber's book. Note the publisher's only state is the list of
  // subscriber addresses — no connections, no per-subscriber QPs.
  Rng rng(42);
  for (u32 u = 0; u < updates; ++u) {
    Quote q;
    q.symbol = static_cast<u32>(rng.below(kSymbols));
    q.seq = u + 1;
    q.bid = 100.0 + rng.uniform();
    q.ask = q.bid + 0.01;
    const Bytes wire = q.serialize();
    for (auto& sub : subs) {
      verbs::SendWr wr;
      wr.opcode = verbs::WrOpcode::kWriteRecord;
      wr.local = ConstByteSpan{wire};
      wr.remote = {sub.qp->local_ep(), sub.qp->qpn()};
      wr.remote_stag = sub.stag;
      wr.remote_offset = q.symbol * kSlot;
      wr.signaled = false;
      (void)pub_qp->post_send(wr);
    }
    topo.sim().run_until(topo.sim().now() + 100 * kMicrosecond);
  }
  topo.sim().run();

  u64 total_seen = 0;
  for (const auto& sub : subs) total_seen += sub.updates_seen;
  const u64 sent = static_cast<u64>(updates) * n_subs;
  std::printf("published %u updates to %zu subscribers (%llu writes)\n",
              updates, n_subs, static_cast<unsigned long long>(sent));
  std::printf("delivered %llu (%.1f%%) at %.1f%% injected loss — gaps are "
              "tolerated, the latest quote wins\n",
              static_cast<unsigned long long>(total_seen),
              100.0 * static_cast<double>(total_seen) /
                  static_cast<double>(sent),
              loss * 100.0);
  std::printf("publisher connection state held: none (1 UD QP, %zu peers)\n",
              n_subs);
  return 0;
}
