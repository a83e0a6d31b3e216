// Quickstart: the smallest complete datagram-iWARP program.
//
// Builds a two-host simulated fabric, creates a UD queue pair on each
// side, exchanges a message with send/recv, then performs a one-sided
// RDMA Write-Record into an advertised buffer.
//
//   $ ./quickstart
#include <cstdio>

#include "simnet/topology.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_ud.hpp"

using namespace dgiwarp;

int main() {
  // 1. Two hosts on a simulated 10GE fabric.
  sim::Topology topo;
  host::Host alice(topo, "alice");
  host::Host bob(topo, "bob");
  verbs::Device dev_a(alice);
  verbs::Device dev_b(bob);

  // 2. Verbs resources: protection domains, completion queues, UD QPs.
  //    The program owns each one; a QP refers to its PD and CQs.
  verbs::ProtectionDomain pd_a(alice), pd_b(bob);
  auto cq_a = dev_a.create_cq();
  auto cq_b = dev_b.create_cq();
  auto qa = *dev_a.create_ud_qp(
      {&pd_a, cq_a.get(), cq_a.get(), /*port=*/7000, false});
  auto qb = *dev_b.create_ud_qp(
      {&pd_b, cq_b.get(), cq_b.get(), /*port=*/7000, false});

  // 3. Send/recv: bob posts a receive, alice addresses a datagram to him.
  Bytes hello = bytes_of("hello, datagram-iWARP!");
  Bytes inbox(256, 0);
  (void)qb->post_recv({/*wr_id=*/1, ByteSpan{inbox}});

  verbs::SendWr send;
  send.wr_id = 2;
  send.opcode = verbs::WrOpcode::kSend;
  send.local = ConstByteSpan{hello};
  send.remote = {qb->local_ep(), qb->qpn()};  // UD WRs carry the destination
  (void)qa->post_send(send);

  if (auto wc = cq_b->wait(10 * kMillisecond)) {
    std::printf("bob received %zu bytes from %u:%u: \"%.*s\"\n",
                wc->byte_len, wc->src.ip, wc->src.port,
                static_cast<int>(wc->byte_len), inbox.data());
  }

  // 4. RDMA Write-Record: bob registers + advertises a region; alice writes
  //    into it one-sided. No receive WR is consumed — bob learns about the
  //    data from the record entry in his completion queue.
  Bytes region(4096, 0);
  auto mr = pd_b.register_memory(ByteSpan{region},
                                 verbs::kLocalWrite | verbs::kRemoteWrite);

  Bytes payload = bytes_of("one-sided write over unreliable datagrams");
  verbs::SendWr wr;
  wr.wr_id = 3;
  wr.opcode = verbs::WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{payload};
  wr.remote = {qb->local_ep(), qb->qpn()};
  wr.remote_stag = mr.stag;   // advertised out of band
  wr.remote_offset = 100;
  (void)qa->post_send(wr);

  if (auto rec = cq_b->wait(10 * kMillisecond)) {
    std::printf("write-record: stag=%u base=%llu, %zu valid bytes in %zu "
                "range(s): \"%.*s\"\n",
                rec->stag, static_cast<unsigned long long>(rec->base_to),
                rec->validity.valid_bytes(), rec->validity.ranges().size(),
                static_cast<int>(rec->byte_len), region.data() + 100);
  }

  std::printf("done at t=%.1f us (virtual)\n", to_us(topo.sim().now()));
  return 0;
}
