// Fault campaign: the reliability modes under every adversarial network
// condition the simnet can produce.
//
// Extends the paper's fixed-rate loss sweeps (Figures 7-8) to bursty loss,
// reordering with jitter, duplication and link flaps, across RD send/recv,
// RD Write-Record and the RC (TCP-backed) baseline. Each run checks the
// campaign invariants — full delivery and zero RD give-ups — and the bench
// exits non-zero if any run violates them, so it doubles as a CI gate.
// The final section compares adaptive-RTO RD against the fixed-RTO legacy
// configuration at identical seed and load.
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "simnet/faults.hpp"

using namespace dgiwarp;
using perf::Mode;

namespace {

struct FaultCase {
  const char* name;
  std::function<sim::Faults()> data;  // sender egress
  std::function<sim::Faults()> ack;   // receiver egress (may be null)
};

std::vector<FaultCase> cases() {
  return {
      {"clean", [] { return sim::Faults::none(); }, nullptr},
      {"bernoulli 1%", [] { return sim::Faults::bernoulli(0.01); }, nullptr},
      {"bernoulli 5%", [] { return sim::Faults::bernoulli(0.05); }, nullptr},
      // Bad state drops 90%, not 100%: the GE chain is frame-clocked, and
      // a total blackout would pin TCP's single RTO probes in the bad
      // state across its (200 ms floor) backoff series — an artifact of
      // the model, not of the protocols under test.
      {"gilbert-elliott",
       [] {
         sim::Faults f;
         f.loss = std::make_unique<sim::GilbertElliottLoss>(0.01, 0.2, 0.0,
                                                            0.9);
         return f;
       },
       nullptr},
      {"reorder 20%+jitter",
       [] {
         sim::Faults f;
         f.reorder_rate = 0.2;
         f.reorder_delay = 150 * kMicrosecond;
         f.jitter = 20 * kMicrosecond;
         return f;
       },
       nullptr},
      {"duplication 30%", [] { return sim::Faults::duplicating(0.3); },
       nullptr},
      {"link flap 200us/2ms",
       [] {
         return sim::Faults::flapping(2 * kMillisecond, 200 * kMicrosecond);
       },
       nullptr},
      {"combined storm",
       [] {
         sim::Faults f;
         f.loss = std::make_unique<sim::BernoulliLoss>(0.02);
         f.reorder_rate = 0.1;
         f.reorder_delay = 100 * kMicrosecond;
         f.jitter = 10 * kMicrosecond;
         f.dup_rate = 0.1;
         return f;
       },
       [] { return sim::Faults::bernoulli(0.02); }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(
      argc, argv, bench::kMetricsJson);
  bench::banner("Fault campaign — RD/RC reliability under adversarial faults",
                "extends Figures 7-8 beyond fixed-rate loss: bursts, "
                "reordering, duplication and link flaps; invariant-checked");
  telemetry::Registry aggregate;

  const std::size_t kMsg = 16 * KiB;
  const std::size_t kCount = perf::default_message_count(kMsg, 4 * MiB);
  int violations = 0;

  TablePrinter t({"fault", "mode", "goodput (MB/s)", "delivered", "retries",
                  "fast rtx", "give-ups", "invariants"});
  for (const FaultCase& fc : cases()) {
    for (Mode m :
         {Mode::kRdSendRecv, Mode::kRdWriteRecord, Mode::kRcSendRecv}) {
      telemetry::Registry metrics;
      perf::Options opts;
      opts.rd.max_retries = 30;
      opts.data_faults = fc.data;
      opts.ack_faults = fc.ack;
      opts.metrics = &metrics;
      const auto r = perf::measure_bandwidth(m, kMsg, kCount, opts);
      const u64 retries = metrics.counter_value("rd.retries");
      const u64 fast = metrics.counter_value("rd.fast_retransmits");
      const u64 give_ups = metrics.counter_value("rd.give_ups");
      const bool ok = r.delivered_frac >= 1.0 && give_ups == 0;
      if (!ok) ++violations;
      t.add_row({fc.name, perf::mode_name(m),
                 TablePrinter::fmt(r.goodput_MBps),
                 TablePrinter::fmt(r.delivered_frac * 100.0, 1) + "%",
                 std::to_string(retries), std::to_string(fast),
                 std::to_string(give_ups), ok ? "PASS" : "FAIL"});
      aggregate.merge_from(metrics);
    }
  }
  t.print();

  std::printf("\nadaptive vs fixed RTO (RD send/recv, 5%% loss, identical "
              "seed):\n");
  TablePrinter a({"rto", "goodput (MB/s)", "delivered", "retries",
                  "give-ups"});
  for (bool adaptive : {true, false}) {
    telemetry::Registry metrics;
    perf::Options opts;
    opts.rd.adaptive_rto = adaptive;
    opts.rd.max_retries = 30;
    opts.loss_rate = 0.05;
    opts.metrics = &metrics;
    const auto r = perf::measure_bandwidth(Mode::kRdSendRecv, kMsg, kCount,
                                           opts);
    if (r.delivered_frac < 1.0 ||
        metrics.counter_value("rd.give_ups") != 0)
      ++violations;
    a.add_row({adaptive ? "adaptive" : "fixed 400us",
               TablePrinter::fmt(r.goodput_MBps),
               TablePrinter::fmt(r.delivered_frac * 100.0, 1) + "%",
               std::to_string(metrics.counter_value("rd.retries")),
               std::to_string(metrics.counter_value("rd.give_ups"))});
    aggregate.merge_from(metrics);
  }
  a.print();

  // Corruption sweep (ISSUE 4): frames are damaged, not dropped. With the
  // CRCs on, every mode must deliver exactly once with ZERO silent escapes
  // — corruption is detected, dropped, and recovered like loss. With the
  // CRCs off the same channel leaks, and the taint oracle measures how
  // much instead of pretending nothing happened.
  std::printf("\ncorruption sweep — crc on: validate-and-drop is gated; "
              "crc off: escapes are measured, not gated:\n");
  struct CorruptionCase {
    const char* name;
    std::function<sim::Faults()> data;
    std::vector<Mode> modes;
  };
  const std::vector<Mode> kAllModes = {Mode::kRdSendRecv,
                                       Mode::kRdWriteRecord,
                                       Mode::kRcSendRecv};
  // At 1e-4 per byte a 1500 B frame corrupts with p ~= 0.14. RD rides it
  // out (per-datagram retransmission), but TCP's RTO-bound recovery with a
  // 200 ms floor cannot move 4 MiB through a 14% mangling channel inside
  // the harness's wait budget — so the heavy rate runs RD-only.
  const std::vector<Mode> kRdModes = {Mode::kRdSendRecv,
                                      Mode::kRdWriteRecord};
  const std::vector<CorruptionCase> ccases = {
      {"bit errors 1e-5", [] { return sim::Faults::bit_errors(1e-5); },
       kAllModes},
      {"bit errors 1e-4", [] { return sim::Faults::bit_errors(1e-4); },
       kRdModes},
      {"burst corruption",
       [] {
         sim::Faults f;
         f.corruption = std::make_unique<sim::GilbertElliottCorruption>(
             0.02, 0.3, 0.0, 0.02);
         return f;
       },
       kAllModes},
      {"truncation 0.5%", [] { return sim::Faults::truncating(0.005); },
       kAllModes},
  };
  TablePrinter c({"corruption", "mode", "crc", "goodput (MB/s)", "delivered",
                  "corrupted", "crc drops", "escapes", "invariants"});
  for (const CorruptionCase& cc : ccases) {
    for (Mode m : cc.modes) {
      for (bool crc_on : {true, false}) {
        telemetry::Registry metrics;
        perf::Options opts;
        opts.rd.max_retries = 30;
        opts.data_faults = cc.data;
        opts.metrics = &metrics;
        opts.ud_crc = crc_on;
        opts.rd.crc = crc_on;
        opts.mpa_crc = crc_on;
        opts.tcp_checksum = crc_on;
        const auto r = perf::measure_bandwidth(m, kMsg, kCount, opts);
        const u64 corrupted =
            metrics.counter_value("simnet.link.frames_corrupted");
        const u64 drops =
            metrics.counter_value("verbs.ud.crc_drops") +
            metrics.counter_value("rd.crc_drops") +
            metrics.counter_value("hoststack.tcp.checksum_drops") +
            metrics.counter_value("verbs.rc.fpdu_crc_failures");
        const u64 escapes = metrics.counter_value("verbs.ud.crc_escapes") +
                            metrics.counter_value("rd.crc_escapes") +
                            metrics.counter_value("verbs.rc.crc_escapes");
        bool ok = true;
        if (crc_on) {
          // Exactly-once under corruption: full delivery, no give-ups, and
          // not one corrupted byte accepted anywhere in the stack.
          ok = r.delivered_frac >= 1.0 &&
               metrics.counter_value("rd.give_ups") == 0 && escapes == 0;
          if (!ok) ++violations;
        }
        c.add_row({cc.name, perf::mode_name(m), crc_on ? "on" : "off",
                   TablePrinter::fmt(r.goodput_MBps),
                   TablePrinter::fmt(r.delivered_frac * 100.0, 1) + "%",
                   std::to_string(corrupted), std::to_string(drops),
                   std::to_string(escapes),
                   crc_on ? (ok ? "PASS" : "FAIL") : "reported"});
        aggregate.merge_from(metrics);
      }
    }
  }
  c.print();

  bench::dump_metrics(aggregate, args.metrics_json);
  if (violations > 0) {
    std::printf("\n%d invariant violation(s) — campaign FAILED\n", violations);
    return 1;
  }
  std::printf("\nall invariants held — campaign PASSED\n");
  return 0;
}
