// Measurement harness shared by the figure benches and calibration tests.
//
// Reproduces the paper's verbs-level micro-benchmarks (§VI.A): ping-pong
// latency and unidirectional bandwidth for each mode, with optional packet
// loss injected on the sender's egress (the paper used a tc FIFO queue
// configured to drop at a fixed rate). All numbers are virtual time.
#pragma once

#include <functional>
#include <string>

#include "common/types.hpp"
#include "rd/reliable.hpp"
#include "simnet/faults.hpp"

namespace dgiwarp::telemetry {
class Registry;
class TraceCapture;
}

namespace dgiwarp::perf {

/// Transport/operation mode under test.
enum class Mode {
  kUdSendRecv,
  kUdWriteRecord,
  kRcSendRecv,
  kRcRdmaWrite,    // RC RDMA Write + notifying Send (paper Figure 3)
  kRdSendRecv,     // over the reliable-datagram layer
  kRdWriteRecord,
};

const char* mode_name(Mode m);
bool is_rc(Mode m);

struct Options {
  double loss_rate = 0.0;   // Bernoulli drop on the data direction
  u64 seed = 0xC0FFEE;
  bool mpa_markers = true;  // RC framing
  bool mpa_crc = true;
  bool ud_crc = true;
  /// TCP segment checksum validation on the RC path (NIC offload model).
  /// Off => corrupted bytes reach the MPA CRC — the paper's CRC ablation.
  bool tcp_checksum = true;
  std::size_t max_ud_payload = 65'507;  // per-datagram budget (MTU ablation)
  /// RD-layer tuning for the kRd* modes (adaptive vs fixed RTO ablations).
  rd::RdConfig rd;
  /// Rich fault injection for the fault-campaign harness: factories for the
  /// data (sender egress) and ack/response (receiver egress) directions.
  /// When set, `data_faults` takes precedence over `loss_rate`.
  std::function<sim::Faults()> data_faults;
  std::function<sim::Faults()> ack_faults;
  /// When set, the measurement Simulation's telemetry registry is merged
  /// into this aggregate after the run (bench --metrics-json support).
  telemetry::Registry* metrics = nullptr;
  /// When set, span tracking, the cost profiler and the trace ring are
  /// enabled on the measurement Simulation and absorbed into this capture
  /// after the run (bench --trace-json / --profile-json support). Each
  /// absorbed run lands on its own stretch of the merged timeline.
  telemetry::TraceCapture* trace = nullptr;
};

struct LatencyResult {
  double half_rtt_us = 0.0;  // the paper's "latency": one-way = RTT/2
  int iterations = 0;
};

/// Ping-pong latency for `msg_size`-byte messages.
LatencyResult measure_latency(Mode mode, std::size_t msg_size, int iterations,
                              const Options& opts = {});

struct BandwidthResult {
  double goodput_MBps = 0.0;    // delivered payload bytes / elapsed
  double delivered_frac = 0.0;  // fraction of sent payload that completed
  std::size_t messages_sent = 0;
  std::size_t messages_completed = 0;  // fully (S/R) or partially (WR) valid
};

/// Unidirectional bandwidth: `messages` back-to-back messages of
/// `msg_size`; goodput measured at the receiver.
BandwidthResult measure_bandwidth(Mode mode, std::size_t msg_size,
                                  std::size_t messages,
                                  const Options& opts = {});

/// Message count giving ~`budget_bytes` of traffic, clamped to [4, 4000].
std::size_t default_message_count(std::size_t msg_size,
                                  std::size_t budget_bytes = 32 * MiB);

}  // namespace dgiwarp::perf
