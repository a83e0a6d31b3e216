#include "telemetry/trace.hpp"

namespace dgiwarp::telemetry {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kLinkDrop: return "link_drop";
    case TraceKind::kLinkCorrupt: return "link_corrupt";
    case TraceKind::kIpReassemblyExpired: return "ip_reassembly_expired";
    case TraceKind::kTcpRetransmit: return "tcp_retransmit";
    case TraceKind::kRdRetransmit: return "rd_retransmit";
    case TraceKind::kRdFastRetransmit: return "rd_fast_retransmit";
    case TraceKind::kRdGiveUp: return "rd_give_up";
    case TraceKind::kRdGapSkip: return "rd_gap_skip";
    case TraceKind::kRdRxGap: return "rd_rx_gap";
    case TraceKind::kWriteRecordChunk: return "write_record_chunk";
    case TraceKind::kWriteRecordComplete: return "write_record_complete";
    case TraceKind::kWriteRecordExpired: return "write_record_expired";
    case TraceKind::kCqCompletion: return "cq_completion";
    case TraceKind::kCqOverrun: return "cq_overrun";
    case TraceKind::kIsockDropNoSlot: return "isock_drop_no_slot";
    case TraceKind::kEcnMark: return "ecn_mark";
    case TraceKind::kCcCnp: return "cc_cnp";
    case TraceKind::kCcRateChange: return "cc_rate_change";
    case TraceKind::kWatchdogTrip: return "watchdog_trip";
  }
  return "?";
}

void TraceRing::enable(std::size_t capacity) {
  enabled_ = true;
  ring_.reset(capacity);
}

}  // namespace dgiwarp::telemetry
