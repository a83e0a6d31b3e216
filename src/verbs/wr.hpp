// Work request and work completion types — the verbs-facing vocabulary.
//
// Datagram-iWARP extends the classic verbs data structures (paper §IV.B
// item 4): send WRs on UD QPs carry a destination address, and completions
// for incoming datagrams report the source address and QP back to the
// application.
#pragma once

#include "common/status.hpp"
#include "hoststack/ip.hpp"
#include "rdmap/write_record.hpp"

namespace dgiwarp::verbs {

enum class QpState { kInit, kRts, kError };

enum class WrOpcode {
  kSend,
  kSendSE,       // send with solicited event
  kRdmaWrite,    // RC only
  kRdmaRead,     // RC (UD-based read is the paper's future work; see
                 // Device::enable_ud_read extension)
  kWriteRecord,  // the paper's UD one-sided write
};

/// Destination of a UD work request.
struct RemoteAddress {
  host::Endpoint ep;
  u32 qpn = 0;
};

struct SendWr {
  u64 wr_id = 0;
  WrOpcode opcode = WrOpcode::kSend;
  /// Registered local source buffer; must stay valid until completion.
  ConstByteSpan local;
  /// UD only: where to send (ignored on RC QPs).
  RemoteAddress remote;
  /// RDMA ops: advertised remote STag and target offset within its region.
  u32 remote_stag = 0;
  u64 remote_offset = 0;
  /// RDMA Read: local sink buffer (registered) and how much to read.
  ByteSpan read_sink;
  u32 read_len = 0;
  /// Generate a send-side completion (always generated on error).
  bool signaled = true;
};

struct RecvWr {
  u64 wr_id = 0;
  ByteSpan buffer;
};

enum class WcOpcode {
  kSend,
  kRdmaWrite,
  kRdmaRead,
  kWriteRecord,      // source-side completion of a Write-Record
  kRecv,             // untagged receive
  kRecvWriteRecord,  // target-side Write-Record record entry
};

/// Work completion. Fields beyond wr_id/status/opcode are populated
/// depending on the opcode, mirroring how verbs implementations overlay
/// their wc fields.
struct Completion {
  u64 wr_id = 0;
  Status status;
  WcOpcode opcode = WcOpcode::kSend;
  std::size_t byte_len = 0;
  u32 qpn = 0;  // local QP this completion belongs to

  /// UD receives: datagram source (paper: "completion queue elements need
  /// to be altered to include ... source address and port").
  host::Endpoint src;
  u32 src_qpn = 0;

  /// Target-side Write-Record entries: where the data landed and which
  /// byte ranges are valid.
  u32 stag = 0;
  u64 base_to = 0;
  bool solicited = false;
  rdmap::ValidityMap validity;

  /// Message-lifecycle span (telemetry/span.hpp) riding the completion, and
  /// whether this completion terminates it (the receive-side completion of
  /// a message does; the source-side completion of a send does not).
  /// Observational only.
  u64 span = 0;
  bool ends_span = false;
};

}  // namespace dgiwarp::verbs
