// SIP call/transaction state machines for the UAS and UAC sides.
//
// Models the SipStone basic call: INVITE -> 200 OK -> ACK (call held) ->
// BYE -> 200 OK. Per-call state is charged to the host's memory ledger so
// Figure 11's whole-application memory comparison measures real allocated
// state, not a formula.
#pragma once

#include <string>

#include "apps/sip/message.hpp"
#include "common/memledger.hpp"
#include "common/types.hpp"

namespace dgiwarp::sip {

enum class CallState {
  kIdle,
  kInviteSent,   // UAC: awaiting 200
  kEstablished,  // both: ACK exchanged, call held
  kByeSent,      // UAC: awaiting 200 to BYE
  kTerminated,
};

/// Per-call application bookkeeping (dialog identifiers, route set, SDP,
/// timers) — the "additional book keeping to keep track of the states of
/// the calls" the paper attributes its measured-vs-theoretical gap to.
struct CallRecord {
  std::string call_id;
  std::string local_tag;
  std::string remote_tag;
  CallState state = CallState::kIdle;
  u32 cseq = 1;
  TimeNs created = 0;
  TimeNs answered = 0;

  /// Approximate heap footprint of one call's application state (strings,
  /// dialog map node, SDP copy, timer entries), charged to the ledger.
  static constexpr std::size_t kAppBytesPerCall = 2'048;
};

/// What the UAS should do in reaction to an incoming request.
struct UasAction {
  int respond_code = 0;  // 0 = no response (ACK)
  const char* reason = "";
  bool call_created = false;
  bool call_destroyed = false;
};

/// UAS-side state transition for an incoming request.
UasAction uas_on_request(CallRecord& call, Method method);

/// UAC-side state transition for an incoming response; returns the next
/// request the UAC should send (kResponse sentinel = nothing to send).
Method uac_on_response(CallRecord& call, int status_code,
                       const std::string& cseq_method);

}  // namespace dgiwarp::sip
