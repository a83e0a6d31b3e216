#include "apps/sip/transaction.hpp"

namespace dgiwarp::sip {

UasAction uas_on_request(CallRecord& call, Method method) {
  UasAction act;
  switch (method) {
    case Method::kInvite:
      if (call.state == CallState::kIdle) {
        call.state = CallState::kInviteSent;  // 200 pending ACK
        act.call_created = true;
      }
      act.respond_code = 200;
      act.reason = "OK";
      return act;
    case Method::kAck:
      if (call.state == CallState::kInviteSent)
        call.state = CallState::kEstablished;
      return act;  // no response to ACK
    case Method::kBye:
      call.state = CallState::kTerminated;
      act.respond_code = 200;
      act.reason = "OK";
      act.call_destroyed = true;
      return act;
    case Method::kOptions:
    case Method::kRegister:
      act.respond_code = 200;
      act.reason = "OK";
      return act;
    default:
      act.respond_code = 405;
      act.reason = "Method Not Allowed";
      return act;
  }
}

Method uac_on_response(CallRecord& call, int status_code,
                       const std::string& cseq_method) {
  if (status_code < 200) return Method::kResponse;  // provisional: wait
  if (cseq_method.find("INVITE") != std::string::npos &&
      call.state == CallState::kInviteSent) {
    call.state = CallState::kEstablished;
    return Method::kAck;
  }
  if (cseq_method.find("BYE") != std::string::npos &&
      call.state == CallState::kByeSent) {
    call.state = CallState::kTerminated;
    return Method::kResponse;
  }
  return Method::kResponse;
}

}  // namespace dgiwarp::sip
