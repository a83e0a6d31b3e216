#include "apps/sip/message.hpp"

#include <algorithm>

namespace dgiwarp::sip {

namespace {
const std::string kEmpty;
const char* kVersion = "SIP/2.0";

// Parser bounds: a corrupted or hostile message must not make the parser
// allocate unbounded header state or scan forever. Real SIP stacks impose
// similar limits (e.g. pjsip's PJSIP_MAX_URL_SIZE / header count caps).
constexpr std::size_t kMaxHeaders = 128;
constexpr std::size_t kMaxLineBytes = 8192;

// Non-throwing decimal parse (std::stoul throws on garbage and overflows
// are UB through sscanf %d). Accepts optional leading/trailing spaces.
bool parse_decimal(const std::string& s, u64 max, u64& out) {
  std::size_t i = 0;
  while (i < s.size() && s[i] == ' ') ++i;
  if (i == s.size()) return false;
  u64 v = 0;
  bool any = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c == ' ') break;
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<u64>(c - '0');
    if (v > max) return false;
    any = true;
  }
  for (; i < s.size(); ++i)
    if (s[i] != ' ') return false;
  if (!any) return false;
  out = v;
  return true;
}
}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kInvite: return "INVITE";
    case Method::kAck: return "ACK";
    case Method::kBye: return "BYE";
    case Method::kRegister: return "REGISTER";
    case Method::kOptions: return "OPTIONS";
    case Method::kResponse: return "<response>";
  }
  return "?";
}

Result<Method> parse_method(const std::string& token) {
  if (token == "INVITE") return Method::kInvite;
  if (token == "ACK") return Method::kAck;
  if (token == "BYE") return Method::kBye;
  if (token == "REGISTER") return Method::kRegister;
  if (token == "OPTIONS") return Method::kOptions;
  return Status(Errc::kProtocolError, "unknown SIP method: " + token);
}

const std::string& SipMessage::header(const std::string& name) const {
  for (const auto& [k, v] : headers)
    if (k == name) return v;
  return kEmpty;
}

void SipMessage::set_header(const std::string& name, std::string value) {
  for (auto& [k, v] : headers) {
    if (k == name) {
      v = std::move(value);
      return;
    }
  }
  headers.emplace_back(name, std::move(value));
}

Bytes SipMessage::serialize() const {
  std::string out;
  out.reserve(512 + body.size());
  if (is_request()) {
    out += method_name(method);
    out += ' ';
    out += request_uri;
    out += ' ';
    out += kVersion;
  } else {
    out += kVersion;
    out += ' ';
    out += std::to_string(status_code);
    out += ' ';
    out += reason;
  }
  out += "\r\n";
  for (const auto& [k, v] : headers) {
    if (k == "Content-Length") continue;  // regenerated below
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return bytes_of(out);
}

Result<SipMessage> SipMessage::parse(ConstByteSpan wire) {
  const std::string text(wire.begin(), wire.end());
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos)
    return Status(Errc::kProtocolError, "SIP message missing header end");

  SipMessage msg;
  std::size_t pos = 0;
  // Reads the next CRLF-terminated line within the header section only
  // (never past head_end, so a stray CRLF in the body is not a header).
  auto next_line = [&](std::string& line) {
    if (pos > head_end) return false;
    const auto eol = text.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) return false;
    line = text.substr(pos, eol - pos);
    pos = eol + 2;
    return true;
  };

  std::string start;
  if (!next_line(start) || start.empty())
    return Status(Errc::kProtocolError, "missing SIP start line");
  if (start.size() > kMaxLineBytes)
    return Status(Errc::kProtocolError, "SIP start line too long");

  if (start.rfind(kVersion, 0) == 0) {
    msg.method = Method::kResponse;
    // "SIP/2.0 <code> [reason]" — hand-rolled; sscanf %d is UB on overflow.
    std::size_t p = std::char_traits<char>::length(kVersion);
    if (p >= start.size() || start[p] != ' ')
      return Status(Errc::kProtocolError, "bad SIP status line");
    const auto code_end = start.find(' ', p + 1);
    const std::string code_tok =
        start.substr(p + 1, code_end == std::string::npos ? std::string::npos
                                                          : code_end - p - 1);
    u64 code = 0;
    if (!parse_decimal(code_tok, 999, code) || code < 100)
      return Status(Errc::kProtocolError, "bad SIP status code");
    msg.status_code = static_cast<int>(code);
    if (code_end != std::string::npos) msg.reason = start.substr(code_end + 1);
  } else {
    const auto sp1 = start.find(' ');
    const auto sp2 =
        sp1 == std::string::npos ? std::string::npos : start.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
      return Status(Errc::kProtocolError, "bad SIP request line");
    if (start.substr(sp2 + 1) != kVersion)
      return Status(Errc::kProtocolError, "bad SIP version");
    auto m = parse_method(start.substr(0, sp1));
    if (!m.ok()) return m.status();
    msg.method = *m;
    msg.request_uri = start.substr(sp1 + 1, sp2 - sp1 - 1);
  }

  std::string line;
  while (next_line(line) && !line.empty()) {
    if (line.size() > kMaxLineBytes)
      return Status(Errc::kProtocolError, "SIP header line too long");
    if (msg.headers.size() >= kMaxHeaders)
      return Status(Errc::kProtocolError, "too many SIP headers");
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
      return Status(Errc::kProtocolError, "bad SIP header line");
    std::string name = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    msg.headers.emplace_back(std::move(name), std::move(value));
  }

  const std::string& cl = msg.header("Content-Length");
  const std::size_t body_at = head_end + 4;
  const std::size_t avail = text.size() - body_at;
  std::size_t body_len = avail;
  if (!cl.empty()) {
    u64 declared = 0;
    if (!parse_decimal(cl, wire.size(), declared))
      return Status(Errc::kProtocolError, "bad SIP Content-Length");
    // A length lie larger than what arrived is clamped to the bytes present
    // (UDP SIP has no framing beyond the datagram); smaller trims the tail.
    body_len = std::min<std::size_t>(avail, declared);
  }
  msg.body = text.substr(body_at, body_len);
  return msg;
}

SipMessage make_request(Method m, const std::string& from_user,
                        const std::string& to_user, const std::string& call_id,
                        u32 cseq_num) {
  SipMessage msg;
  msg.method = m;
  msg.request_uri = "sip:" + to_user + "@dgiwarp.test";
  msg.set_header("Via", "SIP/2.0/UDP client.dgiwarp.test;branch=z9hG4bK-" +
                            call_id);
  msg.set_header("Max-Forwards", "70");
  msg.set_header("From", "<sip:" + from_user + "@dgiwarp.test>;tag=" +
                             from_user);
  msg.set_header("To", "<sip:" + to_user + "@dgiwarp.test>");
  msg.set_header("Call-ID", call_id);
  msg.set_header("CSeq", std::to_string(cseq_num) + " " +
                             std::string(method_name(m)));
  msg.set_header("Contact", "<sip:" + from_user + "@client.dgiwarp.test>");
  if (m == Method::kInvite) {
    msg.set_header("Content-Type", "application/sdp");
    msg.body =
        "v=0\r\no=- 0 0 IN IP4 client.dgiwarp.test\r\ns=call\r\n"
        "c=IN IP4 client.dgiwarp.test\r\nt=0 0\r\n"
        "m=audio 49170 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n";
  }
  return msg;
}

SipMessage make_response(const SipMessage& req, int code,
                         const std::string& reason) {
  SipMessage rsp;
  rsp.method = Method::kResponse;
  rsp.status_code = code;
  rsp.reason = reason;
  for (const char* h : {"Via", "From", "Call-ID", "CSeq"})
    rsp.set_header(h, req.header(h));
  std::string to = req.header("To");
  if (code >= 200 && to.find(";tag=") == std::string::npos)
    to += ";tag=uas-" + req.call_id();
  rsp.set_header("To", to);
  rsp.set_header("Contact", "<sip:server.dgiwarp.test>");
  return rsp;
}

}  // namespace dgiwarp::sip
