#include "ddp/reassembly.hpp"

#include <cstring>

namespace dgiwarp::ddp {

Status UntaggedReassembler::begin(const UntaggedKey& key, u32 msg_len,
                                  ByteSpan sink, u64 cookie, TimeNs deadline) {
  if (sink.size() < msg_len)
    return Status(Errc::kInvalidArgument, "receive buffer too small");
  if (inflight_.contains(key))
    return Status(Errc::kInvalidArgument, "message already tracked");
  Assembly a;
  a.sink = sink;
  a.msg_len = msg_len;
  a.cookie = cookie;
  a.deadline = deadline;
  inflight_.emplace(key, std::move(a));
  return Status::Ok();
}

Result<UntaggedReassembler::OfferResult> UntaggedReassembler::offer(
    const UntaggedKey& key, u32 mo, ConstByteSpan payload) {
  auto it = inflight_.find(key);
  if (it == inflight_.end())
    return Status(Errc::kNotFound, "message not tracked");
  Assembly& a = it->second;
  if (static_cast<std::size_t>(mo) + payload.size() > a.msg_len)
    return Status(Errc::kOutOfRange, "segment beyond message length");

  const std::size_t added =
      merge_range(a.ranges, mo, static_cast<u32>(payload.size()));
  if (added > 0) {
    std::memcpy(a.sink.data() + mo, payload.data(), payload.size());
    a.received += added;
  }
  OfferResult r;
  r.placed = added;
  r.completed = a.received >= a.msg_len;
  return r;
}

Result<u64> UntaggedReassembler::complete(const UntaggedKey& key) {
  auto it = inflight_.find(key);
  if (it == inflight_.end())
    return Status(Errc::kNotFound, "message not tracked");
  const u64 cookie = it->second.cookie;
  inflight_.erase(it);
  return cookie;
}

std::vector<UntaggedReassembler::Expired> UntaggedReassembler::expire_before(
    TimeNs now) {
  std::vector<Expired> out;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.deadline <= now) {
      out.push_back(Expired{it->first, it->second.cookie, it->second.received,
                            it->second.msg_len});
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

}  // namespace dgiwarp::ddp
