#include "rdmap/write_record.hpp"

namespace dgiwarp::rdmap {

void ValidityMap::add(u32 offset, u32 length) {
  merge_range(ranges_, offset, length);
}

std::size_t ValidityMap::valid_bytes() const {
  std::size_t total = 0;
  for (const Range& r : ranges_) total += r.length;
  return total;
}

bool ValidityMap::complete(u32 msg_len) const {
  return ranges_.size() == 1 && ranges_[0].offset == 0 &&
         ranges_[0].length >= msg_len;
}

double ValidityMap::coverage(u32 msg_len) const {
  if (msg_len == 0) return 1.0;
  return static_cast<double>(valid_bytes()) / static_cast<double>(msg_len);
}

WriteRecordLog::WriteRecordLog(telemetry::Registry& reg)
    : reg_(reg),
      chunks_(reg.counter("rdmap.write_record.chunks")),
      completed_msgs_(reg.counter("rdmap.write_record.completed")),
      out_of_order_(reg.counter("rdmap.write_record.out_of_order")),
      expired_(reg.counter("rdmap.write_record.expired")),
      late_chunks_(reg.counter("rdmap.write_record.late_chunks")) {}

WriteRecordLog::ChunkResult WriteRecordLog::record_chunk(
    u32 src_ip, u32 src_qpn, u32 msg_id, u32 stag, u64 to, u32 mo, u32 len,
    u32 msg_len, bool last, TimeNs deadline) {
  const Key key{src_ip, src_qpn, msg_id};
  ChunkResult res;

  if (recently_completed_.contains(key)) {
    late_chunks_.inc();
    res.late = true;
    return res;
  }

  auto [it, inserted] = records_.try_emplace(key);
  Record& rec = it->second;
  if (inserted) {
    rec.c.src_qpn = src_qpn;
    rec.c.msg_id = msg_id;
    rec.c.stag = stag;
    rec.c.base_to = to - mo;
    rec.c.msg_len = msg_len;
    rec.deadline = deadline;
  }

  chunks_.inc();
  // A chunk whose message offset does not extend the contiguously covered
  // prefix was placed out of order (an earlier sibling is missing or late).
  const auto& ranges = rec.c.validity.ranges();
  const u32 contiguous_end =
      ranges.empty() ? 0 : ranges.back().offset + ranges.back().length;
  if (mo != contiguous_end) out_of_order_.inc();
  reg_.trace().record(telemetry::TraceKind::kWriteRecordChunk, msg_id, len);

  rec.c.validity.add(mo, len);

  if (last) {
    rec.c.last_seen = true;
    completed_msgs_.inc();
    reg_.trace().record(telemetry::TraceKind::kWriteRecordComplete, msg_id,
                        rec.c.validity.valid_bytes());
    completed_.push_back(std::move(rec.c));
    recently_completed_.emplace(key, rec.deadline);
    records_.erase(it);
    res.message_completed = true;
  }
  return res;
}

Result<WriteRecordCompletion> WriteRecordLog::take_completed() {
  if (completed_.empty())
    return Status(Errc::kNotFound, "no completed write-record");
  WriteRecordCompletion c = std::move(completed_.front());
  completed_.erase(completed_.begin());
  return c;
}

std::vector<WriteRecordCompletion> WriteRecordLog::expire_before(TimeNs now) {
  std::vector<WriteRecordCompletion> out;
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.deadline <= now) {
      expired_.inc();
      reg_.trace().record(telemetry::TraceKind::kWriteRecordExpired,
                          it->first.msg_id,
                          it->second.c.validity.valid_bytes());
      out.push_back(std::move(it->second.c));
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  // Also forget stale late-chunk guards.
  for (auto it = recently_completed_.begin();
       it != recently_completed_.end();) {
    if (it->second <= now) {
      it = recently_completed_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

}  // namespace dgiwarp::rdmap
