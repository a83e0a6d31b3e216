#include "telemetry/profiler.hpp"

#include "telemetry/json_lite.hpp"

namespace dgiwarp::telemetry {

const char* cost_layer_name(CostLayer l) {
  switch (l) {
    case CostLayer::kIp: return "ip";
    case CostLayer::kUdp: return "udp";
    case CostLayer::kTcp: return "tcp";
    case CostLayer::kRd: return "rd";
    case CostLayer::kMpa: return "mpa";
    case CostLayer::kDdp: return "ddp";
    case CostLayer::kRdmap: return "rdmap";
    case CostLayer::kVerbs: return "verbs";
    case CostLayer::kIsock: return "isock";
  }
  return "?";
}

const char* cost_activity_name(CostActivity a) {
  switch (a) {
    case CostActivity::kSyscall: return "syscall";
    case CostActivity::kCopy: return "copy";
    case CostActivity::kCrc: return "crc";
    case CostActivity::kMarkers: return "markers";
    case CostActivity::kSegment: return "segment";
    case CostActivity::kDeliver: return "deliver";
    case CostActivity::kWakeup: return "wakeup";
    case CostActivity::kAck: return "ack";
    case CostActivity::kRetransmit: return "retransmit";
    case CostActivity::kPost: return "post";
    case CostActivity::kPoll: return "poll";
    case CostActivity::kMatch: return "match";
    case CostActivity::kPlacement: return "placement";
    case CostActivity::kControl: return "control";
  }
  return "?";
}

u8 size_class_of(u64 bytes) {
  if (bytes == 0) return 0;
  if (bytes <= 64) return 1;
  if (bytes <= 256) return 2;
  if (bytes <= 1024) return 3;
  if (bytes <= 4096) return 4;
  if (bytes <= 16384) return 5;
  if (bytes <= 65536) return 6;
  if (bytes <= 262144) return 7;
  if (bytes <= 1048576) return 8;
  return 9;
}

const char* size_class_name(u8 cls) {
  static constexpr const char* kNames[kSizeClassCount] = {
      "0B",      "<=64B",   "<=256B",  "<=1KiB", "<=4KiB",
      "<=16KiB", "<=64KiB", "<=256KiB", "<=1MiB", ">1MiB"};
  return cls < kSizeClassCount ? kNames[cls] : "?";
}

void CostProfiler::enable() {
  enabled_ = true;
  clear();
}

void CostProfiler::clear() { buckets_.fill(Bucket{}); }

const CostProfiler::Bucket& CostProfiler::bucket(CostLayer l, CostActivity a,
                                                 u8 size_class) const {
  return buckets_[(static_cast<std::size_t>(l) * kCostActivityCount +
                   static_cast<std::size_t>(a)) *
                      kSizeClassCount +
                  size_class];
}

u64 CostProfiler::total_ns() const {
  u64 t = 0;
  for (const Bucket& b : buckets_) t += b.total_ns;
  return t;
}

u64 CostProfiler::total_ns(CostLayer l) const {
  u64 t = 0;
  const std::size_t base = static_cast<std::size_t>(l) *
                           kCostActivityCount * kSizeClassCount;
  for (std::size_t i = 0; i < std::size_t{kCostActivityCount} * kSizeClassCount;
       ++i)
    t += buckets_[base + i].total_ns;
  return t;
}

void CostProfiler::merge_from(const CostProfiler& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].count += other.buckets_[i].count;
    buckets_[i].total_ns += other.buckets_[i].total_ns;
    buckets_[i].total_bytes += other.buckets_[i].total_bytes;
  }
}

std::string CostProfiler::to_json() const {
  std::string out = "[";
  bool first = true;
  std::size_t i = 0;
  for (u8 l = 0; l < kCostLayerCount; ++l)
    for (u8 a = 0; a < kCostActivityCount; ++a)
      for (u8 c = 0; c < kSizeClassCount; ++c, ++i) {
        const Bucket& b = buckets_[i];
        if (b.count == 0) continue;
        if (!first) out += ',';
        first = false;
        out += "{\"layer\":\"";
        out += cost_layer_name(static_cast<CostLayer>(l));
        out += "\",\"activity\":\"";
        out += cost_activity_name(static_cast<CostActivity>(a));
        out += "\",\"size\":\"";
        out += size_class_name(c);
        out += "\",\"count\":";
        append_u64(out, b.count);
        out += ",\"total_ns\":";
        append_u64(out, b.total_ns);
        out += ",\"total_bytes\":";
        append_u64(out, b.total_bytes);
        out += '}';
      }
  out += "]";
  return out;
}

}  // namespace dgiwarp::telemetry
