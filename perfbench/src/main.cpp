// dgibench: one pass of one benchmark workload, printed as one JSON line.
//
//   dgibench --workload <stream|rd_lossy|sip_fleet> --seed <n> [--trace]
//
// The pass runs in its own process so that peak RSS and the allocation
// counts belong to this workload alone. run.py repeats passes, checks that
// their deterministic outputs agree, and reduces them to the benchmark's
// metrics. Exit status: 0 ok, 2 usage error, 3 an output check failed (the
// JSON line is still printed and names the failure).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.hpp"
#include "workloads.hpp"

namespace pb {

const std::vector<std::string>& layer_counters() {
  static const std::vector<std::string> names = {
      "simnet.link.frames_delivered", "simnet.nic.rx_frames",
      "simnet.switch.frames_flooded", "simnet.switch.frames_forwarded",
      "simnet.link.queue_drops",      "hoststack.ip.fragments_tx",
      "hoststack.ip.reassembly_expired", "hoststack.tcp.segments_tx",
      "hoststack.tcp.retransmits",    "rd.data_tx",
      "rd.data_rx",                   "rd.retries",
      "rd.fast_retransmits",          "rd.give_ups",
      "rd.duplicates",                "rd.acks_tx",
      "rd.rx_gaps",                   "verbs.rc.segments_tx",
      "rdmap.write_record.chunks",    "rdmap.write_record.completed",
      "verbs.cq.completions",         "verbs.ud.crc_drops",
      "isock.dgram.tx",               "isock.bytes.rx",
      "isock.pool.rx_dropped_no_slot",
  };
  return names;
}

void finish(Output& out, const Phases& ph) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto& d = out.det;
  const double events = d["simnet.events"];
  d["simnet.events_per_op"] = ratio(events, static_cast<double>(out.ops));
  d["simnet.link.useful_frac"] =
      ratio(d["simnet.nic.rx_frames"], d["simnet.link.frames_delivered"]);
  d["simnet.switch.flood_frac"] =
      ratio(d["simnet.switch.frames_flooded"],
            d["simnet.switch.frames_flooded"] +
                d["simnet.switch.frames_forwarded"]);
  d["rd.useful_frac"] = ratio(d["rd.data_rx"], d["rd.data_tx"]);
  d["ops_failed_frac"] =
      ratio(static_cast<double>(out.failed), static_cast<double>(out.ops));

  out.repro["alloc.setup"] = static_cast<double>(ph.setup_alloc.count);
  out.repro["alloc.run"] = static_cast<double>(ph.run_alloc.count);
  out.repro["alloc.run_bytes"] = static_cast<double>(ph.run_alloc.bytes);
  out.repro["alloc.per_event"] =
      ratio(static_cast<double>(ph.run_alloc.count), events);
  out.repro["alloc.bytes_path"] = static_cast<double>(ph.run_bytes_path.count);

  out.wall["run_s"] = ph.run_s;
  out.wall["setup_s"] = ph.setup_s;
  out.wall["peak_rss_mb"] = peak_rss_mb();
}

}  // namespace pb

namespace {

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + "\"";
}

void print_group(const char* name, const std::map<std::string, double>& m,
                 pb::Output& out) {
  std::printf(", %s: {", quoted(name).c_str());
  const char* sep = "";
  for (const auto& [k, v] : m) {
    if (!std::isfinite(v)) {
      out.error("metric " + k + " is not finite");
      std::printf("%s%s: 0", sep, quoted(k).c_str());
    } else {
      std::printf("%s%s: %.17g", sep, quoted(k).c_str(), v);
    }
    sep = ", ";
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr, "usage: dgibench --workload <stream|rd_lossy|"
                       "sip_fleet> --seed <n> [--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  unsigned long long seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage();
      have_seed = true;
    } else if (a == "--trace") {
      traced = true;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  // Loss makes the stack log every RD give-up and expiry at WARN; writing
  // them to stderr inside the timed region would measure the terminal.
  // Failures are counted from the registry instead (rd.give_ups, ...).
  dgiwarp::logging::set_level(dgiwarp::LogLevel::kError);

  pb::Output out;
  pb::Phases phases;
  pb::Tracer tracer;
  pb::Tracer* tr = traced ? &tracer : nullptr;
  if (workload == "stream") {
    pb::run_stream(seed, out, phases, tr);
  } else if (workload == "rd_lossy") {
    pb::run_rd_lossy(seed, out, phases, tr);
  } else if (workload == "sip_fleet") {
    pb::run_sip_fleet(seed, out, phases, tr);
  } else {
    return usage();
  }
  pb::finish(out, phases);
  if (tr) tracer.report(out, out.ops);

  std::printf("{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
              "\"ops\": %llu, \"failed\": %llu, \"registry_fnv\": \"%016llx\"",
              quoted(workload).c_str(), seed, traced ? "true" : "false",
              static_cast<unsigned long long>(out.ops),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.registry_fnv));
  print_group("det", out.det, out);
  print_group("repro", out.repro, out);
  print_group("wall", out.wall, out);
  print_group("traced", out.traced, out);
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    std::printf("%s%s", i ? ", " : "", quoted(out.errors[i]).c_str());
  std::printf("]}\n");
  std::fflush(stdout);
  return out.errors.empty() ? 0 : 3;
}
