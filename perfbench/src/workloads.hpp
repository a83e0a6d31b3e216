// The three benchmark workloads. Each builds its own simulated fabric from
// `seed`, drives it through the stack's public APIs, checks its outputs and
// fills `out`. `tracer` is non-null only on a traced pass.
#pragma once

#include "probe.hpp"

namespace pb {

/// Two hosts on one leaf; back-to-back messages at queue depth 8 for UD
/// Send/Recv, UD Write-Record, RC Send/Recv and RC Write+notify, each at
/// one small and one 256 KiB size.
void run_stream(u64 seed, Output& out, Phases& phases, Tracer* tracer);

/// Two hosts; RD Send/Recv and RD Write-Record at 8 KiB and 64 KiB under
/// 1 % and 5 % Bernoulli data-path loss.
void run_rd_lossy(u64 seed, Output& out, Phases& phases, Tracer* tracer);

/// 1,000 hosts on 8 leaves; 500 UD SIP tenants each establish and then
/// tear down 20 concurrent calls.
void run_sip_fleet(u64 seed, Output& out, Phases& phases, Tracer* tracer);

/// Registry counters every workload reports (0 where a layer is idle).
const std::vector<std::string>& layer_counters();

/// Derived per-layer ratios and allocation figures, once a workload is done.
void finish(Output& out, const Phases& phases);

}  // namespace pb
