// The benchmark's workloads. Each builds its inputs from the run's seed,
// measures for the run's seconds, checks every answer and fills `r` with the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include "common.h"

namespace perfbench {

inline uint64_t SecondsToNs(double s) { return static_cast<uint64_t>(s * 1e9); }

void RunLookup(const RunConfig& cfg, Tracer& tracer, Result* r);
void RunMixed(const RunConfig& cfg, Tracer& tracer, Result* r);
void RunServe(const RunConfig& cfg, Tracer& tracer, Result* r);

}  // namespace perfbench
