// Layer probes for traced runs: timed calls into the public functions of the
// core, art and epoch layers, plus the structural breakdown of an index.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "core/alt_index.h"

namespace perfbench {

/// Thread id the probes record under (workload threads use 0..15).
constexpr int kProbeTid = 16;

/// The terminal paths whose per-op latency the benchmark reports. Deeper
/// fast-pointer hints and root descents do not occur on these key sets.
constexpr alt::ServedBy kLookupPaths[] = {alt::ServedBy::kLearnedSlot,
                                          alt::ServedBy::kArtFpShallow,
                                          alt::ServedBy::kArtFpMid};
constexpr alt::ServedBy kInsertPaths[] = {alt::ServedBy::kSlotInsert,
                                          alt::ServedBy::kConflictInsert,
                                          alt::ServedBy::kExpansionPath};

/// Registers `prefix` + alt::ServedByName(path) for every terminal path,
/// indexed by path, so workload threads can record per-op spans without
/// touching the tracer's name table.
std::vector<uint16_t> PathSpanNames(Tracer& tracer, const std::string& prefix);

/// Adds `metric_prefix` + path = median ns of the spans `names[path]`, for
/// each of `paths`.
template <size_t N>
void AddPathMetrics(const Tracer& tracer, const std::vector<uint16_t>& names,
                    const std::string& metric_prefix, const alt::ServedBy (&paths)[N],
                    Result* r) {
  for (alt::ServedBy by : paths) {
    r->Add(metric_prefix + alt::ServedByName(by),
           tracer.MedianNs(names[static_cast<size_t>(by)]), "ns");
  }
}

/// core.lookup_ns.* and core.learned_slot_share from per-op lookup spans.
void AddLookupPathMetrics(const Tracer& tracer, const std::vector<uint16_t>& names,
                          Result* r);

struct ProbeOptions {
  bool scans = false;         ///< time 100-key Scans (core.scan_ns_per_key)
  bool lookup_paths = false;  ///< time Lookups by terminal path (core.lookup.* spans)
};

/// Single-threaded timed calls into `index`: EpochGuard enter/exit,
/// ModelDirectory::Locate under an EpochGuard, 16-key LookupBatch and
/// ArtTree::Lookup on ART-resident keys, plus what `opts` asks for. `stream`
/// holds keys present in the index in the workload's access order; `sorted`
/// holds every key the index must contain (a uniform sample of it finds the
/// ART-resident keys, and scans are checked against it).
void ProbeCore(const alt::AltIndex& index, const std::vector<Key>& stream,
               const std::vector<Key>& sorted, ProbeOptions opts, Tracer& tracer, Result* r);

/// Inserts `fresh` keys (all absent) one at a time through
/// `insert(key, value, &served)`, recording each as a core.insert.<path> span,
/// and adds core.insert_ns.*.
template <typename InsertFn>
void ProbeInserts(InsertFn&& insert, const std::vector<Key>& fresh, Tracer& tracer, Result* r) {
  const std::vector<uint16_t> names = PathSpanNames(tracer, "core.insert.");
  std::vector<Span>* buf = tracer.Buffer(kProbeTid);
  const uint16_t parent = tracer.Name("probe");
  for (Key k : fresh) {
    alt::ServedBy by = alt::ServedBy::kUnattributed;
    const uint64_t t0 = NowNs();
    const bool ok = insert(k, ValueOf(k), &by);
    Record(buf, names[static_cast<size_t>(by)], parent, t0, NowNs());
    ++r->attempted;
    if (!ok) r->Wrong("probe Insert(%llu) of a fresh key", static_cast<unsigned long long>(k));
  }
  AddPathMetrics(tracer, names, "core.insert_ns.", kInsertPaths, r);
}

/// core.models, core.conflict_ratio and the per-component bytes per live key,
/// summed over `indexes` (quiescent).
void AddStructure(const std::vector<const alt::AltIndex*>& indexes, Result* r);

/// ART secondary searches and fast-pointer hits from the metrics registry.
struct FpCounters {
  uint64_t art_lookups = 0;
  uint64_t fp_hits = 0;
  static FpCounters Now();
};

/// Fast-pointer hits per ART secondary search between two readings.
inline double FpHitShare(const FpCounters& before, const FpCounters& after) {
  const uint64_t lookups = after.art_lookups - before.art_lookups;
  return lookups == 0 ? 0.0
                      : static_cast<double>(after.fp_hits - before.fp_hits) / lookups;
}

}  // namespace perfbench
