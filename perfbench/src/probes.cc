#include "probes.h"

#include "common/epoch.h"
#include "common/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kChunk = 4096;  // calls per probe span
constexpr size_t kProbeCalls = 64 * kChunk;
constexpr size_t kBatch = 16;    // keys per LookupBatch, as the server flushes
constexpr uint32_t kScanLen = 100;

volatile size_t g_sink;  // keeps probe results observable

// Repeats `chunk(begin, end)` over [0, calls) in spans of kChunk calls.
template <typename F>
void TimedChunks(std::vector<Span>* buf, uint16_t name, uint16_t parent, size_t calls,
                 F&& chunk) {
  for (size_t begin = 0; begin < calls; begin += kChunk) {
    const size_t end = std::min(calls, begin + kChunk);
    const uint64_t t0 = NowNs();
    const uint64_t items = chunk(begin, end);
    Record(buf, name, parent, t0, NowNs(), static_cast<uint32_t>(items));
  }
}

}  // namespace

std::vector<uint16_t> PathSpanNames(Tracer& tracer, const std::string& prefix) {
  std::vector<uint16_t> names(alt::kNumServedBy);
  for (size_t i = 0; i < alt::kNumServedBy; ++i) {
    names[i] = tracer.Name(prefix + alt::ServedByName(static_cast<alt::ServedBy>(i)));
  }
  return names;
}

void AddLookupPathMetrics(const Tracer& tracer, const std::vector<uint16_t>& names,
                          Result* r) {
  size_t total = 0;
  for (uint16_t n : names) total += tracer.Count(n);
  const size_t learned = tracer.Count(names[static_cast<size_t>(alt::ServedBy::kLearnedSlot)]);
  r->Add("core.learned_slot_share",
         total == 0 ? 0.0 : static_cast<double>(learned) / static_cast<double>(total), "ratio");
  AddPathMetrics(tracer, names, "core.lookup_ns.", kLookupPaths, r);
}

FpCounters FpCounters::Now() {
  const alt::metrics::Snapshot s = alt::metrics::TakeSnapshot();
  return FpCounters{s.counter(alt::metrics::Counter::kArtLookups),
                    s.counter(alt::metrics::Counter::kFastPointerHits)};
}

void ProbeCore(const alt::AltIndex& index, const std::vector<Key>& stream,
               const std::vector<Key>& sorted, ProbeOptions opts, Tracer& tracer, Result* r) {
  std::vector<Span>* buf = tracer.Buffer(kProbeTid);
  const uint16_t parent = tracer.Name("probe");
  const size_t calls = std::min(kProbeCalls, stream.size() - stream.size() % kBatch);
  uint64_t attempted = 0;
  auto check = [&](const char* what, Key key, bool found, Value v) {
    ++attempted;
    if (!found || v != ValueOf(key)) {
      r->Wrong("%s(%llu) found=%d", what, static_cast<unsigned long long>(key), found);
    }
  };

  const uint16_t pin = tracer.Name("epoch.pin");
  TimedChunks(buf, pin, parent, calls, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) alt::EpochGuard g(index.epoch());
    return e - b;
  });

  const uint16_t locate = tracer.Name("core.locate");
  size_t sink = 0;
  TimedChunks(buf, locate, parent, calls, [&](size_t b, size_t e) {
    alt::EpochGuard g(index.epoch());
    const alt::ModelDirectory::Snapshot* snap = index.directory().snapshot();
    for (size_t i = b; i < e; ++i) sink += alt::ModelDirectory::Locate(*snap, stream[i]);
    return e - b;
  });
  g_sink = sink;

  const uint16_t batch = tracer.Name("core.batch");
  Value out[kBatch];
  bool found[kBatch];
  TimedChunks(buf, batch, parent, calls, [&](size_t b, size_t e) {
    for (size_t i = b; i + kBatch <= e; i += kBatch) {
      index.LookupBatch(&stream[i], kBatch, out, found);
      for (size_t j = 0; j < kBatch; ++j) check("LookupBatch", stream[i + j], found[j], out[j]);
    }
    return e - b;
  });

  if (opts.lookup_paths) {
    const std::vector<uint16_t> paths = PathSpanNames(tracer, "core.lookup.");
    for (size_t i = 0; i < calls; ++i) {
      Value v = 0;
      alt::ServedBy by = alt::ServedBy::kUnattributed;
      const uint64_t t0 = NowNs();
      const bool found_k = index.Lookup(stream[i], &v, &by);
      Record(buf, paths[static_cast<size_t>(by)], parent, t0, NowNs());
      check("Lookup", stream[i], found_k, v);
    }
  }

  // ART-resident keys: those a lookup answers from ART-OPT.
  std::vector<Key> art_keys;
  const size_t stride = std::max<size_t>(1, sorted.size() / kProbeCalls);
  for (size_t i = 0; i < sorted.size(); i += stride) {
    const Key k = sorted[i];
    Value v = 0;
    alt::ServedBy by = alt::ServedBy::kUnattributed;
    const bool found_k = index.Lookup(k, &v, &by);
    check("Lookup", k, found_k, v);
    if (by >= alt::ServedBy::kArtFpShallow && by <= alt::ServedBy::kArtRoot) art_keys.push_back(k);
  }
  const uint16_t art = tracer.Name("art.lookup");
  uint64_t steps = 0;
  TimedChunks(buf, art, parent, std::min(kProbeCalls, art_keys.size()), [&](size_t b, size_t e) {
    alt::EpochGuard g(index.epoch());
    for (size_t i = b; i < e; ++i) {
      Value v = 0;
      int s = 0;
      const bool found_k = index.art().Lookup(art_keys[i], &v, &s);
      check("ArtTree::Lookup", art_keys[i], found_k, v);
      steps += static_cast<uint64_t>(s);
    }
    return e - b;
  });

  r->Add("epoch.pin_ns", tracer.MedianNs(pin), "ns");
  r->Add("core.locate_ns", tracer.MedianNs(locate), "ns");
  r->Add("core.batch_ns_per_key", tracer.MedianNs(batch), "ns");
  r->Add("art.lookup_ns", tracer.MedianNs(art), "ns");
  const size_t art_calls = std::min(kProbeCalls, art_keys.size());
  r->Add("art.steps_per_lookup",
         art_calls == 0 ? 0.0 : static_cast<double>(steps) / art_calls, "count");

  if (opts.scans) {
    const uint16_t scan = tracer.Name("core.scan");
    std::vector<std::pair<Key, Value>> got;
    for (size_t i = 0; i + 64 <= calls / 16; i += 64) {
      const uint64_t t0 = NowNs();
      uint64_t keys = 0;
      for (size_t j = i; j < i + 64; ++j) {
        keys += index.Scan(stream[j], kScanLen, &got);
        ++attempted;
        if (!CheckScan(stream[j], kScanLen, got, sorted)) r->Wrong("probe scan");
      }
      Record(buf, scan, parent, t0, NowNs(), static_cast<uint32_t>(keys));
    }
    r->Add("core.scan_ns_per_key", tracer.MedianNs(scan), "ns");
  }
  r->attempted += attempted;
}

void AddStructure(const std::vector<const alt::AltIndex*>& indexes, Result* r) {
  double keys = 0, models = 0, art_keys = 0, occupied = 0;
  double model_b = 0, expansion_b = 0, directory_b = 0, fp_b = 0, art_b = 0;
  for (const alt::AltIndex* index : indexes) {
    const alt::AltIndex::StructuralStats s = index->CollectStructuralStats();
    keys += static_cast<double>(index->Size());
    models += static_cast<double>(s.num_models);
    art_keys += static_cast<double>(s.art_keys);
    occupied += static_cast<double>(s.slot_states[1]);
    model_b += static_cast<double>(s.model_bytes);
    expansion_b += static_cast<double>(s.expansion_bytes);
    directory_b += static_cast<double>(s.directory_bytes);
    fp_b += static_cast<double>(s.fast_pointer_bytes);
    art_b += static_cast<double>(s.art_bytes);
  }
  if (keys == 0) keys = 1;
  r->Add("core.models", models, "count");
  r->Add("core.conflict_ratio", art_keys + occupied == 0 ? 0.0 : art_keys / (art_keys + occupied),
         "ratio");
  r->Add("core.model.bytes_per_key", model_b / keys, "B");
  r->Add("core.expansion.bytes_per_key", expansion_b / keys, "B");
  r->Add("core.directory.bytes_per_key", directory_b / keys, "B");
  r->Add("fp.bytes_per_key", fp_b / keys, "B");
  r->Add("art.bytes_per_key", art_b / keys, "B");
}

}  // namespace perfbench
