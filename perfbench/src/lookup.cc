// Workload `lookup`: read-only scalar AltIndex::Lookup from two threads, Zipf
// 0.99 over fb-like key sets. It isolates the read path (upper-model locate,
// slot probe, fast pointer and ART descent, epoch pin).
//
// The run builds kIndexes indexes of kKeysPerIndex keys each, every one from
// its own key set, and measures them in turn: a round warms one index into the
// cores' L2 with one untimed pass over its access streams, then times a fixed
// number of lookups on it. Each index fills under half of L2 (an index that
// nearly filled it ran three times less steadily), so a round measures the read
// path's instructions and cache behaviour rather than the host's DRAM, whose
// speed moves with the neighbours by a third from one minute to the next; and
// cycling through many key sets keeps a run from depending on one set's model
// layout or on which few keys one seed made hot.
#include "common/epoch.h"
#include "core/alt_index.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kIndexes = 256;
constexpr size_t kKeysPerIndex = 4'096;
constexpr size_t kHeldBackEvery = 17;  // about 1 key in 17 is never loaded
constexpr int kThreads = 2;
constexpr size_t kStreamLen = size_t{1} << 15;  // positions per thread and index
constexpr uint64_t kRoundOps = 8 * kStreamLen;  // timed lookups per thread and round
constexpr uint64_t kSampleEvery = 32;           // latency sample interval (ops)
constexpr uint64_t kSpanEvery = 256;            // traced runs: per-op span interval
static_assert(kKeysPerIndex <= 65'536, "stream positions are 16-bit");

// One index with its inputs.
struct Shard {
  std::vector<Key> loaded;  // sorted
  std::vector<Key> held_back;
  std::vector<uint16_t> streams[kThreads];  // Zipf positions into `loaded`
  alt::AltIndex index;
};

struct ThreadState {
  Tally tally;
  std::vector<uint32_t> read_ns;
  std::vector<Span>* spans = nullptr;
};

// `len` positions in [0, n) drawn by Zipf(0.99) over scattered ranks, with a
// new rank-to-position mapping every kHotSetDraws draws (see ZipfKeyStream).
std::vector<uint16_t> ZipfPositions(size_t n, size_t len, uint64_t seed) {
  Rng rng(seed);
  const Zipf zipf(n, 0.99);
  uint64_t salt = 0;
  std::vector<uint16_t> out(len);
  for (size_t i = 0; i < len; ++i) {
    if (i % kHotSetDraws == 0) salt = rng.Next();
    out[i] = static_cast<uint16_t>(ScatterRank(zipf.Next(rng), n, salt));
  }
  return out;
}

}  // namespace

void RunLookup(const RunConfig& cfg, Tracer& tracer, Result* r) {
  std::vector<std::unique_ptr<Shard>> shards;
  for (size_t i = 0; i < kIndexes; ++i) {
    auto s = std::make_unique<Shard>();
    const uint64_t seed = Mix64(cfg.seed) + i;
    for (Key k : FbLikeKeys(kKeysPerIndex + kKeysPerIndex / (kHeldBackEvery - 1), seed)) {
      (Mix64(k ^ seed) % kHeldBackEvery == 0 ? s->held_back : s->loaded).push_back(k);
    }
    for (int t = 0; t < kThreads; ++t) {
      s->streams[t] = ZipfPositions(s->loaded.size(), kStreamLen, seed * 1000 + t);
    }
    shards.push_back(std::move(s));
  }
  std::vector<ThreadState> threads(kThreads);
  for (int t = 0; t < kThreads; ++t) threads[t].spans = tracer.Buffer(t);
  const std::vector<uint16_t> path_names = PathSpanNames(tracer, "core.lookup.");
  const uint16_t round_name = tracer.Name("lookup.round");

  // Set-up: every BulkLoad, the first ones in the process.
  uint64_t load_ns = 0;
  for (const auto& s : shards) {
    std::vector<Value> values(s->loaded.size());
    for (size_t i = 0; i < values.size(); ++i) values[i] = ValueOf(s->loaded[i]);
    const uint64_t t0 = NowNs();
    const alt::Status st = s->index.BulkLoad(s->loaded.data(), values.data(), values.size());
    load_ns += NowNs() - t0;
    if (!st.ok()) {
      r->CheckFailed("BulkLoad: %s", st.ToString().c_str());
      return;
    }
  }
  const double setup_s = static_cast<double>(load_ns) / 1e9;

  // A pass: one untimed warm-up sweep of the thread's stream (`arg` odd) or
  // kRoundOps timed lookups (`arg` even); arg / 2 is the round.
  PassDriver driver(kThreads, [&](int tid, uint64_t arg) {
    Shard& shard = *shards[(arg / 2) % kIndexes];
    const std::vector<uint16_t>& stream = shard.streams[tid];
    ThreadState& s = threads[tid];
    const bool warm_up = arg % 2 == 1;
    const uint64_t ops = warm_up ? kStreamLen : kRoundOps;
    for (uint64_t i = 0; i < ops; ++i) {
      const Key key = shard.loaded[stream[i % kStreamLen]];
      Value v = 0;
      bool found;
      if (warm_up || i % kSampleEvery != 0) {
        found = shard.index.Lookup(key, &v);
      } else if (s.spans != nullptr && i % kSpanEvery == 0) {
        alt::ServedBy by = alt::ServedBy::kUnattributed;
        const uint64_t t0 = NowNs();
        found = shard.index.Lookup(key, &v, &by);
        const uint64_t t1 = NowNs();
        Record(s.spans, path_names[static_cast<size_t>(by)], round_name, t0, t1);
        s.read_ns.push_back(static_cast<uint32_t>(t1 - t0));
      } else {
        const uint64_t t0 = NowNs();
        found = shard.index.Lookup(key, &v);
        s.read_ns.push_back(static_cast<uint32_t>(NowNs() - t0));
      }
      if (!found || v != ValueOf(key)) {
        s.tally.Wrong("Lookup(%llu) found=%d", static_cast<unsigned long long>(key), found);
      }
    }
    s.tally.attempted += ops;
  });

  const FpCounters fp_before = FpCounters::Now();
  std::vector<double> mops, p50, p99;
  for (uint64_t round = 0, measured = 0; measured < SecondsToNs(cfg.seconds); ++round) {
    for (ThreadState& s : threads) s.read_ns.clear();
    driver.RunPass(2 * round + 1);
    const uint64_t wall = driver.RunPass(2 * round);
    measured += wall;
    std::vector<uint32_t> read_ns;
    for (const ThreadState& s : threads) {
      read_ns.insert(read_ns.end(), s.read_ns.begin(), s.read_ns.end());
    }
    mops.push_back(static_cast<double>(kThreads * kRoundOps) * 1e3 / static_cast<double>(wall));
    p50.push_back(Quantile(read_ns, 0.50));
    p99.push_back(Quantile(read_ns, 0.99));
  }
  const FpCounters fp_after = FpCounters::Now();
  for (const ThreadState& s : threads) r->Merge(s.tally);
  std::fprintf(stderr, "perfbench: lookup: %zu rounds, Mops/s min %.4g median %.4g max %.4g\n",
               mops.size(), *std::min_element(mops.begin(), mops.end()), Median(mops),
               *std::max_element(mops.begin(), mops.end()));

  // Keys that were never loaded must miss; every index holds what it loaded.
  size_t size = 0, memory = 0;
  for (const auto& s : shards) {
    for (Key k : s->held_back) {
      Value v = 0;
      if (s->index.Lookup(k, &v)) {
        r->Wrong("held-back key %llu found", static_cast<unsigned long long>(k));
      }
    }
    r->attempted += s->held_back.size();
    if (s->index.Size() != s->loaded.size()) {
      r->CheckFailed("Size() %zu != %zu loaded keys", s->index.Size(), s->loaded.size());
    }
    size += s->index.Size();
    memory += s->index.MemoryUsage();
  }
  const double bytes_per_key = static_cast<double>(memory) / static_cast<double>(size);
  if (!(bytes_per_key >= 16.0)) r->CheckFailed("bytes_per_key %.3f < 16", bytes_per_key);

  r->Add("setup_s", setup_s, "s");
  r->Add("throughput_mops", CentralMean(mops), "Mops/s");
  r->Add("read_p50_ns", CentralMean(p50), "ns");
  r->Add("read_p99_ns", CentralMean(p99), "ns");
  r->Add("bytes_per_key", bytes_per_key, "B");
  if (!cfg.trace) return;

  r->Add("core.bulkload_s", setup_s, "s");
  AddLookupPathMetrics(tracer, path_names, r);
  r->Add("fp.hit_share", FpHitShare(fp_before, fp_after), "ratio");
  std::vector<const alt::AltIndex*> indexes;
  for (const auto& s : shards) indexes.push_back(&s->index);
  AddStructure(indexes, r);
  Shard& probed = *shards[0];
  std::vector<Key> stream;
  for (uint16_t pos : probed.streams[0]) stream.push_back(probed.loaded[pos]);
  ProbeCore(probed.index, stream, probed.loaded, ProbeOptions{.scans = true}, tracer, r);
  ProbeInserts([&](Key k, Value v, alt::ServedBy* by) { return probed.index.Insert(k, v, by); },
               probed.held_back, tracer, r);
  const alt::AltIndex::Stats stats = probed.index.CollectStats();
  r->Add("core.retrain_started", static_cast<double>(stats.retrain_started), "count");
  r->Add("core.retrain_finished", static_cast<double>(stats.retrain_finished), "count");
}

}  // namespace perfbench
