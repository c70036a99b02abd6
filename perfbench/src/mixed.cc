// Workload `mixed`: bulk-load a fifth of an fb-like key set, then two threads
// each run a fixed program interleaving inserts of fresh keys drawn across the
// whole range, Zipf reads of loaded and of their own already-inserted keys,
// and 100-key scans. The insert volume is four times the bulk-loaded size, so
// §III-F expansions start and finish many times in every round. A run repeats
// whole rounds (fresh index, fresh inputs from the round's seed) until it has
// measured its seconds. A round's index stays within the cores' L2, so rounds
// measure the index's work rather than the host's DRAM speed, and averaging
// over hundreds of key sets keeps a run from depending on one set's layout.
#include <algorithm>
#include <memory>
#include <thread>

#include "common/epoch.h"
#include "core/alt_index.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kTotalKeys = 32'768;
constexpr uint64_t kSetupRounds = 64;  // rounds whose indexes the set-up builds
constexpr uint64_t kLoadEvery = 5;  // 1 key in 5 is bulk-loaded
constexpr int kThreads = 2;
constexpr uint64_t kBlock = 25;     // ops per block: 12 inserts, 12 reads, 1 scan
constexpr uint32_t kScanLen = 100;
constexpr uint64_t kRecentWindow = 1 << 16;  // recency Zipf over the last inserts
constexpr uint64_t kSampleEvery = 16;
constexpr uint64_t kSpanEvery = 256;

// One thread's fixed operation program.
struct Program {
  std::vector<Key> inserts;       // fresh keys, in insert order
  std::vector<Key> loaded_reads;  // Zipf over the loaded keys
  std::vector<uint32_t> recent;   // Zipf ranks back from the latest insert
  std::vector<Key> scan_starts;   // uniform loaded keys
};

// One round's inputs, all drawn from the round's seed.
struct RoundInputs {
  std::vector<Key> all;     // sorted: loaded and fresh
  std::vector<Key> loaded;  // sorted
  std::vector<Value> values;
  Program programs[kThreads];
};

// One round's inputs and its index.
struct Round {
  RoundInputs in;
  std::unique_ptr<alt::AltIndex> index;
};

RoundInputs MakeRound(uint64_t seed) {
  RoundInputs in;
  in.all = FbLikeKeys(kTotalKeys, seed);
  std::vector<Key> fresh;
  for (Key k : in.all) (Mix64(k ^ seed) % kLoadEvery == 0 ? in.loaded : fresh).push_back(k);
  in.values.resize(in.loaded.size());
  for (size_t i = 0; i < in.loaded.size(); ++i) in.values[i] = ValueOf(in.loaded[i]);
  Rng rng(seed ^ 0x6d69786564ULL);
  for (size_t i = fresh.size(); i > 1; --i) std::swap(fresh[i - 1], fresh[rng.Below(i)]);
  const Zipf recent_zipf(kRecentWindow, 0.99);
  for (int t = 0; t < kThreads; ++t) {
    Program& p = in.programs[t];
    for (size_t i = t; i < fresh.size(); i += kThreads) p.inserts.push_back(fresh[i]);
    const size_t reads = p.inserts.size() / 2 + 1;  // of each kind
    p.loaded_reads = ZipfKeyStream(in.loaded, reads, rng.Next());
    p.recent.resize(reads);
    for (uint32_t& rank : p.recent) rank = static_cast<uint32_t>(recent_zipf.Next(rng));
    p.scan_starts.resize(p.inserts.size() / 12 + 1);
    for (Key& k : p.scan_starts) k = in.loaded[rng.Below(in.loaded.size())];
  }
  return in;
}

struct ThreadState {
  const Program* program = nullptr;
  Tally tally;
  uint64_t ops = 0;
  uint64_t end_ns = 0;
  std::vector<uint32_t> read_ns;
  std::vector<Span>* spans = nullptr;
};

struct SpanNames {
  std::vector<uint16_t> lookup;
  std::vector<uint16_t> insert;
  uint16_t scan;
  uint16_t round;
};

void RunProgram(alt::AltIndex& index, const std::vector<Key>& loaded, const SpanNames& names,
                ThreadState& s) {
  const Program& p = *s.program;
  std::vector<std::pair<Key, Value>> got;
  size_t ins = 0, rd = 0, sc = 0;
  uint64_t i = 0;
  for (; ins < p.inserts.size(); ++i) {
    const uint64_t slot = i % kBlock;
    const bool sampled = i % kSampleEvery == 0;
    const bool span = s.spans != nullptr && i % kSpanEvery == 0;
    if (slot == kBlock - 1) {
      const Key start = p.scan_starts[sc++];
      const uint64_t t0 = span ? NowNs() : 0;
      const size_t n = index.Scan(start, kScanLen, &got);
      if (span) Record(s.spans, names.scan, names.round, t0, NowNs(), static_cast<uint32_t>(n));
      if (!CheckScan(start, kScanLen, got, loaded)) {
        s.tally.Wrong("Scan(%llu) returned a wrong range", static_cast<unsigned long long>(start));
      }
    } else if (slot % 2 == 1) {
      const Key key = rd % 2 == 1 ? p.inserts[ins - 1 - (p.recent[rd / 2] - 1) % ins]
                                  : p.loaded_reads[rd / 2];
      ++rd;
      Value v = 0;
      bool found;
      if (span) {
        alt::ServedBy by = alt::ServedBy::kUnattributed;
        const uint64_t t0 = NowNs();
        found = index.Lookup(key, &v, &by);
        const uint64_t t1 = NowNs();
        Record(s.spans, names.lookup[static_cast<size_t>(by)], names.round, t0, t1);
        s.read_ns.push_back(static_cast<uint32_t>(t1 - t0));
      } else if (sampled) {
        const uint64_t t0 = NowNs();
        found = index.Lookup(key, &v);
        s.read_ns.push_back(static_cast<uint32_t>(NowNs() - t0));
      } else {
        found = index.Lookup(key, &v);
      }
      if (!found || v != ValueOf(key)) {
        s.tally.Wrong("Lookup(%llu) found=%d", static_cast<unsigned long long>(key), found);
      }
    } else {
      const Key key = p.inserts[ins++];
      bool ok;
      if (span) {
        alt::ServedBy by = alt::ServedBy::kUnattributed;
        const uint64_t t0 = NowNs();
        ok = index.Insert(key, ValueOf(key), &by);
        Record(s.spans, names.insert[static_cast<size_t>(by)], names.round, t0, NowNs());
      } else {
        ok = index.Insert(key, ValueOf(key));
      }
      if (!ok) s.tally.Wrong("Insert(%llu) of a fresh key failed", static_cast<unsigned long long>(key));
    }
  }
  s.ops += i;
  s.tally.attempted += i;
  s.end_ns = NowNs();
}

// The full ordered traversal must equal `all` with the benchmark's values.
bool TraversalMatches(const alt::AltIndex& index, const std::vector<Key>& all) {
  alt::AltIndex::Iterator it(index);
  size_t i = 0;
  for (it.Seek(0); it.Valid(); it.Next(), ++i) {
    if (i >= all.size() || it.key() != all[i] || it.value() != ValueOf(all[i])) return false;
  }
  return i == all.size();
}

}  // namespace

void RunMixed(const RunConfig& cfg, Tracer& tracer, Result* r) {
  std::vector<ThreadState> threads(kThreads);
  for (int t = 0; t < kThreads; ++t) threads[t].spans = tracer.Buffer(t);
  const SpanNames names{PathSpanNames(tracer, "core.lookup."),
                        PathSpanNames(tracer, "core.insert."), tracer.Name("core.scan"),
                        tracer.Name("mixed.round")};

  // Set-up: the inputs and bulk-loaded indexes of the first kSetupRounds
  // rounds, built before anything is measured. Later rounds build theirs
  // between rounds, untimed.
  auto prepare = [&](uint64_t round) {
    auto p = std::make_unique<Round>();
    p->in = MakeRound(Mix64(cfg.seed) + round);
    p->index = std::make_unique<alt::AltIndex>();
    return p;
  };
  auto load = [&](Round& p) {
    const alt::Status st =
        p.index->BulkLoad(p.in.loaded.data(), p.in.values.data(), p.in.loaded.size());
    if (!st.ok()) r->CheckFailed("BulkLoad: %s", st.ToString().c_str());
    return st.ok();
  };
  std::vector<std::unique_ptr<Round>> prebuilt;
  for (uint64_t i = 0; i < kSetupRounds; ++i) prebuilt.push_back(prepare(i));
  const uint64_t load_start = NowNs();
  for (auto& p : prebuilt) {
    if (!load(*p)) return;
  }
  const double setup_s = static_cast<double>(NowNs() - load_start) / 1e9;

  std::vector<double> mops, p50, p99, bytes_per_key, retrain_started, retrain_finished;
  std::unique_ptr<Round> cur;
  const FpCounters fp_before = FpCounters::Now();
  for (uint64_t round = 0, measured = 0; round == 0 || measured < SecondsToNs(cfg.seconds);
       ++round) {
    cur.reset();
    alt::EpochManager::Global().DrainAll();
    if (round < kSetupRounds) {
      cur = std::move(prebuilt[round]);
    } else {
      cur = prepare(round);
      if (!load(*cur)) return;
    }
    const RoundInputs& in = cur->in;
    alt::AltIndex* index = cur->index.get();

    std::vector<std::thread> workers;
    const uint64_t start = NowNs();
    for (int t = 0; t < kThreads; ++t) {
      ThreadState& s = threads[t];
      s.program = &in.programs[t];
      s.ops = 0;
      s.read_ns.clear();
      workers.emplace_back([&, sp = &s] { RunProgram(*index, in.loaded, names, *sp); });
    }
    for (std::thread& w : workers) w.join();
    uint64_t ops = 0, end = start;
    std::vector<uint32_t> read_ns;
    for (const ThreadState& s : threads) {
      ops += s.ops;
      end = std::max(end, s.end_ns);
      read_ns.insert(read_ns.end(), s.read_ns.begin(), s.read_ns.end());
    }
    measured += end - start;
    mops.push_back(static_cast<double>(ops) * 1e3 / static_cast<double>(end - start));
    p50.push_back(Quantile(read_ns, 0.50));
    p99.push_back(Quantile(read_ns, 0.99));

    if (index->Size() != in.all.size()) {
      r->CheckFailed("Size() %zu != %zu loaded + inserted", index->Size(), in.all.size());
    }
    bytes_per_key.push_back(static_cast<double>(index->MemoryUsage()) /
                            static_cast<double>(index->Size()));
    const alt::AltIndex::Stats stats = index->CollectStats();
    retrain_started.push_back(static_cast<double>(stats.retrain_started));
    retrain_finished.push_back(static_cast<double>(stats.retrain_finished));
  }
  const FpCounters fp_after = FpCounters::Now();
  for (const ThreadState& s : threads) r->Merge(s.tally);
  LogSeries("mixed rounds, Mops/s", mops);
  LogSeries("mixed rounds, expansions finished", retrain_finished);
  if (!TraversalMatches(*cur->index, cur->in.all)) {
    r->CheckFailed("ordered traversal differs from the loaded + inserted keys");
  }
  r->attempted += cur->in.all.size();
  if (!(CentralMean(bytes_per_key) >= 16.0)) {
    r->CheckFailed("bytes_per_key %.3f < 16", CentralMean(bytes_per_key));
  }

  r->Add("setup_s", setup_s, "s");
  r->Add("throughput_mops", CentralMean(mops), "Mops/s");
  r->Add("read_p50_ns", CentralMean(p50), "ns");
  r->Add("read_p99_ns", CentralMean(p99), "ns");
  r->Add("bytes_per_key", CentralMean(bytes_per_key), "B");
  if (!cfg.trace) return;

  r->Add("core.bulkload_s", setup_s, "s");
  AddLookupPathMetrics(tracer, names.lookup, r);
  AddPathMetrics(tracer, names.insert, "core.insert_ns.", kInsertPaths, r);
  r->Add("core.scan_ns_per_key", tracer.MedianNs(names.scan), "ns");
  r->Add("core.retrain_started", Median(retrain_started), "count");
  r->Add("core.retrain_finished", Median(retrain_finished), "count");
  r->Add("fp.hit_share", FpHitShare(fp_before, fp_after), "ratio");
  ProbeCore(*cur->index, cur->in.programs[0].loaded_reads, cur->in.all, ProbeOptions{}, tracer,
            r);
  AddStructure({cur->index.get()}, r);
}

}  // namespace perfbench
