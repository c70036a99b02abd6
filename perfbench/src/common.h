// Shared pieces of the ALT-Index benchmark: seeded input generation, the
// value oracle, latency summaries, lock-step measurement passes, the span
// recorder used by traced runs, and the result the benchmark prints.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/key_codec.h"

namespace perfbench {

using alt::Key;
using alt::Value;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The value the benchmark stores under `key`. Every value the program hands
/// back is compared with this, never with another answer of the program.
inline Value ValueOf(Key key) { return Mix64(key ^ 0x2545f4914f6cdd1dULL) | 1; }

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double Gaussian() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
};

/// `n` sorted, distinct keys shaped like Facebook user ids: eight id
/// generations whose magnitudes grow about 11x each, with lognormal offsets
/// inside a generation. The gaps are heavy-tailed, so many keys lose their
/// predicted slot and live in ART-OPT.
std::vector<Key> FbLikeKeys(size_t n, uint64_t seed);

/// Zipf(s) ranks in [1, n] by rejection-inversion (Hoermann and Derflinger,
/// 1996): O(1) set-up and O(1) expected time per draw.
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Next(Rng& rng) const;

 private:
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
};

/// Spreads Zipf ranks over positions [0, n) so hot items are scattered across
/// the key space instead of clustered at its low end.
inline size_t ScatterRank(uint64_t rank, size_t n, uint64_t salt) {
  return static_cast<size_t>(((rank - 1) * 2654435761ULL + salt) % n);
}

/// Draws per hot set in ZipfKeyStream.
constexpr size_t kHotSetDraws = size_t{1} << 14;

/// `len` keys drawn from `keys` by Zipf(0.99) over scattered ranks. The rank
/// to key mapping changes every kHotSetDraws draws: which keys are hottest
/// decides much of a Zipf run's speed (the top 100 ranks take a third of the
/// draws), so a run averages over many hot sets instead of depending on the
/// few keys one seed made hot.
std::vector<Key> ZipfKeyStream(const std::vector<Key>& keys, size_t len, uint64_t seed);

/// Checks one Scan(start, count) answer against `present`, the sorted keys the
/// index must hold: at most `count` pairs, ascending, none below `start`,
/// values from ValueOf, and no key of `present` between `start` and the last
/// key returned (or past it, when the answer is short) left out.
bool CheckScan(Key start, size_t count, const std::vector<std::pair<Key, Value>>& got,
               const std::vector<Key>& present);

/// Quantile `q` of `v` as the mean of the order statistics within half a
/// percentile of it, which is steadier than one sample (sorts `v`; 0 if empty).
double Quantile(std::vector<uint32_t>& v, double q);
double Median(std::vector<double> v);

/// Mean of the middle half of `v` (the values between its quartiles); the
/// median when there are fewer than four. How a run folds its passes or
/// rounds into one figure: the host's memory speed drifts over seconds, which
/// a mean smooths better than a median, and the outer quarters drop stalls.
double CentralMean(std::vector<double> v);

/// Prints `values` (one per pass or round) on one stderr line, so the spread
/// inside a run can be told apart from the spread between runs.
void LogSeries(const char* what, const std::vector<double>& values);

/// Operation count and sampled read latencies of one measurement pass.
struct PassStats {
  uint64_t ops = 0;
  std::vector<uint32_t> read_ns;
};

/// Runs `body(tid, arg)` on `threads` threads in lock-step passes: all threads
/// start a pass together and the pass ends when the last one returns.
class PassDriver {
 public:
  PassDriver(int threads, std::function<void(int, uint64_t)> body);
  ~PassDriver();
  PassDriver(const PassDriver&) = delete;
  PassDriver& operator=(const PassDriver&) = delete;

  /// Runs one pass, handing `arg` to every thread; returns its wall time.
  uint64_t RunPass(uint64_t arg);

 private:
  std::function<void(int, uint64_t)> body_;
  std::barrier<> barrier_;
  std::atomic<uint64_t> arg_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One timed call (or batch of calls) into a layer, kept in memory and
/// written out when the run ends.
struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t items = 1;     ///< calls or keys the span covers
  uint16_t name = 0;      ///< index into Tracer::names
  uint16_t parent = 0;    ///< name of the enclosing phase (0 = none)
};

/// In-memory span recorder for traced runs. Names are registered before any
/// thread records; each thread appends to its own buffer.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) { names_.push_back("-"); }

  uint16_t Name(const std::string& name);
  /// Thread `tid`'s span buffer; nullptr when not tracing, so callers record
  /// only if it is non-null.
  std::vector<Span>* Buffer(int tid);

  /// Spans recorded under `name` (all threads), as ns per item.
  std::vector<double> PerItemNs(uint16_t name) const;
  size_t Count(uint16_t name) const;

  /// Median ns per item over every span named `name`; 0 when there is none.
  double MedianNs(uint16_t name) const { return Median(PerItemNs(name)); }

  /// Chrome trace-event JSON (loadable in Perfetto), at most `max_spans`
  /// spans per thread.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Records `span` into `buf` when tracing.
inline void Record(std::vector<Span>* buf, uint16_t name, uint16_t parent,
                   uint64_t start, uint64_t end, uint32_t items = 1) {
  if (buf != nullptr) buf->push_back(Span{start, end - start, items, name, parent});
}

/// Per-thread operation counts, merged into Result after the threads join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t wrong = 0;

  /// Like Result::Wrong, for a workload thread.
  void Wrong(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports: the correctness verdict, operation counts and the
/// metrics of the selected kind.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// An operation whose answer disagrees with the benchmark's own data: it
  /// counts as failed and makes the run incorrect. The first few are logged.
  void Wrong(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A whole-run check (size, traversal, bound) that did not hold.
  void CheckFailed(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  void Merge(const Tally& t) {
    attempted += t.attempted;
    failed += t.wrong;
    if (t.wrong != 0) correct = false;
  }

  std::string Json() const;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};


/// Process CPU seconds (user, system) and the calling thread's.
struct CpuTimes {
  double user = 0;
  double sys = 0;
};
CpuTimes ProcessCpu();
CpuTimes ThreadCpu();

/// Names of every per-layer metric, in BENCHMARK.json order. A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Keeps only the per-layer metrics of `r`, in order, with 0 for any the
/// workload did not measure.
void CompletePerLayer(Result* r);

}  // namespace perfbench
