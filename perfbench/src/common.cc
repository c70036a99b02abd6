#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ctime>

namespace perfbench {

std::vector<Key> FbLikeKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  auto draw = [&]() -> Key {
    for (;;) {
      const double gen = static_cast<double>(rng.Below(8));
      const double base = std::exp2(34.0 + 3.5 * gen);
      const double offset = std::exp(rng.Gaussian() * 1.8 + 2.0);
      const double k = base * (1.0 + offset * 0.01);
      if (k < 0x1p63) return static_cast<Key>(k);
    }
  };
  std::vector<Key> keys;
  keys.reserve(n + n / 8);
  for (;;) {
    while (keys.size() < n + n / 16 + 16) keys.push_back(draw());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (keys.size() >= n) break;
  }
  // Drop a seeded random surplus rather than the top of the range, so the
  // largest generation keeps its share.
  std::vector<uint8_t> drop(keys.size(), 0);
  for (size_t dropped = 0; dropped < keys.size() - n;) {
    const size_t i = rng.Below(keys.size());
    dropped += drop[i] == 0;
    drop[i] = 1;
  }
  size_t w = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!drop[i]) keys[w++] = keys[i];
  }
  keys.resize(w);
  return keys;
}

namespace {

double Helper1(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}

double Helper2(double x) {
  return std::abs(x) > 1e-8 ? std::expm1(x) / x
                            : 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x));
}

}  // namespace

Zipf::Zipf(uint64_t n, double s) : n_(n), s_(s) {
  h_x1_ = HIntegral(1.5) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double Zipf::HIntegral(double x) const {
  const double lx = std::log(x);
  return Helper2((1.0 - s_) * lx) * lx;
}

double Zipf::HIntegralInverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;
  return std::exp(Helper1(t) * x);
}

uint64_t Zipf::Next(Rng& rng) const {
  for (;;) {
    const double u = h_n_ + rng.Uniform() * (h_x1_ - h_n_);
    const double x = HIntegralInverse(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > static_cast<double>(n_)) kd = static_cast<double>(n_);
    if (kd - x <= threshold_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return static_cast<uint64_t>(kd);
    }
  }
}

std::vector<Key> ZipfKeyStream(const std::vector<Key>& keys, size_t len, uint64_t seed) {
  Rng rng(seed);
  const Zipf zipf(keys.size(), 0.99);
  uint64_t salt = 0;
  std::vector<Key> out(len);
  for (size_t i = 0; i < len; ++i) {
    if (i % kHotSetDraws == 0) salt = rng.Next();
    out[i] = keys[ScatterRank(zipf.Next(rng), keys.size(), salt)];
  }
  return out;
}

bool CheckScan(Key start, size_t count, const std::vector<std::pair<Key, Value>>& got,
               const std::vector<Key>& present) {
  if (got.size() > count) return false;
  auto next = std::lower_bound(present.begin(), present.end(), start);
  for (size_t i = 0; i < got.size(); ++i) {
    const Key k = got[i].first;
    if (k < start || (i > 0 && k <= got[i - 1].first) || got[i].second != ValueOf(k)) {
      return false;
    }
    if (next != present.end() && *next < k) return false;  // skipped a present key
    if (next != present.end() && *next == k) ++next;
  }
  return got.size() == count || next == present.end();
}

double Quantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t lo = static_cast<size_t>(std::max(0.0, q - 0.005) * n);
  const size_t hi = std::min(v.size() - 1, static_cast<size_t>(std::min(1.0, q + 0.005) * n));
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double CentralMean(std::vector<double> v) {
  if (v.size() < 4) return Median(std::move(v));
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

void LogSeries(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "perfbench: %s:", what);
  for (double v : values) std::fprintf(stderr, " %.4g", v);
  std::fputc('\n', stderr);
}

PassDriver::PassDriver(int threads, std::function<void(int, uint64_t)> body)
    : body_(std::move(body)), barrier_(threads + 1) {
  for (int t = 0; t < threads; ++t) {
    threads_.emplace_back([this, t] {
      for (;;) {
        barrier_.arrive_and_wait();
        if (stop_.load(std::memory_order_acquire)) return;
        body_(t, arg_.load(std::memory_order_acquire));
        barrier_.arrive_and_wait();
      }
    });
  }
}

PassDriver::~PassDriver() {
  stop_.store(true, std::memory_order_release);
  barrier_.arrive_and_wait();
  for (auto& t : threads_) t.join();
}

uint64_t PassDriver::RunPass(uint64_t arg) {
  arg_.store(arg, std::memory_order_release);
  const uint64_t start = NowNs();
  barrier_.arrive_and_wait();
  barrier_.arrive_and_wait();
  return NowNs() - start;
}

uint16_t Tracer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

std::vector<Span>* Tracer::Buffer(int tid) {
  if (!enabled_) return nullptr;
  while (buffers_.size() <= static_cast<size_t>(tid)) {
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 16);
  }
  return buffers_[static_cast<size_t>(tid)].get();
}

std::vector<double> Tracer::PerItemNs(uint16_t name) const {
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      if (s.name == name && s.items > 0) {
        out.push_back(static_cast<double>(s.dur_ns) / s.items);
      }
    }
  }
  return out;
}

size_t Tracer::Count(uint16_t name) const {
  size_t n = 0;
  for (const auto& b : buffers_) {
    for (const Span& s : *b) n += s.name == name;
  }
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path, size_t max_spans) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = ~uint64_t{0};
  for (const auto& b : buffers_) {
    for (const Span& s : *b) t0 = std::min(t0, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (size_t tid = 0; tid < buffers_.size(); ++tid) {
    const auto& b = *buffers_[tid];
    const size_t n = std::min(b.size(), max_spans);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = b[i];
      const std::string& name = names_[s.name];
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"items\":%u,"
                   "\"parent\":\"%s\"}}",
                   first ? "" : ",\n", name.c_str(), layer.c_str(), tid,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.items,
                   names_[s.parent].c_str());
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

std::atomic<int> g_logged_wrong{0};

void LogWrong(const char* fmt, va_list ap) {
  if (g_logged_wrong.fetch_add(1, std::memory_order_relaxed) >= 10) return;
  char line[256];
  std::vsnprintf(line, sizeof(line), fmt, ap);
  std::fprintf(stderr, "perfbench: wrong answer: %s\n", line);
}

}  // namespace

void Tally::Wrong(const char* fmt, ...) {
  ++wrong;
  va_list ap;
  va_start(ap, fmt);
  LogWrong(fmt, ap);
  va_end(ap);
}

void Result::Wrong(const char* fmt, ...) {
  correct = false;
  ++failed;
  va_list ap;
  va_start(ap, fmt);
  LogWrong(fmt, ap);
  va_end(ap);
}

void Result::CheckFailed(const char* fmt, ...) {
  correct = false;
  va_list ap;
  va_start(ap, fmt);
  std::fputs("perfbench: check failed: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

std::string Result::Json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

namespace {

CpuTimes FromRusage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return CpuTimes{static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
                  static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6};
}

}  // namespace

CpuTimes ProcessCpu() { return FromRusage(RUSAGE_SELF); }
CpuTimes ThreadCpu() { return FromRusage(RUSAGE_THREAD); }

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.locate_ns", "ns"},
      {"core.learned_slot_share", "ratio"},
      {"core.lookup_ns.learned_slot", "ns"},
      {"core.lookup_ns.art_fp_shallow", "ns"},
      {"core.lookup_ns.art_fp_mid", "ns"},
      {"core.batch_ns_per_key", "ns"},
      {"shard.batch_ns_per_key", "ns"},
      {"core.insert_ns.slot_insert", "ns"},
      {"core.insert_ns.conflict_insert", "ns"},
      {"core.insert_ns.expansion_path", "ns"},
      {"core.retrain_started", "count"},
      {"core.retrain_finished", "count"},
      {"core.scan_ns_per_key", "ns"},
      {"core.models", "count"},
      {"core.conflict_ratio", "ratio"},
      {"core.model.bytes_per_key", "B"},
      {"core.expansion.bytes_per_key", "B"},
      {"core.directory.bytes_per_key", "B"},
      {"fp.bytes_per_key", "B"},
      {"art.bytes_per_key", "B"},
      {"fp.hit_share", "ratio"},
      {"art.lookup_ns", "ns"},
      {"art.steps_per_lookup", "count"},
      {"epoch.pin_ns", "ns"},
      {"server.cpu_us_per_op", "us"},
      {"server.sys_share", "ratio"},
      {"server.batch_occupancy", "keys"},
      {"core.bulkload_s", "s"},
      {"shard.preload_s", "s"},
      {"server.start_s", "s"},
      {"client.cpu_us_per_op", "us"},
  };
  return kMetrics;
}

void CompletePerLayer(Result* r) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double v = 0;
    for (const Metric& m : r->metrics) {
      if (m.name == name) v = m.value;
    }
    ordered.push_back(Metric{name, v, unit});
  }
  r->metrics = std::move(ordered);
}

}  // namespace perfbench
