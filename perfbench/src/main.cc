// alt_perfbench: one run of one workload of the ALT-Index benchmark.
//
//   alt_perfbench --workload lookup|mixed|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Traced runs also write their spans to .bench_out/ as Chrome trace JSON.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

constexpr size_t kMaxSpansWritten = 100'000;  // per thread

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "alt_perfbench: %s\n"
               "usage: alt_perfbench --workload lookup|mixed|serve --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = argv[i + 1];
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(argv[i + 1], &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(argv[i + 1], &end);
      if (*end != '\0' || !(cfg.seconds > 0 && cfg.seconds <= 600)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(argv[i + 1], "0") != 0 && std::strcmp(argv[i + 1], "1") != 0) {
        Usage("bad --trace");
      }
      cfg.trace = argv[i + 1][0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Tracer tracer(cfg.trace);
  perfbench::Result result;
  if (cfg.workload == "lookup") {
    perfbench::RunLookup(cfg, tracer, &result);
  } else if (cfg.workload == "mixed") {
    perfbench::RunMixed(cfg, tracer, &result);
  } else if (cfg.workload == "serve") {
    perfbench::RunServe(cfg, tracer, &result);
  } else {
    Usage("unknown --workload");
  }
  if (result.attempted == 0) result.CheckFailed("no operation was attempted");

  const std::string tag = cfg.workload + "-" + std::to_string(cfg.seed);
  mkdir(".bench_out", 0755);
  if (cfg.trace) {
    // The traced run's own end-to-end figures go to stderr: against an
    // untraced run they give the tracing overhead.
    std::fprintf(stderr, "perfbench: traced run end-to-end:");
    for (const perfbench::Metric& m : result.metrics) {
      if (m.name.find('.') == std::string::npos) {
        std::fprintf(stderr, " %s=%.6g", m.name.c_str(), m.value);
      }
    }
    std::fputc('\n', stderr);
    perfbench::CompletePerLayer(&result);
    const std::string path = ".bench_out/trace-" + tag + ".json";
    if (!tracer.WriteChromeTrace(path, kMaxSpansWritten)) {
      std::fprintf(stderr, "alt_perfbench: could not write %s\n", path.c_str());
    }
  }
  const std::string json = result.Json();
  const std::string path =
      ".bench_out/result-" + tag + (cfg.trace ? "-trace" : "") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
