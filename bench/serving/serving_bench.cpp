// One serving benchmark for Waldo.
//
//   serving_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <path>]
//
// Workloads: download_fleet, upload_crowd, rebuild_churn (cluster, see
// cluster_workload.cpp) and frontend_open (frontend_workload.cpp). With
// --trace 0 the run reports end-to-end metrics measured with tracing off;
// with --trace 1 it reports per-layer metrics from spans, ledgers and the
// layer replay.
//
// BENCHMARK.json lists upload_crowd and rebuild_churn. The other two run
// by hand: on a shared 4-vCPU VM, frontend_open's open-loop p99 latencies
// are set by scheduling stalls of the generator thread and moved 30-50 %
// between runs, and download_fleet's ~17 us download p50 moved up to 24 %
// (some runs ~15 % faster throughout), both too close to or above the
// largest regression bound (25 %) the benchmark may set.
//
// The last line of standard output is the result as one JSON object; the
// line before it records the host.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "report.hpp"
#include "waldo/runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace serving {

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

void print_metrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

[[nodiscard]] bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace
}  // namespace serving

int main(int argc, char** argv) {
  using namespace serving;
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: serving_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  RunResult result;
  try {
    if (is_cluster_workload(o.workload)) {
      result = run_cluster_workload(o);
    } else if (o.workload == "frontend_open") {
      result = run_frontend_workload(o);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::printf(
      "{\"host\": {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g}}\n",
      waldo::runtime::hardware_threads(), SERVING_BUILD_TYPE, SERVING_COMPILER,
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.errors.empty() && result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_metrics(o.trace ? result.per_layer : result.end_to_end);
  std::printf("}}\n");
  return 0;
}
