// Benchmark program for the TensorSSA executor.
//
//   perfbench --workload <vision|sequence|serve_open>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable tables, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics (name -> value). With
// --trace 0 the metrics are the end-to-end ones, measured with tracing off;
// with --trace 1 they are the per-layer ones the workload measures, read
// from a traced run (perfbench/METRICS.md defines every metric). Exits 1
// when any output mismatched its reference, 2 on a usage or runtime error
// (printing no result).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "perfbench/src/common.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 120)
        usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace must be 0 or 1");
      o.trace = value[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return o;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// The result line: every metric the workload measured, by name, without
/// units. run.py checks the names against BENCHMARK.json and adds the units.
std::string resultJson(const Report& report) {
  std::string out = std::string("{\"correct\": ") +
                    (report.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric not finite: " + name);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": " +
           number(value);
    first = false;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point processStart = Clock::now();
  Options options = parseArgs(argc, argv);
  options.processStart = processStart;
  try {
    Report report;
    if (options.workload == "vision" || options.workload == "sequence")
      report = runOffline(options);
    else if (options.workload == "serve_open")
      report = runServeOpen(options);
    else
      usage(("unknown workload " + options.workload).c_str());
    const std::string line = resultJson(report);
    std::printf("error_rate %.6f (%lld failed of %lld attempted)\n",
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted),
                static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
