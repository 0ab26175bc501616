// rosebench: runs one workload of the Rose benchmark and prints its result.
//
//   rosebench --workload <catalogue-p1|catalogue-p4|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Detail lines come before it. The exit code is 1 when a
// correctness gate fails and 2 on bad arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "rosebench/bench.h"

namespace rosebench {
namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},      {"slow_ms", "ms"},
      {"fast_ms", "ms"},        {"goodput_per_s", "1/s"},   {"sim_runs_per_s", "1/s"},
  };
  return kMetrics;
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::fprintf(stderr,
                   "usage: rosebench --workload NAME --seed N --seconds S --trace 0|1 "
                   "[--out-dir DIR]\n");
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "rosebench: malformed number in the arguments\n");
    return 2;
  }
  Report report;
  if (args.workload == "catalogue-p1") {
    report = RunCatalogue(args, 1);
  } else if (args.workload == "catalogue-p4") {
    report = RunCatalogue(args, WideParallelism());
  } else if (args.workload == "serve-mixed") {
    report = RunServe(args);
  } else {
    std::fprintf(stderr, "rosebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Every end-to-end metric must have been measured; a traced run prints
  // the layers a workload does not use as 0.
  for (const auto& [name, unit] : EndToEndMetrics()) {
    if (!args.trace && report.correct && report.metrics.count(name) == 0) {
      report.Fail("metric " + name + " was not measured");
    }
  }
  for (const std::string& line : report.details) {
    std::printf("# %s\n", line.c_str());
  }
  std::string json = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : args.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = report.metrics.find(name);
    const double value = it == report.metrics.end() ? 0 : it->second.first;
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + Number(value) +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace rosebench

int main(int argc, char** argv) { return rosebench::Main(argc, argv); }
