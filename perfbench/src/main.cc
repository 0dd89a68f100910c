// perfbench: the repository benchmark's binary. run.py builds it and
// calls it once per run:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--trace-out FILE]
//
// It prints one JSON object on its last stdout line: whether every output
// check passed, operations attempted and failed, every metric it measured
// (end-to-end ones untraced, per-layer ones traced), and the build half of
// the fingerprint. Exit status: 0 when every check passed, 1 otherwise, 2 on
// bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

/// Reasons this binary's numbers are not release numbers (empty if none).
std::vector<std::string> BuildFlags() {
  std::vector<std::string> flags;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    flags.push_back("build type " + std::string(PERFBENCH_BUILD_TYPE));
  }
#ifndef __OPTIMIZE__
  flags.push_back("unoptimized");
#endif
#ifdef TDS_SANITIZE_BUILD
  flags.push_back("sanitizer");
#endif
#ifdef TDS_AUDIT
  flags.push_back("audit");
#endif
#ifdef TDS_FAILPOINTS
  flags.push_back("failpoints");
#endif
#ifdef TDS_SCHED_CHAOS
  flags.push_back("schedule chaos");
#endif
#ifdef TDS_MODELCHECK
  flags.push_back("model check");
#endif
  if (std::string(PERFBENCH_TDS_OPTIONS).find("TDS_COVERAGE=ON") !=
      std::string::npos) {
    flags.push_back("coverage");
  }
  return flags;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--scratch") {
      config.scratch_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || config.scratch_dir.empty() ||
      !(config.seconds > 0.0)) {
    return Usage();
  }
  std::filesystem::create_directories(config.scratch_dir);

  Result result;
  if (!RunWorkload(config, &result)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return Usage();
  }

  const bool correct = result.failed() == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += Quote(name) + ": {\"value\": " + Number(metric.value) +
            ", \"unit\": " + Quote(metric.unit) + "}";
  }
  json += "}, \"build\": {\"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  json += ", \"compiler\": " + Quote(PERFBENCH_COMPILER);
  json += ", \"tds_options\": " + Quote(PERFBENCH_TDS_OPTIONS);
  json += ", \"not_release\": [";
  first = true;
  for (const std::string& flag : BuildFlags()) {
    if (!first) json += ", ";
    first = false;
    json += Quote(flag);
  }
  json += "]}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
