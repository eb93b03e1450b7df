/// \file main.cc
/// perfbench benchmark binary:
///
///   perfbench --workload <sync-replicated|analyst-mix|oblivious-scan>
///             --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
///
/// Prints a metric table, then one JSON line with every end-to-end metric
/// (and, with --trace 1, every per-layer metric). perfbench/run.py builds
/// this binary and reduces that line to the metrics BENCHMARK.json
/// declares. Exits 1 on any wrong answer or failed set-up.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload "
               "<sync-replicated|analyst-mix|oblivious-scan> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--data-dir") {
        o.data_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJsonGroup(const char* key, const std::vector<Metric>& metrics) {
  std::printf(",\"%s\":{", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  if (ec) Usage("cannot create " + options.data_dir + ": " + ec.message());

  RunResult result;
  try {
    if (options.workload == "sync-replicated") {
      result = perfbench::RunSyncReplicated(options);
    } else if (options.workload == "analyst-mix") {
      result = perfbench::RunAnalystMix(options);
    } else if (options.workload == "oblivious-scan") {
      result = perfbench::RunObliviousScan(options);
    } else {
      Usage("unknown workload " + options.workload);
    }
  } catch (const perfbench::Fatal& fatal) {
    std::fflush(stdout);
    std::cerr << "perfbench " << options.workload << " seed " << options.seed
              << ": " << fatal.what << std::endl;
    std::printf(
        "{\"correct\":false,\"attempted\":1,\"failed\":1,"
        "\"end_to_end\":{},\"per_layer\":{}}\n");
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  PrintMetrics("end-to-end:", result.end_to_end);
  if (options.trace) PrintMetrics("per-layer (traced phase):", result.per_layer);
  std::printf("{\"correct\":true,\"attempted\":%lld,\"failed\":%lld",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  PrintJsonGroup("end_to_end", result.end_to_end);
  PrintJsonGroup("per_layer", result.per_layer);
  std::printf("}\n");
  return 0;
}
