// perfbench — the repository benchmark.
//
//   perfbench --workload <exact_sweep|ssr_budget|whatif_serve> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--perturb]
//             [--out <dir>]
//
// Prints the result document (host fingerprint, every metric, the
// per-workload named metrics, per-percentile sample counts, per-layer self
// time, check failures), then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The document also
// goes to <out>/<workload>-<seed>-trace<k>.json, and a traced run dumps its
// spans to <out>/<workload>-<seed>-trace1.spans.jsonl. Exits 0 only when
// every output check passed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <exact_sweep|ssr_budget|"
               "whatif_serve> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--perturb] [--out <dir>]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--perturb") {
      args->perturb = true;
    } else if (flag == "--workload" && value(&v)) {
      args->workload = v;
    } else if (flag == "--seed" && value(&v)) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds" && value(&v)) {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace" && value(&v)) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      args->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--out" && value(&v)) {
      args->out_dir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

enum class Select { kAll, kEndToEnd, kPerLayer };

std::string MetricsJson(const std::map<std::string, Result::Value>& metrics,
                        Select select) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (select != Select::kAll &&
        IsEndToEnd(name) != (select == Select::kEndToEnd)) {
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Number(value.value) +
           ", \"unit\": " + Quote(value.unit) + "}";
  }
  return out + "}";
}

std::string ResultDocument(const Args& args, const Result& result,
                           const Tracer& tracer, double calibration) {
  std::string doc = "{\n";
  doc += "  \"workload\": " + Quote(args.workload) + ",\n";
  doc += "  \"seed\": " + std::to_string(args.seed) + ",\n";
  doc += "  \"seconds\": " + Number(args.seconds) + ",\n";
  doc += "  \"trace\": " + std::string(args.trace ? "1" : "0") + ",\n";
  doc += "  \"tiny\": " + std::string(args.tiny ? "true" : "false") + ",\n";
  doc += "  \"host\": {\"nproc\": " + std::to_string(Nproc()) +
         ", \"calibration_mops\": " + Number(calibration) +
         ", \"build_type\": " + Quote(BuildType()) + "},\n";
  doc += "  \"correct\": " + std::string(result.correct() ? "true" : "false") +
         ",\n";
  doc += "  \"attempted\": " + std::to_string(result.attempted) + ",\n";
  doc += "  \"failed\": " + std::to_string(result.failed) + ",\n";
  doc += "  \"error_rate\": " +
         Number(result.attempted > 0
                    ? static_cast<double>(result.failed) / result.attempted
                    : 0.0) +
         ",\n";
  doc += "  \"digest\": " + Quote(result.digest) + ",\n";
  doc += "  \"metrics\": " + MetricsJson(result.metrics, Select::kAll) +
         ",\n";
  doc += "  \"named_metrics\": " + MetricsJson(result.extras, Select::kAll) +
         ",\n";
  doc += "  \"percentile_samples\": {";
  bool first = true;
  for (const auto& [name, count] : result.samples) {
    doc += std::string(first ? "" : ", ") + Quote(name) + ": {\"n\": " +
           std::to_string(count.first) +
           ", \"beyond\": " + std::to_string(count.second) + "}";
    first = false;
  }
  doc += "},\n  \"self_time_ms\": {";
  first = true;
  for (const auto& [layer, ms] : tracer.SelfTimeByLayerMs()) {
    doc += std::string(first ? "" : ", ") + Quote(layer) + ": " + Number(ms);
    first = false;
  }
  doc += "},\n  \"mismatches\": [";
  for (size_t i = 0; i < result.mismatches.size(); ++i) {
    doc += std::string(i ? ", " : "") + Quote(result.mismatches[i]);
  }
  return doc + "]\n}\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 2;
  }
  const double calibration = CalibrationScore();

  Tracer tracer(args.trace);
  Result result;
  if (args.workload == "exact_sweep") {
    RunExactSweep(args, &tracer, &result);
  } else if (args.workload == "ssr_budget") {
    RunSsrBudget(args, &tracer, &result);
  } else if (args.workload == "whatif_serve") {
    RunWhatifServe(args, BrindaleSetup(args.tiny), &tracer, &result);
  } else {
    Usage();
    return 2;
  }
  result.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  if (result.attempted == 0) result.Mismatch("no operation was attempted");

  const std::string stem = args.out_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::string doc = ResultDocument(args, result, tracer, calibration);
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fclose(f);
  }
  if (args.trace) tracer.Dump(stem + ".spans.jsonl");

  std::printf("%s", doc.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              result.correct() ? "true" : "false", result.attempted,
              result.failed,
              MetricsJson(result.metrics, args.trace ? Select::kPerLayer
                                                     : Select::kEndToEnd)
                  .c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
