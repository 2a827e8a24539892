// perfbench — the standing benchmark of libspauth.
//
//   perfbench --workload net_read|methods|write_mix --seed N --seconds S
//             --trace 0|1 [--tiny] [--tamper] [--work-dir DIR]
//
// Runs one workload, checks every answer, and prints each metric as a
// "# metric <name> <value> <unit>" line, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// JSON metrics are the end-to-end set; with --trace 1 the workload runs an
// untraced and a traced window and the JSON metrics are the per-layer
// set (layers a workload does not exercise read 0). Exits 1 when any
// correctness gate failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "crypto/sha_multibuf.h"
#include "harness.h"
#include "util/failpoint.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "net_read|methods|write_mix --seed N --seconds S --trace 0|1 "
               "[--tiny] [--tamper] [--work-dir DIR]\n",
               why);
  return 2;
}

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintProvenance(const Options& opt) {
  const std::string flags = " " + CpuInfoField("flags") + " ";
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"tiny\": %s, \"nproc\": %u, \"cpu_model\": \"%s\", "
      "\"sha_ni\": %s, \"build_type\": \"%s\", \"spauth_failpoints\": %s, "
      "\"spauth_sha_multibuf\": %s, \"commit\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      Number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      opt.tiny ? "true" : "false", std::thread::hardware_concurrency(),
      JsonEscape(CpuInfoField("model name")).c_str(),
      flags.find(" sha_ni ") != std::string::npos ? "true" : "false",
      PERFBENCH_BUILD_TYPE,
      spauth::FailPointsCompiledIn() ? "true" : "false",
      spauth::ShaMultiBufEnabled() ? "true" : "false",
      JsonEscape(commit != nullptr ? commit : "unknown").c_str());
}

void PrintMetrics(const Metrics& m) {
  for (const Metrics::Entry& e : m.entries()) {
    std::printf("# metric %s %s %s\n", e.name.c_str(), Number(e.value).c_str(),
                e.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--tamper") {
      opt.tamper = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--work-dir") {
      const char* v = value();
      if (v == nullptr) {
        return Usage(("missing value for " + arg).c_str());
      }
      char* end = nullptr;
      if (arg == "--workload") {
        opt.workload = v;
      } else if (arg == "--work-dir") {
        opt.work_dir = v;
      } else if (arg == "--seed") {
        opt.seed = std::strtoull(v, &end, 10);
      } else if (arg == "--seconds") {
        opt.seconds = std::strtod(v, &end);
      } else {
        trace = static_cast<int>(std::strtol(v, &end, 10));
      }
      if (end != nullptr && *end != '\0') {
        return Usage(("bad value for " + arg).c_str());
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) {
    return Usage("--trace must be 0 or 1");
  }
  if (!(opt.seconds > 0) || opt.seconds > 600) {
    return Usage("--seconds must be in (0, 600]");
  }
  opt.trace = trace == 1;
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    return Usage(("cannot create work dir " + opt.work_dir).c_str());
  }

  RunResult result;
  if (opt.workload == "net_read") {
    RunNetRead(opt, &result);
  } else if (opt.workload == "methods") {
    RunMethods(opt, &result);
  } else if (opt.workload == "write_mix") {
    RunWriteMix(opt, &result);
  } else {
    return Usage("unknown workload");
  }
  if (result.attempted == 0) {
    result.Fail("no operation was attempted");
  }
  const double failed_frac =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 1.0;
  result.end_to_end.Set(
      "rss_mb", result.rss_mb > 0 ? result.rss_mb : PeakRssMb(), "MB");
  result.detail.Set("failed_frac", failed_frac, "ratio");

  PrintProvenance(opt);
  const Metrics* reported = &result.end_to_end;
  Metrics layer;
  if (opt.trace) {
    ZeroPerLayer(&layer);
    for (const Metrics::Entry& e : result.per_layer.entries()) {
      if (layer.Find(e.name) != nullptr) {
        layer.Set(e.name, e.value, e.unit);
      } else {
        result.detail.Set(e.name, e.value, e.unit);
      }
    }
    layer.Set("failed_frac", failed_frac, "ratio");
    reported = &layer;
    const std::string path = opt.work_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".tsv";
    if (Tracer::WriteTsv(path)) {
      std::printf("# spans written to %s\n", path.c_str());
    }
  }
  PrintMetrics(result.end_to_end);
  PrintMetrics(result.detail);
  if (opt.trace) {
    PrintMetrics(layer);
  }
  for (const std::string& e : result.errors) {
    std::printf("# error %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Entry& e : reported->entries()) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + e.name + "\": {\"value\": " + Number(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
