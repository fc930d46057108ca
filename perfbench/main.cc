// pfs_perfbench: runs one benchmark workload and prints one JSON object with
// the correctness verdict, attempted and failed operation counts and every
// metric the run measured (end-to-end and per-layer). perfbench/run.py
// builds this binary and selects the metrics of the requested mode.
//
//   pfs_perfbench --workload <sprite-writedelay|burst-nvram|pfs-online>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>] [--inject <fault>]
//
// --inject corrupts one of the benchmark's own models or totals so the
// self-tests can show that the matching correctness check fails:
//   flip-byte   (pfs-online)  flips one byte of the content model
//   ns-size     (Patsy)       gives one file a wrong size in the namespace model
//   byte-chain  (Patsy)       reports fewer device bytes than the cache cleaned
//   early-done  (Patsy)       moves one completed operation's due time past
//                             its completion
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string g_inject;

}  // namespace perfbench

namespace {

void JsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->append(" ");
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

int Usage() {
  std::fprintf(stderr,
               "usage: pfs_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--inject <fault>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  opts.start_host = HostNow();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (key == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (key == "--workdir") {
      opts.workdir = value;
    } else if (key == "--inject") {
      g_inject = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) {
    return Usage();
  }

  RunResult result;
  if (opts.workload == "sprite-writedelay" || opts.workload == "burst-nvram") {
    result = RunPatsyWorkload(opts);
  } else if (opts.workload == "pfs-online") {
    result = RunOnlineWorkload(opts);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return Usage();
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < result.errors.size() && i < 20; ++i) {
    if (i > 0) {
      out += ", ";
    }
    JsonString(&out, result.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) {
      out += ", ";
    }
    first = false;
    char value[64];
    // A failed run can leave a ratio without a base; JSON has no NaN.
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    JsonString(&out, name);
    out += ": {\"value\": ";
    out += value;
    out += ", \"unit\": ";
    JsonString(&out, m.unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return result.correct ? 0 : 1;
}
