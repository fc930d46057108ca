// Shared definitions of the end-to-end benchmark: the result every workload
// returns, host-clock helpers, and exact order statistics over raw samples.
#ifndef PFS_PERFBENCH_BENCH_H_
#define PFS_PERFBENCH_BENCH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // HostNow() at the start of main(): set-up time is measured from it.
  double start_host = 0;
  // Where pfs-online keeps its disk image.
  std::string workdir = ".";
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  // end-to-end and per-layer alike
  std::vector<std::string> errors;        // failed correctness checks

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Host clocks.
double HostNow();     // monotonic seconds
double PeakRssMiB();  // peak resident set of this process

// Exact order statistics over samples, which they reorder in place rather
// than copy, so that no copy adds to peak_rss_mib.
template <typename T>
double Quantile(std::vector<T>& v, double q) {  // nearest rank
  if (v.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(std::clamp<size_t>(rank, 1, v.size()) - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

template <typename T>
double Median(std::vector<T>& v) {
  if (v.empty()) {
    return 0;
  }
  const size_t n = v.size();
  auto upper = v.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(v.begin(), upper, v.end());
  if (n % 2 == 1) {
    return *upper;
  }
  // The lower middle sample is the largest of those before the upper one.
  return (static_cast<double>(*std::max_element(v.begin(), upper)) + *upper) / 2;
}

double Mean(const std::vector<double>& v);

// num / den, or 0 where there is no base (nothing happened).
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// The self-test fault to inject into the benchmark's own checks ("" = none);
// see main.cc.
extern std::string g_inject;

RunResult RunPatsyWorkload(const Options& opts);
RunResult RunOnlineWorkload(const Options& opts);

}  // namespace perfbench

#endif  // PFS_PERFBENCH_BENCH_H_
