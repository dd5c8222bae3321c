#include "suite.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "warp/common/random.h"

namespace warp {
namespace bench {
namespace suite {

double RunConfig::Param(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    std::fprintf(stderr, "error: workload %s needs %s in --params\n",
                 workload.c_str(), key.c_str());
    std::exit(2);
  }
  return it->second;
}

size_t RunConfig::Count(const std::string& key) const {
  const double value = Param(key);
  if (value < 1.0) {
    std::fprintf(stderr, "error: %s in --params must be >= 1\n",
                 key.c_str());
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::Attempt(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

void AddSetup(const std::vector<double>& setup_s, Report* report) {
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  std::string note = "setup:";
  for (const double s : setup_s) {
    char cell[32];
    std::snprintf(cell, sizeof(cell), " %.4f", s);
    note += cell;
  }
  report->Note(note + " s");
}

uint64_t ItemTimes::calls() const {
  uint64_t total = 0;
  for (const std::vector<double>& ns : ns_) total += ns.size();
  return total;
}

std::vector<double> ItemTimes::Costs() const {
  std::vector<double> costs;
  for (const std::vector<double>& ns : ns_) {
    if (!ns.empty()) costs.push_back(Quantile(ns, quantile_));
  }
  return costs;
}

double ItemTimes::Rate() const {
  const std::vector<double> costs = Costs();
  double total_ns = 0.0;
  for (const double ns : costs) total_ns += ns;
  return Ratio(static_cast<double>(costs.size()), total_ns * 1e-9);
}

double ItemTimes::QuantileMs(double q) const {
  return Quantile(Costs(), q) * 1e-6;
}

double ItemTimes::TailMs() const {
  const std::vector<double> costs = Costs();
  const double n = static_cast<double>(costs.size());
  const double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  return Quantile(costs, q) * 1e-6;
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + tag);
  mix.Next();
  return mix.Next();
}

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double PeakRssMb(long pid) {
  const std::string path = pid == 0
                               ? std::string("/proc/self/status")
                               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

double CounterDelta(const obs::MetricsSnapshot& after,
                    const obs::MetricsSnapshot& before, obs::Counter counter) {
  return static_cast<double>(after.Get(counter) - before.Get(counter));
}

}  // namespace suite
}  // namespace bench
}  // namespace warp
