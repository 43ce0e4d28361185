// Named metrics registry: counters (monotonic totals), gauges (last-set
// values, snapshotted by the sampler), and distributions (RunningStats
// moments).
//
// Metric objects live as long as the registry; handles returned by the
// Get* accessors stay valid, so hot paths can cache them. Iteration order
// is the name's lexicographic order, which keeps every export
// deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/common/stats.hpp"

namespace uvs::obs {

class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Distribution {
 public:
  void Observe(double x) { stats_.Add(x); }

  const RunningStats& stats() const { return stats_; }

 private:
  RunningStats stats_;
};

class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  Distribution& GetDistribution(const std::string& name) { return distributions_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Distribution>& distributions() const { return distributions_; }

 private:
  // std::map for stable node addresses (cached handles) and sorted export.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Distribution> distributions_;
};

}  // namespace uvs::obs
