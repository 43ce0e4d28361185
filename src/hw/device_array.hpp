// An array of independent storage devices, each its own bandwidth pool:
// the shared burst buffer (DataWarp-like server nodes reachable from every
// compute node) and the parallel file system's object storage targets
// (OSTs). File-level semantics (striping, locking) live in storage::Pfs and
// the storage systems; this is just the devices.
#pragma once

#include <memory>
#include <vector>

#include "src/hw/params.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"

namespace uvs::hw {

class DeviceArray {
 public:
  /// BB nodes: pools `bb<i>`, spans `bb.access`/`bb.degraded` on BB-node
  /// tracks, counters `hw.bb.*`.
  DeviceArray(sim::Engine& engine, const BurstBufferParams& params);
  /// OSTs: pools `ost<i>`, spans `ost.access`/`ost.degraded` on OST
  /// tracks, counters `hw.ost.*`.
  DeviceArray(sim::Engine& engine, const PfsParams& params);
  DeviceArray(const DeviceArray&) = delete;
  DeviceArray& operator=(const DeviceArray&) = delete;

  int count() const { return static_cast<int>(pools_.size()); }
  Time latency() const { return latency_; }
  /// Attribution category of this kind's accesses (kBb or kPfs).
  obs::Category category() const { return names_.cat; }
  Bytes total_capacity() const { return capacity_per_device_ * static_cast<Bytes>(count()); }
  sim::FairSharePool& pool(int i) { return *pools_.at(static_cast<std::size_t>(i)); }

  /// Device access on device `i`: latency, then `bytes * inflation` through
  /// its pool. `inflation >= 1` models lock/section overhead (shared-file
  /// layouts pay it; log-structured FPP does not). `parent` links the
  /// device span into the causal DAG (obs::attribution).
  sim::Task Access(int i, Bytes bytes, double inflation = 1.0, obs::SpanRef parent = {});

  /// Fault window: device `i` serves at `factor` (in (0,1]) of its nominal
  /// bandwidth until Restore(). A second Degrade overwrites the factor
  /// (windows do not nest).
  void Degrade(int i, double factor);
  void Restore(int i);
  bool degraded(int i) const { return windows_.at(static_cast<std::size_t>(i)).factor < 1.0; }
  /// Total degraded device-seconds so far, open windows included.
  Time degraded_seconds() const;

  /// Emits trace spans for still-open degrade windows (covering [since,
  /// now]) and restarts them at now, so pre-export traces show every fault
  /// window. degraded_seconds() totals are unchanged.
  void FlushDegradeSpans();

 private:
  /// One device kind's trace and counter names (string literals).
  struct Names {
    const char* pool_prefix;
    const char* access_span;
    const char* degraded_span;
    const char* accesses_counter;
    const char* bytes_counter;
    const char* windows_counter;
    obs::Track (*track)(int);
    obs::Category cat;
  };
  struct DegradedWindow {
    double factor = 1.0;
    Time since = 0.0;
  };

  DeviceArray(sim::Engine& engine, const Names& names, int count, Bandwidth bw, Time latency,
              Bytes capacity_per_device);
  void CloseWindow(int i, DegradedWindow& w);

  Names names_;
  sim::Engine* engine_;
  Bandwidth bw_;
  Time latency_;
  Bytes capacity_per_device_;
  std::vector<std::unique_ptr<sim::FairSharePool>> pools_;
  std::vector<DegradedWindow> windows_;
  Time degraded_seconds_ = 0.0;  // closed windows only; see degraded_seconds()
};

}  // namespace uvs::hw
