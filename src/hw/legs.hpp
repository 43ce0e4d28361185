// Leg builder: one charged transfer as concurrent legs over CPU, DRAM, NIC,
// burst-buffer nodes and OSTs (§II-B; docs/MODEL.md §2). Each leg runs as
// its own simulation process and the transfer completes when the slowest
// leg does.
//
// With tracing on, every leg is wrapped in a span on the issuing track,
// tagged with its attribution category, the transfer's causal parent and
// the leg's ideal (solo, contention-free) duration; obs::attribution splits
// the excess over the ideal into fair-share queueing. With tracing off the
// legs are the bare transfers. The wrapper awaits its leg by symmetric
// transfer, so tracing adds no engine events either way.
#pragma once

#include <vector>

#include "src/hw/device_array.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"

namespace uvs::hw {

class Legs {
 public:
  /// `module` is the span category ("univistor", "baselines"); spans land
  /// on `track` with `parent` as their causal parent.
  Legs(sim::Engine& engine, const char* module, obs::Track track, obs::SpanRef parent);

  /// A transfer of `bytes` through `pool`; ideal = pool.SoloTime(bytes).
  void Pool(const char* name, obs::Category cat, sim::FairSharePool& pool, Bytes bytes);
  /// An access to device `i` of `array`, parented to this transfer;
  /// ideal = latency + SoloTime(bytes).
  void Device(const char* name, DeviceArray& array, int i, Bytes bytes, double inflation = 1.0);
  /// Any other task (a PFS access, a network transfer); ideal = 0.
  void Task(const char* name, obs::Category cat, Bytes bytes, sim::Task task);

  /// `task` wrapped as Task() would wrap it, for awaiting on its own.
  sim::Task Wrap(const char* name, obs::Category cat, Bytes bytes, sim::Task task) const;

  /// Runs every leg added so far concurrently (sim::WhenAll).
  sim::Task Join();

 private:
  sim::Task Traced(const char* name, obs::Category cat, Time ideal, Bytes bytes,
                   sim::Task inner) const;

  sim::Engine* engine_;
  const char* module_;
  obs::Track track_;
  obs::SpanRef parent_;
  bool traced_;
  std::vector<sim::Task> legs_;
};

}  // namespace uvs::hw
