#include "src/hw/device_array.hpp"

#include <cassert>
#include <cmath>
#include <string>

namespace uvs::hw {

DeviceArray::DeviceArray(sim::Engine& engine, const BurstBufferParams& params)
    : DeviceArray(engine,
                  {"bb", "bb.access", "bb.degraded", "hw.bb.accesses", "hw.bb.bytes",
                   "hw.bb.degrade_windows", &obs::Track::BbNode, obs::Category::kBb},
                  params.bb_nodes, params.bw_per_bb_node, params.latency,
                  params.capacity_per_bb_node) {}

DeviceArray::DeviceArray(sim::Engine& engine, const PfsParams& params)
    : DeviceArray(engine,
                  {"ost", "ost.access", "ost.degraded", "hw.ost.accesses", "hw.ost.bytes",
                   "hw.ost.degrade_windows", &obs::Track::Ost, obs::Category::kPfs},
                  params.osts, params.bw_per_ost, params.latency, params.capacity_per_ost) {}

DeviceArray::DeviceArray(sim::Engine& engine, const Names& names, int count, Bandwidth bw,
                         Time latency, Bytes capacity_per_device)
    : names_(names),
      engine_(&engine),
      bw_(bw),
      latency_(latency),
      capacity_per_device_(capacity_per_device) {
  pools_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    pools_.push_back(std::make_unique<sim::FairSharePool>(
        engine, sim::FairSharePool::Options{.name = names_.pool_prefix + std::to_string(i),
                                            .capacity = bw}));
  }
  windows_.resize(pools_.size());
}

sim::Task DeviceArray::Access(int i, Bytes bytes, double inflation, obs::SpanRef parent) {
  assert(inflation >= 1.0);
  obs::SpanTimer span(*engine_, "hw", names_.access_span, names_.track(i), bytes,
                      {.cat = names_.cat, .parent = parent});
  obs::Count(names_.accesses_counter);
  obs::Count(names_.bytes_counter, bytes);
  co_await engine_->Delay(latency_);
  const auto effective = static_cast<Bytes>(std::llround(static_cast<double>(bytes) * inflation));
  co_await pool(i).Transfer(effective);
}

void DeviceArray::CloseWindow(int i, DegradedWindow& w) {
  degraded_seconds_ += engine_->Now() - w.since;
  if (obs::Recorder* r = obs::Recorder::Current(); r && engine_->Now() > w.since) {
    r->AddSpanTagged("hw", names_.degraded_span, names_.track(i), w.since, engine_->Now(),
                     obs::kNoBytes, {.cat = obs::Category::kDegraded});
  }
}

void DeviceArray::Degrade(int i, double factor) {
  assert(factor > 0.0 && factor <= 1.0);
  DegradedWindow& w = windows_.at(static_cast<std::size_t>(i));
  if (w.factor < 1.0) {
    CloseWindow(i, w);  // overwrite closes the old window
  } else {
    obs::Count(names_.windows_counter);
  }
  w = {factor, engine_->Now()};
  pool(i).SetCapacity(bw_ * factor);
}

void DeviceArray::Restore(int i) {
  DegradedWindow& w = windows_.at(static_cast<std::size_t>(i));
  if (w.factor >= 1.0) return;
  CloseWindow(i, w);
  w = {};
  pool(i).SetCapacity(bw_);
}

void DeviceArray::FlushDegradeSpans() {
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    DegradedWindow& w = windows_[i];
    if (w.factor >= 1.0) continue;
    CloseWindow(static_cast<int>(i), w);
    w.since = engine_->Now();  // window stays open; accounting restarts here
  }
}

Time DeviceArray::degraded_seconds() const {
  Time total = degraded_seconds_;
  for (const DegradedWindow& w : windows_)
    if (w.factor < 1.0) total += engine_->Now() - w.since;
  return total;
}

}  // namespace uvs::hw
