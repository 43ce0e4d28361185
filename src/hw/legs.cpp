#include "src/hw/legs.hpp"

#include <utility>

#include "src/sim/combinators.hpp"

namespace uvs::hw {

namespace {
sim::Task SpanOver(sim::Engine& engine, const char* module, const char* name, obs::Track track,
                   Bytes bytes, obs::SpanTag tag, sim::Task inner) {
  obs::SpanTimer span(engine, module, name, track, bytes, tag);
  co_await std::move(inner);
}
}  // namespace

Legs::Legs(sim::Engine& engine, const char* module, obs::Track track, obs::SpanRef parent)
    : engine_(&engine),
      module_(module),
      track_(track),
      parent_(parent),
      traced_(obs::Enabled()) {}

sim::Task Legs::Traced(const char* name, obs::Category cat, Time ideal, Bytes bytes,
                       sim::Task inner) const {
  if (!traced_) return inner;
  return SpanOver(*engine_, module_, name, track_, bytes,
                  {.cat = cat, .parent = parent_, .ideal = ideal}, std::move(inner));
}

void Legs::Pool(const char* name, obs::Category cat, sim::FairSharePool& pool, Bytes bytes) {
  const Time ideal = traced_ ? pool.SoloTime(bytes) : 0.0;
  legs_.push_back(Traced(name, cat, ideal, bytes, sim::PoolTransfer(pool, bytes)));
}

void Legs::Device(const char* name, DeviceArray& array, int i, Bytes bytes, double inflation) {
  const Time ideal = traced_ ? array.latency() + array.pool(i).SoloTime(bytes) : 0.0;
  legs_.push_back(Traced(name, array.category(), ideal, bytes,
                         array.Access(i, bytes, inflation, parent_)));
}

void Legs::Task(const char* name, obs::Category cat, Bytes bytes, sim::Task task) {
  legs_.push_back(Wrap(name, cat, bytes, std::move(task)));
}

sim::Task Legs::Wrap(const char* name, obs::Category cat, Bytes bytes, sim::Task task) const {
  return Traced(name, cat, 0.0, bytes, std::move(task));
}

sim::Task Legs::Join() { return sim::WhenAll(*engine_, std::move(legs_)); }

}  // namespace uvs::hw
