// The storage system under test behind one MPI-IO (ADIO) driver, and the
// steps every run assembles around it: the fault-plan wiring of the
// erasure-coded PFS and the final scrub pass. uvsim, the fuzz runner
// (testkit) and the multi-tenant cluster::ClusterSim all build their
// systems here, so UniviStor, Data Elevator and Lustre are assembled one
// way everywhere.
#pragma once

#include <cstdint>
#include <memory>

#include "src/baselines/data_elevator.hpp"
#include "src/common/units.hpp"
#include "src/univistor/config.hpp"
#include "src/univistor/system.hpp"
#include "src/vmpi/file.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::fault {
class Injector;
}

namespace uvs::workload {

enum class SystemKind : std::uint8_t { kUniviStor = 0, kLustre, kDataElevator };

const char* SystemKindName(SystemKind kind);

/// Owns one storage system and the driver applications reach it through.
/// Default-constructed, it holds nothing (univistor() is nullptr).
class SystemUnderTest {
 public:
  vmpi::AdioDriver& driver() const { return *driver_; }
  /// The UniviStor instance; nullptr for the baselines.
  univistor::UniviStor* univistor() const { return univistor_.get(); }

  /// Points the injector's degradation windows at the scenario's hardware
  /// and, for UniviStor, routes node crashes to FailNode and exposes the
  /// transfer-timeout windows to the flush path. The baselines have no
  /// fault path. The injector must outlive the system's run.
  void AttachInjector(fault::Injector& injector, Scenario& scenario) const;

 private:
  friend SystemUnderTest BuildSystem(SystemKind kind, Scenario& scenario,
                                     const univistor::Config& config);

  std::unique_ptr<univistor::UniviStor> univistor_;
  std::unique_ptr<baselines::DataElevator> data_elevator_;
  std::unique_ptr<vmpi::AdioDriver> driver_;  // destroyed before the system
};

/// Builds `kind` over the scenario's runtime and PFS. `config` shapes
/// UniviStor only; Lustre stripes every shared file over all OSTs and Data
/// Elevator runs its fixed server layout.
SystemUnderTest BuildSystem(SystemKind kind, Scenario& scenario,
                            const univistor::Config& config);

/// Routes the erasure-coding plan events into the scenario's PFS: an
/// `ostfail` fails the OST (and spawns its rebuild when `recover`), a
/// `latent` corrupts a shard, a `scrub` starts a pass pacing
/// `scrub_interval` sim seconds between stripes.
void WireEcFaults(fault::Injector& injector, Scenario& scenario, bool recover,
                  Time scrub_interval);

/// Sim seconds a scrub pass paces between stripes (fault-plan and final
/// passes alike), unless `uvsim --scrub=S` overrides it.
inline constexpr Time kScrubStripeInterval = 0.0001;

/// One full parity scrub pass after the workload drained, run to
/// completion.
void RunFinalScrub(Scenario& scenario, Time interval);

}  // namespace uvs::workload
