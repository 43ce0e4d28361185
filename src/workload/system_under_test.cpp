#include "src/workload/system_under_test.hpp"

#include "src/baselines/lustre_driver.hpp"
#include "src/fault/injector.hpp"
#include "src/univistor/driver.hpp"

namespace uvs::workload {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kUniviStor: return "univistor";
    case SystemKind::kLustre: return "lustre";
    case SystemKind::kDataElevator: return "data_elevator";
  }
  return "?";
}

SystemUnderTest BuildSystem(SystemKind kind, Scenario& scenario,
                            const univistor::Config& config) {
  SystemUnderTest sut;
  switch (kind) {
    case SystemKind::kUniviStor:
      sut.univistor_ = std::make_unique<univistor::UniviStor>(
          scenario.runtime(), scenario.pfs(), scenario.workflow(), config);
      sut.driver_ = std::make_unique<univistor::UniviStorDriver>(*sut.univistor_);
      break;
    case SystemKind::kLustre:
      sut.driver_ = std::make_unique<baselines::LustreDriver>(scenario.runtime(), scenario.pfs());
      break;
    case SystemKind::kDataElevator:
      sut.data_elevator_ =
          std::make_unique<baselines::DataElevator>(scenario.runtime(), scenario.pfs());
      sut.driver_ = std::make_unique<baselines::DataElevatorDriver>(*sut.data_elevator_);
      break;
  }
  return sut;
}

void SystemUnderTest::AttachInjector(fault::Injector& injector, Scenario& scenario) const {
  injector.set_cluster(&scenario.cluster());
  univistor::UniviStor* system = univistor_.get();
  if (system == nullptr) return;
  injector.SetCrashHandler([system](int node) { system->FailNode(node); });
  system->AttachFaults(&injector);
}

void WireEcFaults(fault::Injector& injector, Scenario& scenario, bool recover,
                  Time scrub_interval) {
  storage::Pfs* pfs = &scenario.pfs();
  sim::Engine* engine = &scenario.engine();
  injector.AddOstFailHandler([pfs, engine, recover](int ost) {
    pfs->FailOst(ost);
    if (recover) engine->Spawn(pfs->RebuildOst(ost), "ec-rebuild");
  });
  injector.AddLatentHandler([pfs](int ost) { pfs->InjectLatentError(ost); });
  injector.AddScrubHandler([pfs, engine, scrub_interval] {
    engine->Spawn(pfs->ScrubPass(scrub_interval), "ec-scrub");
  });
}

void RunFinalScrub(Scenario& scenario, Time interval) {
  scenario.engine().Spawn(scenario.pfs().ScrubPass(interval), "ec-scrub-final");
  scenario.engine().Run();
}

}  // namespace uvs::workload
