// Tests for the hardware models: topology building, network hose model,
// burst-buffer and OST device arrays.
#include <gtest/gtest.h>

#include <ostream>
#include <utility>
#include <vector>

#include "src/hw/cluster.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/engine.hpp"

namespace uvs::hw {
namespace {

TEST(CoriPreset, ScalesNodesWithProcesses) {
  EXPECT_EQ(CoriPreset(64).nodes, 2);
  EXPECT_EQ(CoriPreset(8192).nodes, 256);
  EXPECT_EQ(CoriPreset(100).nodes, 4);  // rounds up
  EXPECT_EQ(CoriPreset(1).nodes, 1);
}

TEST(CoriPreset, BurstBufferNodesClamped) {
  EXPECT_EQ(CoriPreset(64).bb.bb_nodes, 2);     // floor of 2
  EXPECT_EQ(CoriPreset(8192).bb.bb_nodes, 86);  // 256/2 clamped
  EXPECT_EQ(CoriPreset(4096).bb.bb_nodes, 64);   // 128/2
}

TEST(Cluster, BuildsTopologyFromParams) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(128);
  Cluster cluster(engine, params);
  EXPECT_EQ(cluster.node_count(), 4);
  EXPECT_EQ(cluster.node(0).cores(), 32);
  EXPECT_EQ(cluster.node(0).sockets(), 2);
  EXPECT_EQ(cluster.burst_buffer().count(), 2);
  EXPECT_EQ(cluster.pfs().count(), 248);
}

TEST(Node, SocketOfCoreSplitsContiguously) {
  sim::Engine engine;
  Node node(engine, 0, NodeParams{});
  EXPECT_EQ(node.SocketOfCore(0), 0);
  EXPECT_EQ(node.SocketOfCore(15), 0);
  EXPECT_EQ(node.SocketOfCore(16), 1);
  EXPECT_EQ(node.SocketOfCore(31), 1);
}

TEST(LayerName, AllLayersNamed) {
  EXPECT_STREQ(LayerName(Layer::kDram), "DRAM");
  EXPECT_STREQ(LayerName(Layer::kNodeLocalSsd), "NodeSSD");
  EXPECT_STREQ(LayerName(Layer::kSharedBurstBuffer), "BB");
  EXPECT_STREQ(LayerName(Layer::kPfs), "PFS");
}

sim::Task TimedTransfer(Network& net, int src, int dst, Bytes bytes, double* done_at,
                        sim::Engine& engine) {
  co_await net.Transfer(src, dst, bytes);
  *done_at = engine.Now();
}

TEST(Network, TransferBoundByNicBandwidth) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(64);
  Cluster cluster(engine, params);
  double done = -1;
  // 10 GB over a 10 GB/s NIC => ~1 s (plus tiny latency).
  engine.Spawn(TimedTransfer(cluster.network(), 0, 1, 10'000'000'000ull, &done, engine));
  engine.Run();
  EXPECT_NEAR(done, 1.0, 0.01);
}

TEST(Network, IntraNodeTransferIsFree) {
  sim::Engine engine;
  Cluster cluster(engine, CoriPreset(64));
  double done = -1;
  engine.Spawn(TimedTransfer(cluster.network(), 0, 0, 1_GiB, &done, engine));
  engine.Run();
  EXPECT_NEAR(done, 0.0, 1e-9);
}

TEST(Network, ReceiverNicIsTheBottleneckForFanIn) {
  sim::Engine engine;
  Cluster cluster(engine, CoriPreset(128));
  // Three senders target node 0; its rx pool serializes the aggregate.
  std::vector<double> done(3, -1);
  for (int s = 1; s <= 3; ++s)
    engine.Spawn(
        TimedTransfer(cluster.network(), s, 0, 10'000'000'000ull, &done[s - 1], engine));
  engine.Run();
  for (double d : done) EXPECT_NEAR(d, 3.0, 0.05);  // 30 GB over 10 GB/s rx
}

/// One device kind: how to size it, where it sits on a Cluster, and the
/// names its pools, spans and counters carry.
struct DeviceKind {
  const char* label;
  void (*configure)(ClusterParams&, Bandwidth bw, Time latency);
  DeviceArray& (*array)(Cluster&);
  Bytes (*expected_capacity)(const ClusterParams&);
  const char* pool1;
  const char* access_span;
  const char* degraded_span;
  const char* accesses_counter;
  const char* windows_counter;
  obs::Track track1;
  obs::Category cat;
};

const DeviceKind kBurstBuffer{
    "bb",
    [](ClusterParams& p, Bandwidth bw, Time latency) {
      p.bb.bw_per_bb_node = bw;
      p.bb.latency = latency;
    },
    [](Cluster& c) -> DeviceArray& { return c.burst_buffer(); },
    [](const ClusterParams& p) {
      return p.bb.capacity_per_bb_node * static_cast<Bytes>(p.bb.bb_nodes);
    },
    "bb1",
    "bb.access",
    "bb.degraded",
    "hw.bb.accesses",
    "hw.bb.degrade_windows",
    obs::Track::BbNode(1),
    obs::Category::kBb};

const DeviceKind kOsts{
    "ost",
    [](ClusterParams& p, Bandwidth bw, Time latency) {
      p.pfs.bw_per_ost = bw;
      p.pfs.latency = latency;
    },
    [](Cluster& c) -> DeviceArray& { return c.pfs(); },
    [](const ClusterParams& p) {
      return p.pfs.capacity_per_ost * static_cast<Bytes>(p.pfs.osts);
    },
    "ost1",
    "ost.access",
    "ost.degraded",
    "hw.ost.accesses",
    "hw.ost.degrade_windows",
    obs::Track::Ost(1),
    obs::Category::kPfs};

// Names the ctest cases .../bb and .../ost.
void PrintTo(const DeviceKind& kind, std::ostream* os) { *os << kind.label; }

class DeviceArrayTest : public ::testing::TestWithParam<DeviceKind> {
 protected:
  /// 1 GB/s devices with 0.5 s latency, so a 1 GB access takes 1.5 s alone.
  ClusterParams Params() const {
    ClusterParams params = CoriPreset(64);
    GetParam().configure(params, 1.0_GBps, 0.5);
    return params;
  }
};

sim::Task TimedAccess(DeviceArray& array, int i, Bytes bytes, double inflation,
                      double* done_at, sim::Engine& engine) {
  co_await array.Access(i, bytes, inflation);
  *done_at = engine.Now();
}

TEST_P(DeviceArrayTest, AccessPaysLatencyThenInflatedBytes) {
  for (const double inflation : {1.0, 2.0}) {
    sim::Engine engine;
    Cluster cluster(engine, Params());
    double done = -1;
    engine.Spawn(
        TimedAccess(GetParam().array(cluster), 0, 1'000'000'000ull, inflation, &done, engine));
    engine.Run();
    EXPECT_NEAR(done, 0.5 + inflation, 1e-6) << "inflation " << inflation;
  }
}

TEST_P(DeviceArrayTest, DevicesAreIndependentPools) {
  sim::Engine engine;
  Cluster cluster(engine, Params());
  DeviceArray& array = GetParam().array(cluster);
  double a = -1, b = -1, c = -1;
  engine.Spawn(TimedAccess(array, 0, 1'000'000'000ull, 1.0, &a, engine));
  engine.Spawn(TimedAccess(array, 1, 1'000'000'000ull, 1.0, &b, engine));
  engine.Spawn(TimedAccess(array, 1, 1'000'000'000ull, 1.0, &c, engine));
  engine.Run();
  EXPECT_NEAR(a, 1.5, 1e-6) << "device 0 shares with nobody";
  EXPECT_NEAR(b, 2.5, 1e-6) << "two flows split device 1";
  EXPECT_NEAR(c, 2.5, 1e-6);
  EXPECT_EQ(array.pool(1).name(), GetParam().pool1);
}

TEST_P(DeviceArrayTest, TotalCapacitySumsDevices) {
  sim::Engine engine;
  const ClusterParams params = Params();
  Cluster cluster(engine, params);
  EXPECT_EQ(GetParam().array(cluster).total_capacity(), GetParam().expected_capacity(params));
}

TEST_P(DeviceArrayTest, DegradeWindowsAccountAndTrace) {
  const DeviceKind& kind = GetParam();
  obs::Recorder recorder;
  recorder.Install();
  sim::Engine engine;
  Cluster cluster(engine, Params());
  DeviceArray& array = kind.array(cluster);
  engine.Spawn([](DeviceArray& d, sim::Engine& e) -> sim::Task {
    co_await e.Delay(1.0);
    d.Degrade(1, 0.5);
    co_await e.Delay(2.0);
    d.Degrade(1, 0.25);  // overwrites: closes [1, 3], opens [3, ...)
    EXPECT_DOUBLE_EQ(d.pool(1).capacity(), 0.25 * 1.0_GBps);
    co_await e.Delay(1.0);
    d.Restore(1);
  }(array, engine));
  engine.Run();
  recorder.Uninstall();

  EXPECT_FALSE(array.degraded(1));
  EXPECT_DOUBLE_EQ(array.pool(1).capacity(), 1.0_GBps);
  EXPECT_NEAR(array.degraded_seconds(), 3.0, 1e-9) << "both windows summed";
  EXPECT_EQ(recorder.metrics().GetCounter(kind.windows_counter).value(), 1u)
      << "an overwrite does not open a new window";

  std::vector<std::pair<Time, Time>> windows;
  for (const auto& span : recorder.spans()) {
    EXPECT_STREQ(span.name, kind.degraded_span);
    EXPECT_EQ(span.track, kind.track1);
    EXPECT_EQ(span.tag.cat, obs::Category::kDegraded);
    windows.emplace_back(span.start, span.end);
  }
  EXPECT_EQ(windows, (std::vector<std::pair<Time, Time>>{{1.0, 3.0}, {3.0, 4.0}}));
}

TEST_P(DeviceArrayTest, AccessEmitsKindSpanAndCounters) {
  const DeviceKind& kind = GetParam();
  obs::Recorder recorder;
  recorder.Install();
  sim::Engine engine;
  Cluster cluster(engine, Params());
  double done = -1;
  engine.Spawn(TimedAccess(kind.array(cluster), 1, 1'000'000'000ull, 1.0, &done, engine));
  engine.Run();
  recorder.Uninstall();

  ASSERT_EQ(recorder.spans().size(), 1u);
  const auto& span = recorder.spans()[0];
  EXPECT_STREQ(span.category, "hw");
  EXPECT_STREQ(span.name, kind.access_span);
  EXPECT_EQ(span.track, kind.track1);
  EXPECT_EQ(span.tag.cat, kind.cat);
  EXPECT_EQ(span.bytes, 1'000'000'000ull);
  EXPECT_DOUBLE_EQ(span.end - span.start, 1.5);
  EXPECT_EQ(recorder.metrics().GetCounter(kind.accesses_counter).value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DeviceArrayTest, ::testing::Values(kBurstBuffer, kOsts));

}  // namespace
}  // namespace uvs::hw
