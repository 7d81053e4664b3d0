// Tests for the simulated interconnect.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace {

using aio::net::NetConfig;
using aio::net::Network;
using aio::sim::Engine;
using aio::sim::Time;

NetConfig cfg(double latency = 1e-3, double bw = 1000.0, std::size_t cores = 4) {
  NetConfig c;
  c.latency_s = latency;
  c.nic_bw = bw;
  c.cores_per_node = cores;
  return c;
}

TEST(Network, NodeCountRoundsUp) {
  Engine e;
  Network n(e, cfg(), 10);  // 4 cores/node -> 3 nodes
  EXPECT_EQ(n.n_nodes(), 3u);
  EXPECT_EQ(n.node_of(0), 0u);
  EXPECT_EQ(n.node_of(3), 0u);
  EXPECT_EQ(n.node_of(4), 1u);
  EXPECT_EQ(n.node_of(9), 2u);
}

TEST(Network, SmallMessagePaysLatencyPlusTransmission) {
  Engine e;
  Network n(e, cfg(1e-3, 1000.0), 8);
  Time delivered = -1;
  n.send(0, 5, 100.0, [&] { delivered = e.now(); });
  e.run();
  // 100 B at 1000 B/s = 0.1 s + 1 ms latency.
  EXPECT_NEAR(delivered, 0.101, 1e-9);
}

TEST(Network, ZeroByteMessagePaysOnlyLatency) {
  Engine e;
  Network n(e, cfg(1e-3, 1000.0), 8);
  Time delivered = -1;
  n.send(0, 5, 0.0, [&] { delivered = e.now(); });
  e.run();
  EXPECT_NEAR(delivered, 1e-3, 1e-12);
}

TEST(Network, SelfSendSkipsNic) {
  Engine e;
  Network n(e, cfg(1e-3, 1000.0), 8);
  Time delivered = -1;
  n.send(3, 3, 1e9, [&] { delivered = e.now(); });
  e.run();
  EXPECT_NEAR(delivered, 1e-3, 1e-12);
}

TEST(Network, SameNodeSendersShareTheNic) {
  Engine e;
  Network n(e, cfg(0.0, 1000.0, 4), 8);
  std::vector<Time> done(2, -1.0);
  // Ranks 0 and 1 live on node 0: two 500 B messages share 1000 B/s.
  n.send(0, 4, 500.0, [&] { done[0] = e.now(); });
  n.send(1, 5, 500.0, [&] { done[1] = e.now(); });
  e.run();
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(Network, DifferentNodeSendersDoNotContend) {
  Engine e;
  Network n(e, cfg(0.0, 1000.0, 4), 8);
  std::vector<Time> done(2, -1.0);
  n.send(0, 5, 500.0, [&] { done[0] = e.now(); });  // node 0
  n.send(4, 1, 500.0, [&] { done[1] = e.now(); });  // node 1
  e.run();
  EXPECT_NEAR(done[0], 0.5, 1e-9);
  EXPECT_NEAR(done[1], 0.5, 1e-9);
}

TEST(Network, CountsTraffic) {
  Engine e;
  Network n(e, cfg(), 8);
  n.send(0, 1, 100.0, [] {});
  n.send(1, 2, 200.0, [] {});
  e.run();
  EXPECT_EQ(n.messages_sent(), 2u);
  EXPECT_DOUBLE_EQ(n.bytes_sent(), 300.0);
}

// A NIC needs bandwidth: a non-positive or NaN nic_bw is refused when the
// network is built, not at the first send.
TEST(Network, NonPositiveNicBandwidthThrows) {
  Engine e;
  EXPECT_THROW(Network(e, cfg(1e-3, 0.0), 8), std::invalid_argument);
  EXPECT_THROW(Network(e, cfg(1e-3, -1.0), 8), std::invalid_argument);
  EXPECT_THROW(Network(e, cfg(1e-3, std::nan("")), 8), std::invalid_argument);
}

// Out-of-range ranks and negative or NaN byte counts are refused before
// any counter moves or any NIC stream starts.
TEST(Network, InvalidRanksThrow) {
  Engine e;
  Network n(e, cfg(), 8);
  EXPECT_THROW(n.send(-1, 0, 1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(n.send(0, 8, 1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(Network(e, cfg(), 0), std::invalid_argument);
  n.send(0, 5, 1000.0, [] {});
  EXPECT_THROW(n.send(0, 5, -500.0, [] {}), std::invalid_argument);
  EXPECT_THROW(n.send(0, 5, std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(n.send(3, 3, -1.0, [] {}), std::invalid_argument);
  EXPECT_EQ(n.messages_sent(), 1u);
  EXPECT_DOUBLE_EQ(n.bytes_sent(), 1000.0);
  // The sender's NIC still carries only the one valid message.
  Time delivered = -1.0;
  n.send(1, 6, 0.0, [&] { delivered = e.now(); });
  Time second = -1.0;
  n.send(2, 7, 1000.0, [&] { second = e.now(); });
  e.run();
  EXPECT_NEAR(delivered, 1e-3, 1e-12);
  // Two 1000 B streams share node 0's 1000 B/s NIC: both finish at 2 s.
  EXPECT_NEAR(second, 2.0 + 1e-3, 1e-9);
  EXPECT_EQ(n.messages_sent(), 3u);
}

}  // namespace
