// End-to-end connection tests: handshake, request/response application
// model, loss recovery over simulated links, and server-NIC trace capture.
#include <gtest/gtest.h>

#include <memory>

#include "net/ipv4.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tcp/connection.h"
#include "util/rng.h"

namespace tapo::tcp {
namespace {

struct Harness {
  sim::Simulator sim;
  sim::Link down;
  sim::Link up;
  net::PacketTrace trace;
  std::unique_ptr<Connection> conn;

  explicit Harness(ConnectionConfig cfg, sim::LinkConfig down_cfg = {},
                   sim::LinkConfig up_cfg = {}, std::uint64_t seed = 1)
      : down(sim, down_cfg, Rng(seed)), up(sim, up_cfg, Rng(seed + 1)) {
    conn = std::make_unique<Connection>(sim, down, up, std::move(cfg), &trace);
  }

  void run(double seconds = 300.0) {
    conn->start();
    sim.run_until(sim.now() + Duration::seconds(seconds));
  }
};

ConnectionConfig basic_config(std::uint64_t response_bytes = 50'000,
                              int requests = 1) {
  ConnectionConfig cfg;
  cfg.client_to_server = {net::ipv4_from_string("10.0.0.1"),
                          net::ipv4_from_string("192.168.1.1"), 40001, 80};
  for (int i = 0; i < requests; ++i) {
    RequestSpec req;
    req.response_bytes = response_bytes;
    cfg.requests.push_back(req);
  }
  return cfg;
}

sim::LinkConfig link_rtt(double ms) {
  sim::LinkConfig cfg;
  cfg.prop_delay = Duration::seconds(ms / 2000.0);
  return cfg;
}

TEST(Connection, CleanTransferCompletes) {
  Harness h(basic_config(50'000), link_rtt(100), link_rtt(100));
  h.run();
  ASSERT_TRUE(h.conn->done());
  const auto& m = h.conn->metrics();
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.total_response_bytes, 50'000u);
  ASSERT_EQ(m.requests.size(), 1u);
  EXPECT_TRUE(m.requests[0].completed);
  // Latency at least 1 RTT, at most a few RTTs for 35 segments.
  EXPECT_GE(m.requests[0].latency(), Duration::millis(100));
  EXPECT_LE(m.requests[0].latency(), Duration::seconds(3.0));
  // Handshake took one RTT.
  EXPECT_EQ((m.established - m.syn_sent).us(), 100'000);
}

TEST(Connection, TraceContainsHandshakeAndBothDirections) {
  Harness h(basic_config(10'000), link_rtt(50), link_rtt(50));
  h.run();
  ASSERT_TRUE(h.conn->done());
  bool saw_syn = false, saw_synack = false, saw_client = false,
       saw_server_data = false, saw_fin = false;
  for (const auto& p : h.trace.packets()) {
    const bool from_server = p.key.src_port == 80;
    if (p.tcp.flags.syn && !p.tcp.flags.ack) saw_syn = true;
    if (p.tcp.flags.syn && p.tcp.flags.ack) saw_synack = true;
    if (!from_server && !p.tcp.flags.syn) saw_client = true;
    if (from_server && p.payload_len > 0) saw_server_data = true;
    if (p.tcp.flags.fin) saw_fin = true;
  }
  EXPECT_TRUE(saw_syn);
  EXPECT_TRUE(saw_synack);
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_server_data);
  EXPECT_TRUE(saw_fin);
  // Timestamps are monotone at the capture point.
  for (std::size_t i = 1; i < h.trace.size(); ++i) {
    EXPECT_GE(h.trace[i].timestamp, h.trace[i - 1].timestamp);
  }
}

TEST(Connection, SynLossRecoveredByRetry) {
  sim::LinkConfig up_cfg = link_rtt(50);
  Harness h(basic_config(5'000), link_rtt(50), up_cfg);
  // A total outage swallows the first SYN.
  h.up.open_episode(
      {.effect = sim::Effect::kDrop, .length = Duration::millis(100)});
  h.run();
  EXPECT_TRUE(h.conn->done());
  EXPECT_TRUE(h.conn->metrics().completed);
  // Establishment waited for the 3 s client retry.
  EXPECT_GE((h.conn->metrics().established - h.conn->metrics().syn_sent),
            Duration::seconds(3.0));
}

TEST(Connection, LossyTransferStillCompletes) {
  sim::LinkConfig down_cfg = link_rtt(80);
  down_cfg.random_loss = 0.05;
  sim::LinkConfig up_cfg = link_rtt(80);
  up_cfg.random_loss = 0.02;
  Harness h(basic_config(200'000), down_cfg, up_cfg, /*seed=*/7);
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_TRUE(h.conn->metrics().completed);
  EXPECT_GT(h.conn->sender().stats().retransmissions, 0u);
}

TEST(Connection, MultiRequestFlowServesSequentially) {
  auto cfg = basic_config(20'000, 3);
  cfg.requests[1].client_gap = Duration::millis(500);
  Harness h(cfg, link_rtt(60), link_rtt(60));
  h.run();
  ASSERT_TRUE(h.conn->done());
  const auto& m = h.conn->metrics();
  ASSERT_EQ(m.requests.size(), 3u);
  for (const auto& r : m.requests) {
    EXPECT_TRUE(r.completed);
    EXPECT_NE(r.server_acked_resp, TimePoint());
  }
  EXPECT_EQ(m.total_response_bytes, 60'000u);
  // Requests are sequential: request 1 started after response 0 finished.
  EXPECT_GE(m.requests[1].client_sent, m.requests[0].client_got_resp);
  // And the configured idle gap was honoured.
  EXPECT_GE(m.requests[1].client_sent - m.requests[0].client_got_resp,
            Duration::millis(500));
}

TEST(Connection, ServerThinkDelaysResponse) {
  auto cfg = basic_config(5'000);
  cfg.requests[0].server_think = Duration::millis(700);
  Harness h(cfg, link_rtt(40), link_rtt(40));
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_GE(h.conn->metrics().requests[0].latency(), Duration::millis(700));
}

TEST(Connection, ChunkedResponseCompletes) {
  auto cfg = basic_config(100'000);
  cfg.requests[0].chunk_bytes = 10'000;
  cfg.requests[0].chunk_interval = Duration::millis(100);
  Harness h(cfg, link_rtt(40), link_rtt(40));
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_EQ(h.conn->metrics().total_response_bytes, 100'000u);
  // Chunking stretched the transfer to at least 9 intervals.
  EXPECT_GE(h.conn->metrics().requests[0].latency(), Duration::millis(900));
}

TEST(Connection, SmallFixedWindowClientCompletes) {
  auto cfg = basic_config(60'000);
  cfg.receiver.init_rwnd_bytes = 2 * cfg.receiver.mss;
  cfg.receiver.max_rwnd_bytes = 2 * cfg.receiver.mss;
  cfg.receiver.window_autotune = false;
  cfg.receiver.app_read_Bps = 80'000;
  Harness h(cfg, link_rtt(50), link_rtt(50));
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_TRUE(h.conn->metrics().completed);
  // Transfer was receive-window-bound: roughly bytes / read rate.
  EXPECT_GE(h.conn->metrics().requests[0].latency(), Duration::millis(600));
}

TEST(Connection, SlowPausingReaderCausesZeroWindows) {
  auto cfg = basic_config(300'000);
  cfg.receiver.init_rwnd_bytes = 16 * 1024;
  cfg.receiver.max_rwnd_bytes = 16 * 1024;
  cfg.receiver.window_autotune = false;
  cfg.receiver.app_read_Bps = 200'000;
  cfg.receiver.pause_every_bytes = 32 * 1024;
  cfg.receiver.pause_duration = Duration::millis(600);
  Harness h(cfg, link_rtt(50), link_rtt(50));
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_GE(h.conn->client_receiver().zero_window_acks(), 1u);
  EXPECT_GE(h.conn->sender().stats().zero_window_episodes, 1u);
}

TEST(Connection, WindowScalingUsedForLargeWindows) {
  auto cfg = basic_config(10'000);
  cfg.receiver.init_rwnd_bytes = 512 * 1024;
  cfg.receiver.max_rwnd_bytes = 2 * 1024 * 1024;
  Harness h(cfg, link_rtt(40), link_rtt(40));
  h.run();
  bool syn_has_wscale = false;
  for (const auto& p : h.trace.packets()) {
    if (p.tcp.flags.syn && !p.tcp.flags.ack) {
      syn_has_wscale = p.tcp.window_scale.has_value();
    }
  }
  EXPECT_TRUE(syn_has_wscale);
  EXPECT_TRUE(h.conn->done());
}

TEST(Connection, SynAdvertisesInitRwnd) {
  auto cfg = basic_config(5'000);
  cfg.receiver.init_rwnd_bytes = 4096;
  cfg.receiver.max_rwnd_bytes = 4096;
  cfg.receiver.window_autotune = false;
  Harness h(cfg, link_rtt(40), link_rtt(40));
  h.run();
  for (const auto& p : h.trace.packets()) {
    if (p.tcp.flags.syn && !p.tcp.flags.ack) {
      EXPECT_EQ(p.tcp.window, 4096);
      EXPECT_TRUE(p.tcp.sack_permitted);
      ASSERT_TRUE(p.tcp.mss.has_value());
    }
  }
  EXPECT_TRUE(h.conn->done());
}

TEST(Connection, DeterministicGivenSeed) {
  auto run_once = [] {
    sim::LinkConfig down_cfg = link_rtt(80);
    down_cfg.random_loss = 0.08;
    down_cfg.jitter_mean = Duration::millis(4);
    Harness h(basic_config(150'000), down_cfg, link_rtt(80), /*seed=*/42);
    h.run();
    std::vector<std::int64_t> stamps;
    for (const auto& p : h.trace.packets()) stamps.push_back(p.timestamp.us());
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Connection, SrtoMechanismRunsEndToEnd) {
  // Short flow (small packets_out) over a lossy path: the S-RTO probe arms
  // and repairs the tail losses with zero native timeouts.
  auto cfg = basic_config(9'000);
  cfg.sender.recovery = RecoveryMechanism::kSrto;
  sim::LinkConfig down_cfg = link_rtt(80);
  down_cfg.random_loss = 0.12;
  Harness h(cfg, down_cfg, link_rtt(80), /*seed=*/22);
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_TRUE(h.conn->metrics().completed);
  EXPECT_GE(h.conn->sender().stats().srto_probes, 1u);
  EXPECT_EQ(h.conn->sender().stats().rto_fires, 0u);
}

TEST(Connection, TlpMechanismRunsEndToEnd) {
  auto cfg = basic_config(9'000);
  cfg.sender.recovery = RecoveryMechanism::kTlp;
  sim::LinkConfig down_cfg = link_rtt(80);
  down_cfg.random_loss = 0.12;
  Harness h(cfg, down_cfg, link_rtt(80), /*seed=*/22);
  h.run();
  ASSERT_TRUE(h.conn->done());
  EXPECT_GE(h.conn->sender().stats().tlp_probes, 1u);
}

TEST(Connection, HandshakeSeedsRtt) {
  Harness h(basic_config(5'000), link_rtt(100), link_rtt(100));
  h.run();
  // The sender's estimator saw the handshake RTT (~100 ms), so the RTO is
  // well below the 3 s initial value.
  EXPECT_TRUE(h.conn->sender().rto_estimator().has_sample());
  EXPECT_LT(h.conn->sender().rto_estimator().rto(), Duration::seconds(1.0));
}

}  // namespace
}  // namespace tapo::tcp
