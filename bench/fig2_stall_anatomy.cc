// Figure 2: illustrative example of TCP stalls within a single flow.
//
// A scripted 400 KB cloud-storage-like transfer experiences, in order:
//   1. a zero-receive-window stall (~250 ms) from a pausing reader,
//   2. an RTT-variation (packet delay) stall (~300 ms) from a jitter
//      episode,
//   3. several timeout-retransmission stalls (> 1 s) from forced outages.
// The bench prints the sequence-number progress over time and TAPO's
// classification of every stall — the reproduction of the paper's Fig. 2.
#include <cstdio>
#include <optional>

#include "common.h"
#include "net/ipv4.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "tapo/analyzer.h"
#include "tapo/report.h"
#include "tcp/connection.h"
#include "util/rng.h"

using namespace tapo;

int main(int argc, char** argv) {
  tapo::bench::init_telemetry(argc, argv);
  std::printf("==================================================================\n");
  std::printf("Figure 2: anatomy of TCP stalls within one flow\n");
  std::printf("reproduces: Fig. 2 (paper §2.2)\n");
  std::printf("==================================================================\n");

  sim::Simulator sim;
  sim::LinkConfig down_cfg;
  down_cfg.prop_delay = Duration::millis(70);
  sim::LinkConfig up_cfg;
  up_cfg.prop_delay = Duration::millis(70);
  sim::Link down(sim, down_cfg, Rng(1));
  sim::Link up(sim, up_cfg, Rng(2));

  tcp::ConnectionConfig cfg;
  cfg.client_to_server = {net::ipv4_from_string("10.0.0.1"),
                          net::ipv4_from_string("192.168.1.1"), 40001, 80};
  // Pausing reader with a modest fixed buffer -> one zero-window stall.
  cfg.receiver.init_rwnd_bytes = 48 * 1024;
  cfg.receiver.max_rwnd_bytes = 48 * 1024;
  cfg.receiver.window_autotune = false;
  cfg.receiver.app_read_Bps = 400'000;
  cfg.receiver.pause_every_bytes = 60 * 1024;
  cfg.receiver.pause_duration = Duration::millis(260);
  tcp::RequestSpec req;
  req.response_bytes = 400 * 1024;
  cfg.requests.push_back(req);

  net::PacketTrace trace;
  tcp::Connection conn(sim, down, up, cfg, &trace);

  // Scripted network events.
  sim.schedule(Duration::seconds(2.0), [&] {
    // RTT spike: jitter episode for ~0.6 s.
    down.set_jitter_mean(Duration::millis(320));
    sim.schedule(Duration::seconds(0.6), [&] {
      down.set_jitter_mean(Duration::zero());
    });
  });
  sim.schedule(Duration::seconds(4.0), [&] {
    // A total outage that kills a whole window...
    down.open_episode(
        {.effect = sim::Effect::kDrop, .length = Duration::millis(400)});
  });
  sim.schedule(Duration::seconds(6.0), [&] {
    // ...and again, deeper.
    down.open_episode(
        {.effect = sim::Effect::kDrop, .length = Duration::millis(900)});
  });

  conn.start();
  sim.run_until(sim.now() + Duration::seconds(120.0));

  // Sequence-number progress (sampled).
  std::printf("\ntime(s)  seq(KB)   [server data transmissions]\n");
  std::optional<net::Seq32> base;
  double last_printed = -1.0;
  for (const auto& p : trace.packets()) {
    if (p.key.src_port != 80 || p.payload_len == 0) continue;
    if (!base) base = p.tcp.seq;
    const double t = p.timestamp.sec();
    if (t - last_printed >= 0.25) {
      std::printf("%7.2f  %7.1f\n", t,
                  static_cast<double>(net::distance(*base, p.tcp.seq)) / 1024.0);
      last_printed = t;
    }
  }

  const double total = (conn.metrics().finished - conn.metrics().syn_sent).sec();
  std::printf("\ntransfer of 400KB took %.1fs (paper's example: 9s with >5s "
              "stalled)\n", total);

  // TAPO classification.
  analysis::Analyzer analyzer;
  const auto result = analyzer.analyze(trace);
  for (const auto& fa : result.flows) {
    std::printf("\n%s", analysis::describe_flow(fa).c_str());
  }
  std::printf("\npaper shape check: one zero-window stall (~250ms), one "
              "packet-delay stall (~300ms),\nand timeout-retransmission "
              "stalls of ~1s+ dominate the flow's lifetime.\n");
  tapo::bench::write_telemetry_artifacts();
  return 0;
}
