// Tests for the discrete-event simulator and link models.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/chaos.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tapo::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().us(), 30'000);
}

TEST(Simulator, FifoAmongEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  Timer t(sim, [&] { fired = true; });
  t.arm(Duration::millis(1));
  t.cancel();
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator sim;
  Timer t(sim, [] {});
  t.cancel();  // never armed
  EXPECT_FALSE(t.armed());
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule(Duration::millis(1), tick);
  };
  sim.schedule(Duration::millis(1), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().us(), 5'000);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> seen;
  sim.schedule(Duration::millis(10), [&] { seen.push_back(1); });
  sim.schedule(Duration::millis(30), [&] { seen.push_back(2); });
  sim.run_until(TimePoint::from_us(20'000));
  EXPECT_EQ(seen, std::vector<int>{1});
  EXPECT_EQ(sim.now().us(), 20'000);
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  bool fired = false;
  sim.schedule(Duration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().us(), 0);
}

TEST(Timer, ArmAndFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(Duration::millis(10));
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPending) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(Duration::millis(10));
  t.arm(Duration::millis(50));
  sim.run_until(TimePoint::from_us(20'000));
  EXPECT_EQ(fires, 0);
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now().us(), 50'000);
}

TEST(Timer, CancelStopsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(Duration::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmInsideCallback) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fires < 3) tp->arm(Duration::millis(10));
  });
  tp = &t;
  t.arm(Duration::millis(10));
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now().us(), 30'000);
}

net::CapturedPacket test_packet(std::uint32_t seq, std::uint32_t payload) {
  net::CapturedPacket p;
  p.key = {1, 2, 3, 4};
  p.tcp.seq = net::Seq32{seq};
  p.payload_len = payload;
  return p;
}

TEST(Link, DeliversAfterPropDelay) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(25);
  Link link(sim, cfg, Rng(1));
  std::vector<std::int64_t> arrivals;
  link.set_deliver([&](const net::CapturedPacket& p) {
    arrivals.push_back(p.timestamp.us());
  });
  link.send(test_packet(1, 100));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 25'000);
  EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(Link, FifoPreservedUnderJitter) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  cfg.jitter_mean = Duration::millis(20);  // heavy jitter
  Link link(sim, cfg, Rng(7));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  for (std::uint32_t i = 0; i < 100; ++i) link.send(test_packet(i, 100));
  sim.run();
  ASSERT_EQ(seqs.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(Link, ReorderEventsOvertake) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  cfg.reorder_prob = 0.3;
  cfg.reorder_delay = Duration::millis(50);
  Link link(sim, cfg, Rng(21));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  for (std::uint32_t i = 0; i < 200; ++i) link.send(test_packet(i, 100));
  sim.run();
  ASSERT_EQ(seqs.size(), 200u);
  bool out_of_order = false;
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i] < seqs[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Link, RandomLossRate) {
  Simulator sim;
  LinkConfig cfg;
  cfg.random_loss = 0.1;
  Link link(sim, cfg, Rng(3));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(test_packet(1, 1));
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.9, 0.01);
  EXPECT_EQ(link.stats().dropped_random + link.stats().delivered,
            static_cast<std::uint64_t>(n));
}

TEST(Link, BandwidthSerialization) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(0);
  cfg.bandwidth_Bps = 100'000;  // 100 KB/s
  cfg.queue_packets = 100;
  Link link(sim, cfg, Rng(5));
  std::vector<std::int64_t> arrivals;
  link.set_deliver([&](const net::CapturedPacket& p) {
    arrivals.push_back(p.timestamp.us());
  });
  // Two 1000-byte payload packets: wire size 1040 each -> 10.4 ms each.
  link.send(test_packet(1, 1000));
  link.send(test_packet(2, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 10'400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(arrivals[1]), 20'800.0, 200.0);
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_Bps = 10'000;
  cfg.queue_packets = 5;
  Link link(sim, cfg, Rng(5));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  for (int i = 0; i < 20; ++i) link.send(test_packet(1, 1000));
  sim.run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(link.stats().dropped_queue, 15u);
}

TEST(Link, ForcedOutageDropsWindow) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  Link link(sim, cfg, Rng(9));
  int delivered = 0;
  link.set_deliver([&](const net::CapturedPacket&) { ++delivered; });
  link.open_episode({.effect = Effect::kDrop, .length = Duration::millis(100)});
  for (int i = 0; i < 10; ++i) link.send(test_packet(1, 1));
  // After the outage, packets flow again.
  sim.schedule(Duration::millis(200), [&] {
    for (int i = 0; i < 10; ++i) link.send(test_packet(1, 1));
  });
  sim.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(link.stats().dropped_episode, 10u);
  EXPECT_EQ(link.stats().injected, 0u);  // unlabelled: a scripted outage
}

TEST(Link, BurstOutageIsTimeBased) {
  // One packet per millisecond; each packet on a good path opens an outage
  // with probability 1 %, and an outage drops everything for ~Exp(50 ms)
  // of wall-clock time. Time-based outages swallow ~50 packets each, so
  // about a third of the traffic drops (100 ms good, 50 ms bad on
  // average); a per-packet chain would drop ~1 %. The path recovers
  // between outages.
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  cfg.p_good_to_bad = 0.01;
  cfg.burst_duration = Duration::millis(50);
  cfg.bad_loss = 1.0;
  Link link(sim, cfg, Rng(11));
  link.set_deliver([](const net::CapturedPacket&) {});
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    sim.schedule(Duration::millis(i), [&] { link.send(test_packet(1, 1)); });
  }
  sim.run();
  const double dropped = static_cast<double>(link.stats().dropped_episode) / n;
  EXPECT_GT(dropped, 0.2);
  EXPECT_LT(dropped, 0.5);
  EXPECT_EQ(link.stats().delivered + link.stats().dropped_episode,
            static_cast<std::uint64_t>(n));
}

TEST(Link, DeterministicGivenSeed) {
  auto run_once = [] {
    Simulator sim;
    LinkConfig cfg;
    cfg.random_loss = 0.3;
    cfg.jitter_mean = Duration::millis(5);
    Link link(sim, cfg, Rng(42));
    std::vector<std::int64_t> arrivals;
    link.set_deliver([&](const net::CapturedPacket& p) {
      arrivals.push_back(p.timestamp.us());
    });
    for (int i = 0; i < 100; ++i) link.send(test_packet(1, 100));
    sim.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}


// --- cancellation: a timer's superseded expiry is dropped at pop ---------

TEST(Simulator, PendingAndEmptyTrackCancellationImmediately) {
  Simulator sim;
  int fired = 0;
  Timer a(sim, [&] { ++fired; });
  Timer b(sim, [&] { ++fired; });
  a.arm(Duration::millis(1));
  b.arm(Duration::millis(2));
  sim.schedule(Duration::millis(3), [&] { ++fired; });
  a.cancel();
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.next_event_time(), TimePoint::from_us(2'000));
  b.cancel();
  b.cancel();  // double-cancel is a no-op
  EXPECT_EQ(sim.next_event_time(), TimePoint::from_us(3'000));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  Timer late(sim, [&] { ++fired; });
  sim.schedule(Duration::millis(1), [&] { ++fired; });
  late.arm(Duration::millis(10));
  EXPECT_EQ(sim.run_until(TimePoint::epoch() + Duration::millis(5)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(late.armed());
  EXPECT_FALSE(sim.empty());
  late.cancel();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  Timer head(sim, [&] { fired = true; });
  head.arm(Duration::millis(1));
  sim.schedule(Duration::millis(8), [&] { fired = true; });
  head.cancel();
  // The cancelled head must not stop run_until from seeing that the next
  // *live* event is beyond the deadline.
  EXPECT_EQ(sim.run_until(TimePoint::epoch() + Duration::millis(5)), 0u);
  EXPECT_EQ(sim.now().us(), 5'000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelFromWithinHandler) {
  Simulator sim;
  bool second_fired = false;
  Timer second(sim, [&] { second_fired = true; });
  second.arm(Duration::millis(2));
  sim.schedule(Duration::millis(1), [&] { second.cancel(); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Timer, DestroyedWhileQueuedNeverFires) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(7), [&] { ++fired; });
  {
    Timer doomed(sim, [&] { fired += 100; });
    doomed.arm(Duration::millis(5));
  }
  EXPECT_EQ(sim.run_until(TimePoint::from_us(8'000)), 1u);
  EXPECT_EQ(fired, 1);
  // A later timer takes over a destroyed one's slot; the dead expiry must
  // not fire it.
  {
    Timer doomed(sim, [&] { fired += 100; });
    doomed.arm(Duration::millis(5));
  }
  Timer reuser(sim, [&] { ++fired; });
  reuser.arm(Duration::millis(10));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().us(), 18'000);
  EXPECT_TRUE(sim.empty());
}

TEST(Timer, TiesWithPlainEventsFireInArmOrder) {
  Simulator sim;
  std::vector<int> order;
  Timer first(sim, [&] { order.push_back(1); });
  Timer third(sim, [&] { order.push_back(3); });
  first.arm(Duration::millis(4));
  sim.schedule(Duration::millis(4), [&] { order.push_back(2); });
  third.arm(Duration::millis(4));
  sim.schedule(Duration::millis(4), [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Timer, SupersededExpiryIsInvisible) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm(Duration::millis(1));
  t.arm(Duration::millis(2));
  t.cancel();
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.next_event_time());
  // The sender's RTO pattern: re-armed ahead of its deadline on every ACK.
  t.arm(Duration::millis(1));
  t.arm(Duration::millis(2));
  t.arm(Duration::millis(3));
  EXPECT_EQ(sim.next_event_time(), TimePoint::from_us(3'000));
  sim.schedule(Duration::millis(4), [&] { ++fired; });
  // Two superseded entries sit ahead of the live ones; a budget of one
  // still reaches the live expiry and stops there.
  EXPECT_EQ(sim.run_until(TimePoint::from_us(10'000), 1), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().us(), 3'000);
  t.arm(Duration::millis(5));
  t.cancel();
  EXPECT_EQ(sim.next_event_time(), TimePoint::from_us(4'000));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.next_event_time());
}

// --- LinkEpisode: one case per episode effect ---------------------------

net::CapturedPacket pure_ack_packet(std::uint32_t ack) {
  net::CapturedPacket p;
  p.key = {1, 2, 3, 4};
  p.tcp.ack = net::Seq32{ack};
  p.tcp.flags.ack = true;
  p.tcp.window = 1000;
  return p;
}

/// Sends `make(k)` on `link` at k ms for k in [0, n).
template <typename Make>
void send_every_ms(Simulator& sim, Link& link, std::uint32_t n, Make make) {
  for (std::uint32_t k = 0; k < n; ++k) {
    sim.schedule(Duration::millis(k), [&link, make, k] { link.send(make(k)); });
  }
}

struct Arrival {
  std::uint32_t id;
  std::int64_t at_us;
};

TEST(LinkEpisode, BlackholeDropsBothDirectionsForExactlyItsWindow) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  Link data(sim, cfg, Rng(1));
  Link ack(sim, cfg, Rng(2));
  constexpr std::uint32_t kPackets = 3000;
  std::vector<bool> data_seen(kPackets), ack_seen(kPackets);
  data.set_deliver(
      [&](const net::CapturedPacket& p) { data_seen[p.tcp.seq.raw()] = true; });
  ack.set_deliver(
      [&](const net::CapturedPacket& p) { ack_seen[p.tcp.ack.raw()] = true; });
  ChaosClock clock(sim, data, ack,
                   ChaosConfig{}.with_seed(3).with_blackholes(
                       2.0, Duration::millis(100)));
  clock.start([&sim] { return sim.now() < TimePoint::from_us(2'500'000); });
  send_every_ms(sim, data, kPackets, [](std::uint32_t k) {
    return test_packet(k, 100);
  });
  send_every_ms(sim, ack, kPackets, pure_ack_packet);
  sim.run();

  // Both directions lose the same send instants, in runs of exactly the
  // window's 100 one-millisecond sends.
  EXPECT_EQ(data_seen, ack_seen);
  std::size_t runs = 0, dropped = 0;
  for (std::uint32_t k = 0; k < kPackets;) {
    if (data_seen[k]) {
      ++k;
      continue;
    }
    std::uint32_t end = k;
    while (end < kPackets && !data_seen[end]) ++end;
    EXPECT_EQ(end - k, 100u) << "run starting at " << k << " ms";
    dropped += end - k;
    ++runs;
    k = end;
  }
  EXPECT_GE(runs, 2u);
  EXPECT_EQ(data.stats().dropped_episode, dropped);
  EXPECT_EQ(data.stats().injected + ack.stats().injected, 2 * dropped);
}

TEST(LinkEpisode, HeldAcksReleasedInOrderAtWindowEndAfterFlowDone) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  Link data(sim, cfg, Rng(1));
  Link ack(sim, cfg, Rng(2));
  std::vector<Arrival> arrivals;
  ack.set_deliver([&](const net::CapturedPacket& p) {
    arrivals.push_back({p.tcp.ack.raw(), p.timestamp.us()});
  });
  // The flow is "done" at 50 ms: it stops sending, and the clock opens no
  // further window. The window open by then still releases its ACKs.
  bool done = false;
  ChaosClock clock(sim, data, ack,
                   ChaosConfig{}.with_seed(7).with_ack_compression(
                       50.0, Duration::millis(100)));
  clock.start([&done] { return !done; });
  send_every_ms(sim, ack, 50, pure_ack_packet);
  sim.schedule(Duration::millis(50), [&done] { done = true; });
  sim.run();

  ASSERT_EQ(arrivals.size(), 50u);
  std::int64_t first_held = 0;
  while (first_held < 50 &&
         arrivals[first_held].at_us == first_held * 1'000 + 10'000) {
    ++first_held;
  }
  ASSERT_GT(first_held, 0);
  ASSERT_LT(first_held, 50) << "no window opened before 50 ms";
  // The window opened between the sends of the last passed ACK and the
  // first held one, and lasted 100 ms; every held ACK leaves at its end,
  // in the order it was sent.
  const std::int64_t until = arrivals[first_held].at_us - 10'000;
  EXPECT_GT(until - 100'000, (first_held - 1) * 1'000);
  EXPECT_LE(until - 100'000, first_held * 1'000);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].id, i);
    if (static_cast<std::int64_t>(i) >= first_held) {
      EXPECT_EQ(arrivals[i].at_us, until + 10'000);
    }
  }
  EXPECT_EQ(ack.stats().injected, 50u - static_cast<std::uint64_t>(first_held));
}

TEST(LinkEpisode, ZeroWindowRewriteSparesSynAndSynAck) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  Link link(sim, cfg, Rng(1));
  std::vector<std::uint32_t> windows;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { windows.push_back(p.tcp.window); });
  link.open_episode({.effect = Effect::kZeroWindow,
                     .length = Duration::millis(100),
                     .kind = "rwnd_flap"});
  net::CapturedPacket syn = test_packet(0, 0);
  syn.tcp.flags.syn = true;
  syn.tcp.window = 1000;
  net::CapturedPacket synack = syn;
  synack.tcp.flags.ack = true;
  net::CapturedPacket data_ack = pure_ack_packet(1);
  data_ack.payload_len = 100;
  link.send(syn);
  link.send(synack);
  link.send(pure_ack_packet(1));
  link.send(data_ack);
  sim.schedule(Duration::millis(100),
               [&] { link.send(pure_ack_packet(2)); });  // window closed
  sim.run();
  EXPECT_EQ(windows, (std::vector<std::uint32_t>{1000, 1000, 0, 0, 1000}));
  EXPECT_EQ(link.stats().injected, 2u);
}

TEST(LinkEpisode, RetransDropNeverDropsFirstTransmission) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(1);
  Link link(sim, cfg, Rng(1));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  link.open_episode({.effect = Effect::kDropRetrans,
                     .length = Duration::max(),
                     .prob = 1.0,
                     .kind = "retrans_drop"});
  const std::uint32_t base = 0xffffff00u;  // first transmissions wrap
  std::vector<std::uint32_t> first;
  for (std::uint32_t i = 0; i < 5; ++i) first.push_back(base + i * 100);
  for (std::uint32_t s : first) link.send(test_packet(s, 100));
  link.send(test_packet(first[1], 100));  // retransmissions
  link.send(test_packet(first[4], 100));
  link.send(test_packet(first[2] + 50, 100));  // overlaps sent data
  const std::uint32_t next = base + 500;
  link.send(test_packet(next, 100));  // new data after the retransmissions
  link.send(test_packet(next + 100, 0));  // pure ACK: never a retransmission
  sim.run();
  first.push_back(next);
  first.push_back(next + 100);
  EXPECT_EQ(seqs, first);
  EXPECT_EQ(link.stats().dropped_episode, 3u);
  EXPECT_EQ(link.stats().injected, 3u);
}

TEST(LinkEpisode, ReorderWindowLetsLaterPacketsOvertake) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  Link link(sim, cfg, Rng(21));
  std::vector<std::uint32_t> seqs;
  link.set_deliver(
      [&](const net::CapturedPacket& p) { seqs.push_back(p.tcp.seq.raw()); });
  link.open_episode({.effect = Effect::kReorder,
                     .length = Duration::millis(100),
                     .prob = 0.3,
                     .delay = Duration::millis(50)});
  send_every_ms(sim, link, 300,
                [](std::uint32_t k) { return test_packet(k, 100); });
  sim.run();
  ASSERT_EQ(seqs.size(), 300u);
  // A packet arriving after a later-sent one was held by the window, so it
  // was sent inside it; packets sent after the window keep their order.
  std::size_t overtaken = 0;
  std::uint32_t highest = 0;
  std::vector<std::uint32_t> after_window;
  for (std::uint32_t s : seqs) {
    if (s < highest) {
      ++overtaken;
      EXPECT_LT(s, 100u) << "packet sent at " << s << " ms was held";
    }
    highest = std::max(highest, s);
    if (s >= 100) after_window.push_back(s);
  }
  EXPECT_GT(overtaken, 10u);
  EXPECT_TRUE(std::is_sorted(after_window.begin(), after_window.end()));
  EXPECT_EQ(link.stats().injected, 0u);  // unlabelled episode
}

TEST(LinkEpisode, RttSpikeWindowKeepsFifoOrder) {
  Simulator sim;
  LinkConfig cfg;
  cfg.prop_delay = Duration::millis(10);
  Link link(sim, cfg, Rng(5));
  std::vector<Arrival> arrivals;
  link.set_deliver([&](const net::CapturedPacket& p) {
    arrivals.push_back({p.tcp.seq.raw(), p.timestamp.us()});
  });
  link.open_episode({.effect = Effect::kDelay,
                     .length = Duration::millis(100),
                     .delay = Duration::millis(50),
                     .kind = "rtt_spike"});
  send_every_ms(sim, link, 200,
                [](std::uint32_t k) { return test_packet(k, 100); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 200u);
  for (std::uint32_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].id, i);  // later packets never overtake
    const std::int64_t sent_us = std::int64_t{i} * 1'000;
    if (i < 100) {
      EXPECT_EQ(arrivals[i].at_us, sent_us + 60'000);
    } else {
      // Behind the last spiked packet (99 ms + 60 ms), then on time.
      EXPECT_EQ(arrivals[i].at_us, std::max<std::int64_t>(sent_us + 10'000,
                                                          159'000));
    }
  }
  EXPECT_EQ(link.stats().injected, 100u);
}

}  // namespace
}  // namespace tapo::sim
