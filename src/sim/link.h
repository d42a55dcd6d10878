// Unidirectional link model: drop-tail queue + serialization at a
// configurable bandwidth, propagation delay with jitter, i.i.d. random
// loss, and impairment episodes. An episode is a time window plus one
// effect (drop, delay, hold, rewrite) applied at send time to every packet
// the link carries while the window is open. The link's own wall-clock
// outages (the correlated drops behind the paper's continuous-loss and
// double-retransmission stalls) and delay bursts are episodes; so is
// everything the chaos engine and scripted scenarios inject. This is the
// only place a packet in flight is impaired.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/trace.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tapo::sim {

struct LinkConfig {
  /// One-way propagation delay.
  Duration prop_delay = Duration::millis(50);
  /// Extra per-packet delay drawn ~ Exp(jitter_mean); 0 disables. Jitter
  /// stretches delivery without reordering, like a real queue: packets
  /// never overtake each other.
  Duration jitter_mean = Duration::micros(0);
  /// With this probability a packet is held an extra `reorder_delay` and
  /// exempted from FIFO, letting later packets overtake it.
  double reorder_prob = 0.0;
  Duration reorder_delay = Duration::millis(5);
  /// Bottleneck bandwidth in bytes/second; 0 = infinite.
  std::uint64_t bandwidth_Bps = 0;
  /// Drop-tail queue capacity in packets (only meaningful with bandwidth).
  std::size_t queue_packets = 64;

  /// i.i.d. loss probability applied to every packet.
  double random_loss = 0.0;

  /// Correlated delay bursts (transient congestion / routing events): each
  /// packet opens a kDelay episode with probability delay_burst_prob; for
  /// ~Exp(delay_burst_duration) of wall-clock time every packet is held an
  /// extra delay_burst_extra. Unlike per-packet jitter this moves whole
  /// windows late, producing the paper's "RTT variation" stalls without
  /// inflating the steady-state SRTT.
  double delay_burst_prob = 0.0;
  Duration delay_burst_duration = Duration::millis(250);
  Duration delay_burst_extra = Duration::millis(200);

  /// Time-based burst loss (outage windows — congested middlebox buffers).
  /// Each packet opens a kDrop episode with probability p_good_to_bad; the
  /// outage lasts ~ Exp(burst_duration) of wall-clock time, during which
  /// packets drop with `bad_loss`. Time-based (not per-packet Gilbert-
  /// Elliott) so that a retransmission seconds later sees a recovered path.
  double p_good_to_bad = 0.0;
  Duration burst_duration = Duration::millis(150);
  double bad_loss = 0.9;
};

/// What an open episode does to each packet sent on the link.
enum class Effect : std::uint8_t {
  /// Drop with `prob`. A survivor sits behind the congested queue that
  /// caused the outage: it arrives only after the window plus 50 ms.
  kDrop,
  /// Drop pure ACKs (ACK flag, no SYN, no payload) with `prob`.
  kDropPureAcks,
  /// Drop retransmissions with `prob`: data starting below the highest
  /// end sequence this link has sent while the window was open. A first
  /// transmission is never dropped.
  kDropRetrans,
  /// Hold every packet an extra `delay`; FIFO order is kept.
  kDelay,
  /// With `prob`, hold a packet an extra `delay` outside FIFO order, so
  /// later packets overtake it.
  kReorder,
  /// Pure ACKs wait at the link head until the window closes, then leave
  /// back-to-back; FIFO order holds, so later packets queue behind them.
  /// They are scheduled at send, so they arrive even if the flow finishes
  /// meanwhile.
  kHoldAcks,
  /// Rewrite the advertised window of non-SYN ACKs to zero.
  kZeroWindow,
};
inline constexpr std::size_t kEffects =
    static_cast<std::size_t>(Effect::kZeroWindow) + 1;

/// A window of `length` starting now, plus its effect's parameters.
struct Episode {
  Effect effect = Effect::kDrop;
  Duration length = Duration::zero();
  double prob = 1.0;                   // kDrop*, kReorder
  Duration delay = Duration::zero();   // kDelay, kReorder
  /// Label for injected episodes: every packet the episode touches counts
  /// in LinkStats::injected and tapo_chaos_injected_total{kind}. nullptr
  /// for the link's own outages and delay bursts, which count nowhere.
  const char* kind = nullptr;
};

struct LinkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t dropped_episode = 0;  // any kDrop* episode
  std::uint64_t dropped_queue = 0;
  std::uint64_t injected = 0;         // packets touched by labelled episodes
  std::uint64_t dropped_total() const {
    return dropped_random + dropped_episode + dropped_queue;
  }
};

class Link {
 public:
  using DeliverFn = std::function<void(const net::CapturedPacket&)>;

  Link(Simulator& sim, LinkConfig config, Rng rng)
      : sim_(sim), config_(config), rng_(rng) {}

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Replaces the delivery handler and returns the previous one, so an
  /// observer installed after construction (delivery tracking) can wrap
  /// whatever the connection already registered.
  DeliverFn swap_deliver(DeliverFn fn) {
    DeliverFn old = std::move(deliver_);
    deliver_ = std::move(fn);
    return old;
  }

  /// Injects a packet at the link head. Drops are silent (counted in stats).
  void send(net::CapturedPacket pkt);

  /// Opens `e` from now for `e.length`. Each effect has one window: opening
  /// an effect that is already open replaces its window and parameters.
  void open_episode(const Episode& e);

  const LinkStats& stats() const { return stats_; }
  const LinkConfig& config() const { return config_; }

  /// Runtime re-configuration (scripted scenarios, e.g. Fig. 2's jitter
  /// episode).
  void set_jitter_mean(Duration d) { config_.jitter_mean = d; }

 private:
  struct Window {
    TimePoint until = TimePoint::epoch();
    double prob = 1.0;
    Duration delay = Duration::zero();
    const char* kind = nullptr;
  };

  Window& window(Effect e) { return windows_[static_cast<std::size_t>(e)]; }
  /// The effect's window if it is open at `now`, else nullptr.
  Window* open_window(Effect e, TimePoint now) {
    Window& w = window(e);
    return now < w.until ? &w : nullptr;
  }
  void count_hit(const Window& w);
  bool drop_by(const Window& w);
  /// Data starting below the highest end sequence seen so far; updates the
  /// mark (called only while a kDropRetrans window is open).
  bool retransmission(const net::CapturedPacket& pkt);
  bool decide_drop(const net::CapturedPacket& pkt, TimePoint now);
  std::size_t wire_size(const net::CapturedPacket& pkt) const;

  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  DeliverFn deliver_;
  LinkStats stats_;

  std::array<Window, kEffects> windows_{};
  net::Seq32 high_end_;  // highest data end-seq sent (kDropRetrans)
  bool seen_data_ = false;
  TimePoint busy_until_ = TimePoint::epoch();
  TimePoint last_arrival_ = TimePoint::epoch();
  std::size_t queued_ = 0;
  /// Packets on the wire, in slots reused through a free list threaded
  /// through the free slots: a delivery event captures only {this, slot},
  /// which std::function stores inline, so a packet crossing the link
  /// allocates nothing once the slab has grown to the link's peak.
  struct Slot {
    net::CapturedPacket pkt;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffff;
  std::vector<Slot> in_flight_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace tapo::sim
