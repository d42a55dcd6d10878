#include "sim/link.h"

#include <algorithm>

#include "net/ipv4.h"
#include "telemetry/telemetry.h"

namespace tapo::sim {

namespace {

bool pure_ack(const net::CapturedPacket& pkt) {
  return pkt.tcp.flags.ack && !pkt.tcp.flags.syn && pkt.payload_len == 0;
}

}  // namespace

void Link::open_episode(const Episode& e) {
  const TimePoint now = sim_.now();
  // Saturate so an always-on episode (Duration::max()) cannot overflow.
  const TimePoint until = e.length >= TimePoint::max() - now
                              ? TimePoint::max()
                              : now + e.length;
  window(e.effect) = Window{until, e.prob, e.delay, e.kind};
}

void Link::count_hit(const Window& w) {
  if (w.kind == nullptr) return;
  ++stats_.injected;
  if (!telemetry::metrics_enabled()) return;
  telemetry::Registry::instance()
      .counter("tapo_chaos_injected_total", {{"kind", w.kind}})
      .add(1);
}

bool Link::decide_drop(const net::CapturedPacket& pkt, TimePoint now) {
  if (config_.random_loss > 0.0 && rng_.chance(config_.random_loss)) {
    ++stats_.dropped_random;
    return true;
  }
  if (config_.p_good_to_bad > 0.0 &&
      open_window(Effect::kDrop, now) == nullptr &&
      rng_.chance(config_.p_good_to_bad)) {
    open_episode({.effect = Effect::kDrop,
                  .length = Duration::seconds(
                      rng_.exponential(config_.burst_duration.sec())),
                  .prob = config_.bad_loss});
  }
  if (const Window* w = open_window(Effect::kDrop, now);
      w != nullptr && rng_.chance(w->prob)) {
    return drop_by(*w);
  }
  if (const Window* w = open_window(Effect::kDropPureAcks, now);
      w != nullptr && pure_ack(pkt) && rng_.chance(w->prob)) {
    return drop_by(*w);
  }
  if (const Window* w = open_window(Effect::kDropRetrans, now);
      w != nullptr && retransmission(pkt) && rng_.chance(w->prob)) {
    return drop_by(*w);
  }
  return false;
}

bool Link::drop_by(const Window& w) {
  ++stats_.dropped_episode;
  count_hit(w);
  return true;
}

bool Link::retransmission(const net::CapturedPacket& pkt) {
  if (pkt.payload_len == 0) return false;
  const bool retrans = seen_data_ && net::before(pkt.tcp.seq, high_end_);
  if (!seen_data_ || net::after(pkt.end_seq(), high_end_)) {
    high_end_ = pkt.end_seq();
    seen_data_ = true;
  }
  return retrans;
}

std::size_t Link::wire_size(const net::CapturedPacket& pkt) const {
  return net::kIpv4HeaderLen + pkt.tcp.header_len() + pkt.payload_len;
}

void Link::send(net::CapturedPacket pkt) {
  ++stats_.sent;
  const TimePoint now = sim_.now();
  if (decide_drop(pkt, now)) return;

  TimePoint depart = now;
  if (config_.bandwidth_Bps > 0) {
    if (queued_ >= config_.queue_packets) {
      ++stats_.dropped_queue;
      return;
    }
    const Duration tx = Duration::micros(static_cast<std::int64_t>(
        static_cast<double>(wire_size(pkt)) * 1e6 /
        static_cast<double>(config_.bandwidth_Bps)));
    depart = std::max(now, busy_until_) + tx;
    busy_until_ = depart;
    ++queued_;
    sim_.schedule_at(depart, [this] { --queued_; });
  }
  if (const Window* w = open_window(Effect::kHoldAcks, now);
      w != nullptr && pure_ack(pkt)) {
    depart = std::max(depart, w->until);
    count_hit(*w);
  }

  Duration extra = Duration::zero();
  if (config_.jitter_mean > Duration::zero()) {
    extra += Duration::micros(static_cast<std::int64_t>(
        rng_.exponential(static_cast<double>(config_.jitter_mean.us()))));
  }
  if (config_.delay_burst_prob > 0.0 &&
      open_window(Effect::kDelay, now) == nullptr &&
      rng_.chance(config_.delay_burst_prob)) {
    open_episode({.effect = Effect::kDelay,
                  .length = Duration::seconds(
                      rng_.exponential(config_.delay_burst_duration.sec())),
                  .delay = config_.delay_burst_extra});
  }
  if (const Window* w = open_window(Effect::kDelay, now)) {
    extra += w->delay;
    count_hit(*w);
  }
  // Bufferbloat coupling: a packet that survives a loss outage sits behind
  // the congested queue that caused it, so its delay spikes too. This is
  // what drives the sender's RTTVAR — and hence the RTO — up around loss
  // episodes (the paper's RTO is ~10x the RTT, Fig. 1b).
  if (const Window* w = open_window(Effect::kDrop, now)) {
    extra += (w->until - now) + Duration::millis(50);
  }
  bool reordered =
      config_.reorder_prob > 0.0 && rng_.chance(config_.reorder_prob);
  if (reordered) extra += config_.reorder_delay;
  if (const Window* w = open_window(Effect::kReorder, now);
      w != nullptr && rng_.chance(w->prob)) {
    reordered = true;
    extra += w->delay;
    count_hit(*w);
  }
  if (const Window* w = open_window(Effect::kZeroWindow, now);
      w != nullptr && pkt.tcp.flags.ack && !pkt.tcp.flags.syn) {
    pkt.tcp.window = 0;
    count_hit(*w);
  }

  TimePoint arrive = depart + config_.prop_delay + extra;
  if (!reordered) {
    if (arrive < last_arrival_) arrive = last_arrival_;
    last_arrival_ = arrive;
  }
  sim_.schedule_at(arrive, [this, pkt = std::move(pkt)]() mutable {
    ++stats_.delivered;
    if (deliver_) {
      pkt.timestamp = sim_.now();
      deliver_(pkt);
    }
  });
}

}  // namespace tapo::sim
