#include "sim/chaos.h"

#include <stdexcept>
#include <utility>

namespace tapo::sim {

namespace {

void require(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}

void require_rate(double rate, Duration duration, const char* what) {
  if (rate < 0.0) {
    throw std::invalid_argument(std::string("ChaosConfig: ") + what +
                                " rate must be >= 0");
  }
  if (rate > 0.0 && duration <= Duration::zero()) {
    throw std::invalid_argument(std::string("ChaosConfig: ") + what +
                                " duration must be positive when enabled");
  }
}

}  // namespace

ChaosConfig& ChaosConfig::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}

ChaosConfig& ChaosConfig::with_reorder_storms(double rate, Duration duration,
                                              double prob, Duration hold) {
  require_rate(rate, duration, "reorder storm");
  require(prob >= 0.0 && prob <= 1.0,
          "ChaosConfig: reorder_prob must be in [0, 1]");
  require(hold > Duration::zero(),
          "ChaosConfig: reorder_hold must be positive");
  reorder_storm_rate = rate;
  reorder_storm_duration = duration;
  reorder_prob = prob;
  reorder_hold = hold;
  return *this;
}

ChaosConfig& ChaosConfig::with_ack_loss(double rate, Duration duration,
                                        double prob) {
  require_rate(rate, duration, "ACK loss");
  require(prob >= 0.0 && prob <= 1.0,
          "ChaosConfig: ack_loss_prob must be in [0, 1]");
  ack_loss_rate = rate;
  ack_loss_duration = duration;
  ack_loss_prob = prob;
  return *this;
}

ChaosConfig& ChaosConfig::with_ack_compression(double rate, Duration duration) {
  require_rate(rate, duration, "ACK compression");
  ack_compress_rate = rate;
  ack_compress_duration = duration;
  return *this;
}

ChaosConfig& ChaosConfig::with_rwnd_flaps(double rate, Duration duration) {
  require_rate(rate, duration, "rwnd flap");
  rwnd_flap_rate = rate;
  rwnd_flap_duration = duration;
  return *this;
}

ChaosConfig& ChaosConfig::with_rtt_spikes(double rate, Duration duration,
                                          Duration extra) {
  require_rate(rate, duration, "RTT spike");
  require(extra > Duration::zero(),
          "ChaosConfig: rtt_spike_extra must be positive");
  rtt_spike_rate = rate;
  rtt_spike_duration = duration;
  rtt_spike_extra = extra;
  return *this;
}

ChaosConfig& ChaosConfig::with_blackholes(double rate, Duration duration) {
  require_rate(rate, duration, "blackhole");
  blackhole_rate = rate;
  blackhole_duration = duration;
  return *this;
}

ChaosConfig& ChaosConfig::with_retrans_drops(double prob) {
  require(prob >= 0.0 && prob < 1.0,
          "ChaosConfig: retrans_drop_prob must be in [0, 1) — a probability "
          "of 1 would drop every retransmission forever and the flow could "
          "never complete");
  retrans_drop_prob = prob;
  return *this;
}

void ChaosConfig::validate() const {
  require_rate(reorder_storm_rate, reorder_storm_duration, "reorder storm");
  require_rate(ack_loss_rate, ack_loss_duration, "ACK loss");
  require_rate(ack_compress_rate, ack_compress_duration, "ACK compression");
  require_rate(rwnd_flap_rate, rwnd_flap_duration, "rwnd flap");
  require_rate(rtt_spike_rate, rtt_spike_duration, "RTT spike");
  require_rate(blackhole_rate, blackhole_duration, "blackhole");
  require(reorder_prob >= 0.0 && reorder_prob <= 1.0,
          "ChaosConfig: reorder_prob must be in [0, 1]");
  // tapo-lint: allow(seq-compare) — a drop probability, not a sequence number
  require(ack_loss_prob >= 0.0 && ack_loss_prob <= 1.0,
          "ChaosConfig: ack_loss_prob must be in [0, 1]");
  require(retrans_drop_prob >= 0.0 && retrans_drop_prob < 1.0,
          "ChaosConfig: retrans_drop_prob must be in [0, 1)");
  if (reorder_storm_rate > 0.0) {
    require(reorder_hold > Duration::zero(),
            "ChaosConfig: reorder_hold must be positive");
  }
  if (rtt_spike_rate > 0.0) {
    require(rtt_spike_extra > Duration::zero(),
            "ChaosConfig: rtt_spike_extra must be positive");
  }
}

const std::vector<ChaosScenario>& ChaosScenario::catalog() {
  static const std::vector<ChaosScenario> kCatalog = [] {
    std::vector<ChaosScenario> v;
    v.push_back({"reorder-storm",
                 ChaosConfig{}.with_reorder_storms(
                     0.8, Duration::millis(400), 0.5, Duration::millis(40))});
    v.push_back({"ack-squeeze",
                 ChaosConfig{}
                     .with_ack_loss(0.6, Duration::millis(250), 0.9)
                     .with_ack_compression(0.6, Duration::millis(150))});
    v.push_back({"rwnd-flap",
                 ChaosConfig{}.with_rwnd_flaps(0.5, Duration::millis(500))});
    v.push_back({"rtt-quake",
                 ChaosConfig{}.with_rtt_spikes(0.7, Duration::millis(300),
                                               Duration::millis(250))});
    v.push_back({"blackhole",
                 ChaosConfig{}.with_blackholes(0.3, Duration::millis(350))});
    v.push_back(
        {"retrans-reaper", ChaosConfig{}.with_retrans_drops(0.5)});
    v.push_back({"everything",
                 ChaosConfig{}
                     .with_reorder_storms(0.4, Duration::millis(300), 0.4,
                                          Duration::millis(30))
                     .with_ack_loss(0.3, Duration::millis(200), 0.8)
                     .with_ack_compression(0.3, Duration::millis(120))
                     .with_rwnd_flaps(0.25, Duration::millis(400))
                     .with_rtt_spikes(0.3, Duration::millis(250),
                                      Duration::millis(200))
                     .with_blackholes(0.15, Duration::millis(300))
                     .with_retrans_drops(0.3)});
    return v;
  }();
  return kCatalog;
}

const ChaosScenario* ChaosScenario::by_name(std::string_view name) {
  for (const auto& s : catalog()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ChaosClock::ChaosClock(Simulator& sim, Link& data_link, Link& ack_link,
                       ChaosConfig config)
    : sim_(sim),
      data_link_(data_link),
      ack_link_(ack_link),
      config_(std::move(config)),
      rng_(config_.seed) {
  config_.validate();
  const ChaosConfig& c = config_;
  const Duration none = Duration::zero();
  kinds_ = {
      {c.reorder_storm_rate,
       {Effect::kReorder, c.reorder_storm_duration, c.reorder_prob,
        c.reorder_hold, "reorder"},
       /*on_data=*/true, /*on_ack=*/false},
      {c.ack_loss_rate,
       {Effect::kDropPureAcks, c.ack_loss_duration, c.ack_loss_prob, none,
        "ack_loss"},
       false, true},
      {c.ack_compress_rate,
       {Effect::kHoldAcks, c.ack_compress_duration, 1.0, none,
        "ack_compress"},
       false, true},
      {c.rwnd_flap_rate,
       {Effect::kZeroWindow, c.rwnd_flap_duration, 1.0, none, "rwnd_flap"},
       false, true},
      {c.rtt_spike_rate,
       {Effect::kDelay, c.rtt_spike_duration, 1.0, c.rtt_spike_extra,
        "rtt_spike"},
       true, true},
      {c.blackhole_rate,
       {Effect::kDrop, c.blackhole_duration, 1.0, none, "blackhole"},
       true, true},
  };
}

void ChaosClock::start(std::function<bool()> active) {
  active_ = std::move(active);
  if (config_.retrans_drop_prob > 0.0) {
    data_link_.open_episode({.effect = Effect::kDropRetrans,
                             .length = Duration::max(),
                             .prob = config_.retrans_drop_prob,
                             .kind = "retrans_drop"});
  }
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    if (kinds_[k].rate > 0.0) schedule_onset(k, Duration::zero());
  }
}

void ChaosClock::schedule_onset(std::size_t k, Duration after) {
  const Duration gap =
      Duration::seconds(rng_.exponential(1.0 / kinds_[k].rate));
  sim_.schedule(after + gap, [this, k] {
    if (active_ && !active_()) return;  // flow done: let the chain die out
    const Kind& kind = kinds_[k];
    if (kind.on_data) data_link_.open_episode(kind.episode);
    if (kind.on_ack) ack_link_.open_episode(kind.episode);
    schedule_onset(k, kind.episode.length);
  });
}

}  // namespace tapo::sim
