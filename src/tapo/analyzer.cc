#include "tapo/analyzer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "tapo/live.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace tapo::analysis {

const char* to_string(StallCause c) {
  switch (c) {
    case StallCause::kDataUnavailable: return "data_unavailable";
    case StallCause::kResourceConstraint: return "resource_constraint";
    case StallCause::kClientIdle: return "client_idle";
    case StallCause::kZeroWindow: return "zero_rwnd";
    case StallCause::kPacketDelay: return "packet_delay";
    case StallCause::kRetransmission: return "retransmission";
    case StallCause::kUndetermined: return "undetermined";
  }
  return "?";
}

const char* to_string(RetransCause c) {
  switch (c) {
    case RetransCause::kDoubleRetrans: return "double_retrans";
    case RetransCause::kTailRetrans: return "tail_retrans";
    case RetransCause::kSmallCwnd: return "small_cwnd";
    case RetransCause::kSmallRwnd: return "small_rwnd";
    case RetransCause::kContinuousLoss: return "continuous_loss";
    case RetransCause::kAckDelayLoss: return "ack_delay_loss";
    case RetransCause::kUndetermined: return "undetermined";
    case RetransCause::kNone: return "none";
  }
  return "?";
}

AnalyzerConfig& AnalyzerConfig::with_tau(double t) {
  return set_validated(*this, [t](AnalyzerConfig& c) { c.tau = t; });
}

AnalyzerConfig& AnalyzerConfig::with_dupthres(std::uint32_t n) {
  return set_validated(*this, [n](AnalyzerConfig& c) { c.dupthres = n; });
}

AnalyzerConfig& AnalyzerConfig::with_small_inflight(std::uint32_t n) {
  return set_validated(*this,
                       [n](AnalyzerConfig& c) { c.small_inflight = n; });
}

AnalyzerConfig& AnalyzerConfig::with_rto(const tcp::RtoConfig& cfg) {
  rto = cfg;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_rto_fraction(double f) {
  return set_validated(*this, [f](AnalyzerConfig& c) { c.rto_fraction = f; });
}

AnalyzerConfig& AnalyzerConfig::with_inflight_sampling(bool on) {
  sample_inflight_on_ack = on;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_dup_window(Duration w) {
  return set_validated(*this, [w](AnalyzerConfig& c) {
    c.dup_window = w;
    c.suppress_capture_dups = true;
  });
}

AnalyzerConfig& AnalyzerConfig::with_ts_quantum(Duration q) {
  return set_validated(*this, [q](AnalyzerConfig& c) { c.ts_quantum = q; });
}

void AnalyzerConfig::validate() const {
  if (!(tau > 0.0)) {
    throw std::invalid_argument("AnalyzerConfig: tau must be > 0, got " +
                                std::to_string(tau));
  }
  if (dupthres == 0) {
    throw std::invalid_argument(
        "AnalyzerConfig: dupthres must be > 0 (zero would classify every "
        "retransmission as fast)");
  }
  if (small_inflight == 0) {
    throw std::invalid_argument("AnalyzerConfig: small_inflight must be > 0");
  }
  // Values above 1 are legitimate (stricter timeout attribution: the
  // segment must have been quiet for more than a full RTO).
  if (!(rto_fraction > 0.0)) {
    throw std::invalid_argument(
        "AnalyzerConfig: rto_fraction must be > 0, got " +
        std::to_string(rto_fraction));
  }
  if (dup_window < Duration::zero()) {
    throw std::invalid_argument("AnalyzerConfig: dup_window must be >= 0");
  }
  if (ts_quantum < Duration::zero()) {
    throw std::invalid_argument("AnalyzerConfig: ts_quantum must be >= 0");
  }
}

namespace {

/// Telemetry tap for every classified stall. The per-cause counters are the
/// ground truth the Prometheus snapshot exposes: any stall table a consumer
/// builds from FlowAnalysis sums to exactly these totals, because both are
/// incremented from the same classification site. The trace event packs the
/// classification into the payload words (decoded by the Chrome exporter):
///   a = duration in us
///   b = cause | retrans_cause<<8 | state<<16 | f_double<<24 | in_flight<<32
void record_stall(const StallRecord& rec) {
  const auto dur_us = static_cast<std::uint64_t>(rec.duration.us());
  TAPO_TRACE(telemetry::EventKind::kStallSpan, rec.start.us(), dur_us,
             static_cast<std::uint64_t>(rec.cause) |
                 static_cast<std::uint64_t>(rec.retrans_cause) << 8 |
                 static_cast<std::uint64_t>(rec.state_at_stall) << 16 |
                 static_cast<std::uint64_t>(rec.f_double) << 24 |
                 static_cast<std::uint64_t>(rec.in_flight) << 32);
  if (!telemetry::metrics_enabled()) return;
  auto& registry = telemetry::Registry::instance();
  // Not cached: stalls are rare (the registry lookup is off the hot path)
  // and the label set varies per call.
  const std::vector<telemetry::Label> by_cause = {
      {"cause", to_string(rec.cause)}};
  registry.counter("tapo_stalls_total", by_cause).add(1);
  registry.counter("tapo_stall_time_us_total", by_cause).add(dur_us);
  if (rec.cause == StallCause::kRetransmission) {
    registry
        .counter("tapo_stall_retrans_total",
                 {{"retrans_cause", to_string(rec.retrans_cause)}})
        .add(1);
  }
  static auto& duration_hist = registry.histogram("tapo_stall_duration_us");
  duration_hist.observe(dur_us);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Bytes `v` holds after `extra` more push_backs (doubling growth).
template <typename T>
std::size_t bytes(const std::vector<T>& v, std::size_t extra) {
  std::size_t cap = v.capacity();
  if (v.size() + extra > cap) cap = std::max(2 * cap, v.size() + extra);
  return cap * sizeof(T);
}

/// Telemetry tap for the per-flow CaptureQuality record, incremented once
/// per analyzed flow from the record's own totals, so the counters and any
/// sum over FlowAnalysis::capture agree exactly (the robustness harness
/// asserts this).
void record_capture_quality(const CaptureQuality& q) {
  if (!telemetry::metrics_enabled()) return;
  auto& registry = telemetry::Registry::instance();
  const auto bump = [&registry](const char* kind, std::uint64_t n) {
    if (n == 0) return;
    registry.counter("tapo_capture_artifacts_total", {{"kind", kind}}).add(n);
  };
  bump("duplicate", q.dup_packets);
  bump("seq_gap", q.seq_gaps);
  bump("truncated", q.truncated_packets);
  bump("mid_stream", q.mid_stream ? 1 : 0);
  bump("suspect_stall", q.suspect_stalls);
  if (q.degraded()) {
    registry.counter("tapo_flows_degraded_total").add(1);
  }
}

}  // namespace

FlowMimic::FlowMimic(const FlowMeta& meta, const AnalyzerConfig& config)
    : meta_(meta), config_(config), rto_(config.rto) {
  if (meta_.mid_stream) {
    // No handshake in the capture: seed sequence state from the first
    // server data packet and remember that this "stream head" is
    // synthetic — it is where the *capture* starts, not necessarily
    // where a response starts.
    snd_nxt_ = meta_.first_server_data_seq;
    out_.capture.mid_stream = true;
  } else {
    snd_nxt_ = meta_.server_isn + 1;
  }
  snd_una_ = snd_nxt_;
  stream_head_ = snd_nxt_;
  head_seqs_.push_back(snd_nxt_);  // the first response starts the stream
}

PacketView FlowMimic::view(const net::CapturedPacket& cp) const {
  // The one ingest point: flooring here, and only here, is what makes the
  // quantization-invariance guarantee structural rather than per-site.
  return {floor_to(cp.timestamp, config_.ts_quantum),
          cp.tcp.seq,
          cp.tcp.ack,
          cp.payload_len,
          cp.tcp.window,
          cp.tcp.flags,
          cp.key == meta_.server_to_client,
          cp.tcp.sack_blocks,
          cp.truncated};
}

SegMimic* FlowMimic::find_seg(net::Seq32 seq) {
  // Segments are sorted by start; binary search for the containing one.
  auto it = std::upper_bound(
      segs_.begin(), segs_.end(), seq,
      [](net::Seq32 s, const SegMimic& seg) { return net::before(s, seg.start); });
  if (it == segs_.begin()) return nullptr;
  --it;
  return net::seq_in_range(seq, it->start, it->end) ? &*it : nullptr;
}

bool FlowMimic::is_capture_dup(const PacketView& a,
                               const PacketView& b) const {
  // Identical header (direction, seq/ack, length, window, flags, SACKs)
  // within dup_window of each other. A retransmission repeats seq but
  // arrives at least an RTT later; capture duplicates arrive back to back
  // (same timestamp for mirror ports), so the window separates the two.
  if (a.from_server != b.from_server || a.seq != b.seq || a.ack != b.ack ||
      a.payload != b.payload || a.window != b.window ||
      !(a.flags == b.flags) ||
      !std::equal(a.sacks.begin(), a.sacks.end(), b.sacks.begin(),
                  b.sacks.end())) {
    return false;
  }
  const Duration d = b.ts >= a.ts ? b.ts - a.ts : a.ts - b.ts;
  return d <= config_.dup_window;
}

std::uint32_t FlowMimic::packets_out() const {
  std::uint32_t n = 0;
  for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
    if (!segs_[i].acked) ++n;
  }
  return n;
}

std::uint32_t FlowMimic::in_flight() const {
  // Eq. 1: packets_out + retrans_out - (sacked_out + lost_out).
  std::uint32_t out = 0, retrans = 0, sacked = 0, lost = 0;
  for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
    const SegMimic& s = segs_[i];
    if (s.acked) continue;
    ++out;
    if (s.retrans_pending) ++retrans;
    if (s.sacked) ++sacked;
    if (s.lost_est) ++lost;
  }
  const std::uint32_t gone = sacked + lost;
  const std::uint32_t total = out + retrans;
  return total > gone ? total - gone : 0;
}

void FlowMimic::mark_lost_by_sack() {
  std::uint32_t sacked_above = 0;
  for (std::size_t i = segs_.size(); i-- > first_unacked_idx_;) {
    SegMimic& s = segs_[i];
    if (s.acked) break;
    if (s.sacked) {
      ++sacked_above;
    } else if (!s.lost_est && sacked_above >= config_.dupthres) {
      s.lost_est = true;
      s.retrans_pending = false;
    }
  }
}

void FlowMimic::snapshot(PktAnno& a) const {
  a.state = state_;
  a.in_flight = in_flight();
  a.outstanding = packets_out();
  a.cwnd_est = cwnd_est_;
  a.rwnd_scaled = rwnd_scaled_;
  a.has_srtt = rto_.has_sample();
  a.srtt = rto_.srtt();
  a.rto = rto_.rto();
  a.established = established_;
}

void FlowMimic::add_segment(net::Seq32 start, net::Seq32 end, TimePoint ts,
                            bool inferred) {
  SegMimic seg;
  seg.start = start;
  seg.end = end;
  seg.first_tx = seg.last_tx = ts;
  seg.inferred = inferred;
  segs_.push_back(seg);
}

void FlowMimic::process_server_packet(const PacketView& p, PktAnno& a) {
  const std::uint32_t eff_len = p.payload + (p.flags.fin ? 1u : 0u);
  if (p.flags.syn) {
    synack_ts_ = p.ts;
    saw_synack_ = true;
    return;
  }
  if (eff_len == 0) return;  // pure ACK

  a.server_data = true;
  ++out_.data_segments;
  const net::Seq32 end = p.seq + eff_len;

  if (net::at_or_after(p.seq, snd_nxt_)) {
    if (net::after(p.seq, snd_nxt_)) {
      // Capture gap: the server must have sent [snd_nxt_, p.seq) for this
      // packet to exist, but the capture never recorded it (kernel capture
      // drop). Track an inferred segment so ACK/SACK bookkeeping stays
      // consistent; it never yields RTT samples, and a later
      // "retransmission" of it demotes its stall to kUndetermined.
      add_segment(snd_nxt_, p.seq, p.ts, /*inferred=*/true);
      ++out_.capture.seq_gaps;
      out_.capture.gap_bytes += net::distance(snd_nxt_, p.seq);
    }
    // New data.
    a.seg_idx = static_cast<int>(segs_.size());
    add_segment(p.seq, end, p.ts, /*inferred=*/false);
    snd_nxt_ = end;
    return;
  }

  // Retransmission — or a late record filling an inferred capture gap.
  SegMimic* seg = find_seg(p.seq);
  if (seg == nullptr) return;  // overlap we cannot attribute
  a.seg_idx = static_cast<int>(seg - segs_.data());
  if (seg->inferred && seg->start == p.seq && seg->end == end) {
    // Local capture reordering, not a retransmission: the record for
    // exactly these bytes arrived one slot late. Adopt it as the original
    // transmission and un-count the gap.
    seg->inferred = false;
    seg->last_tx = p.ts;
    if (seg->tx_count == 1) seg->first_tx = p.ts;
    --out_.capture.seq_gaps;
    out_.capture.gap_bytes -= seg->len();
    return;
  }
  a.is_retrans = true;
  ++out_.retrans_segments;
  a.prior_retrans = static_cast<int>(seg->tx_count) - 1;
  if (seg->inferred) a.capture_suspect = true;

  const Duration elapsed = p.ts - seg->last_tx;
  const Duration rto_now = rto_.rto();
  bool is_rto;
  if (dupacks_ >= config_.dupthres && elapsed < rto_now) {
    is_rto = false;  // enough dupacks and before the timer: fast retransmit
  } else {
    is_rto = elapsed >= rto_now * config_.rto_fraction;
  }
  a.is_timeout_retrans = is_rto;
  a.first_retrans_was_rto = seg->first_retrans_was_rto;

  if (seg->tx_count == 1) seg->first_retrans_was_rto = is_rto;
  seg->early_max_tx = seg->latest_tx();
  seg->last_tx = p.ts;
  if (seg->tx_count != std::numeric_limits<std::uint16_t>::max()) {
    ++seg->tx_count;
  }
  seg->retrans_pending = true;

  if (is_rto) {
    ++out_.timeout_retrans;
    // The observed inter-transmission gap IS the timer that fired,
    // including any exponential backoff.
    out_.rto_at_timeout_us.push_back(static_cast<double>(elapsed.us()));
    if (state_ != tcp::CaState::kLoss) {
      ssthresh_est_ = std::max<std::uint32_t>(cwnd_est_ / 2, 2);
    }
    state_ = tcp::CaState::kLoss;
    high_seq_est_ = snd_nxt_;
    cwnd_est_ = 1;
    dupacks_ = 0;
    for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
      SegMimic& s = segs_[i];
      if (!s.acked && !s.sacked) s.lost_est = true;
    }
    seg->lost_est = true;  // keep consistent (it is being retransmitted)
  } else {
    ++out_.fast_retrans;
    seg->lost_est = true;
    if (state_ != tcp::CaState::kRecovery && state_ != tcp::CaState::kLoss) {
      state_ = tcp::CaState::kRecovery;
      ssthresh_est_ = std::max<std::uint32_t>(cwnd_est_ / 2, 2);
      high_seq_est_ = snd_nxt_;
    }
  }
}

void FlowMimic::process_client_packet(const PacketView& p, PktAnno& a) {
  if (p.flags.syn) return;
  if (!established_) established_ = true;

  // Handshake RTT seed (SYN-ACK -> first client ACK), as the kernel does.
  if (saw_synack_ && !handshake_sampled_ && p.flags.ack) {
    handshake_sampled_ = true;
    const Duration rtt = p.ts - synack_ts_;
    rto_.sample(rtt);
    out_.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
  }

  rwnd_scaled_ = static_cast<std::uint32_t>(p.window) << meta_.client_wscale;
  if (rwnd_scaled_ == 0) out_.had_zero_rwnd = true;

  if (p.payload > 0) {
    a.is_request = true;
    // The next new server data starts a fresh response.
    if (head_seqs_.back() != snd_nxt_) head_seqs_.push_back(snd_nxt_);
  }

  if (!p.flags.ack) return;

  // DSACK detection (RFC 2883): leading block below the cumulative ACK or
  // contained in the second block.
  if (!p.sacks.empty()) {
    const auto& b0 = p.sacks[0];
    const bool below_ack = net::at_or_before(b0.end, p.ack);
    const bool inside_second =
        p.sacks.size() >= 2 &&
        net::at_or_after(b0.start, p.sacks[1].start) &&
        net::at_or_before(b0.end, p.sacks[1].end);
    if (below_ack || inside_second) {
      if (SegMimic* seg = find_seg(b0.start)) {
        if (!seg->dsacked && seg->tx_count > 1) {
          seg->dsacked = true;
          ++out_.spurious_retrans;
        }
      }
    }
  }

  // SACK application (blocks above snd_una).
  for (const auto& b : p.sacks) {
    if (net::at_or_before(b.end, snd_una_)) continue;
    for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
      SegMimic& s = segs_[i];
      if (s.acked || s.sacked) continue;
      if (net::at_or_after(s.start, b.start) &&
          net::at_or_before(s.end, b.end)) {
        s.sacked = true;
        s.sacked_time = std::min(s.sacked_time, p.ts);
        s.lost_est = false;
        s.retrans_pending = false;
        if (s.tx_count == 1 && !s.inferred) {
          // SACK-time RTT sample, mirroring the sender.
          const Duration rtt = p.ts - s.first_tx;
          rto_.sample(rtt);
          out_.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
        }
      }
    }
  }

  const bool ack_advanced = net::after(p.ack, snd_una_);
  std::uint32_t n_acked = 0;
  if (ack_advanced) {
    // Karn's rule + newest-candidate sampling, mirroring the sender.
    TimePoint newest;
    bool have = false;
    for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
      SegMimic& s = segs_[i];
      if (net::after(s.end, p.ack)) break;
      if (!s.acked) {
        s.acked = true;
        s.acked_time = p.ts;
        ++n_acked;
        if (s.tx_count == 1 && !s.sacked && !s.inferred &&
            (!have || s.first_tx > newest)) {
          newest = s.first_tx;
          have = true;
        }
      }
      first_unacked_idx_ = i + 1;
    }
    if (have) {
      const Duration rtt = p.ts - newest;
      rto_.sample(rtt);
      out_.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
    }
    snd_una_ = p.ack;
    dupacks_ = 0;
  } else if (p.payload == 0 && packets_out() > 0) {
    ++dupacks_;
  }

  // State transitions mirroring Fig. 4.
  switch (state_) {
    case tcp::CaState::kOpen:
    case tcp::CaState::kDisorder: {
      std::uint32_t sacked_out = 0;
      for (std::size_t i = first_unacked_idx_; i < segs_.size(); ++i) {
        if (!segs_[i].acked && segs_[i].sacked) ++sacked_out;
      }
      state_ = (dupacks_ > 0 || sacked_out > 0) ? tcp::CaState::kDisorder
                                                : tcp::CaState::kOpen;
      mark_lost_by_sack();
      if (ack_advanced) {
        // Window growth (Reno-like estimate).
        if (cwnd_est_ < ssthresh_est_) {
          cwnd_est_ += n_acked;
        } else {
          cwnd_credit_ += n_acked;
          if (cwnd_credit_ >= cwnd_est_ && cwnd_est_ > 0) {
            cwnd_credit_ -= cwnd_est_;
            ++cwnd_est_;
          }
        }
      }
      break;
    }
    case tcp::CaState::kRecovery: {
      mark_lost_by_sack();
      if (net::at_or_after(snd_una_, high_seq_est_)) {
        state_ = tcp::CaState::kOpen;
        cwnd_est_ = std::min(cwnd_est_, std::max<std::uint32_t>(ssthresh_est_, 2));
        dupacks_ = 0;
      } else if (++cwnd_credit_ % 2 == 0 && cwnd_est_ > ssthresh_est_) {
        --cwnd_est_;  // rate halving
      }
      break;
    }
    case tcp::CaState::kLoss: {
      if (ack_advanced) {
        if (cwnd_est_ < ssthresh_est_) cwnd_est_ += n_acked;
      }
      if (net::at_or_after(snd_una_, high_seq_est_)) {
        state_ = tcp::CaState::kOpen;
        dupacks_ = 0;
      }
      break;
    }
  }

  if (config_.sample_inflight_on_ack) {
    out_.inflight_on_ack.push_back(in_flight());
  }
  rto_sample_sum_us_ += static_cast<double>(rto_.rto().us());
  ++rto_sample_count_;
}

net::Seq32 FlowMimic::response_end_for(const SegMimic& seg) const {
  const auto it = std::upper_bound(head_seqs_.begin(), head_seqs_.end(),
                                   seg.start, net::SeqLess{});
  if (it != head_seqs_.end()) return *it;
  return snd_nxt_;  // final: end of everything the server sent
}

void FlowMimic::push(const net::CapturedPacket& cp) {
  const PacketView p = view(cp);
  PktAnno a;
  if (p.truncated) ++out_.capture.truncated_packets;
  if (config_.suppress_capture_dups && n_packets_ > 0 &&
      is_capture_dup(prev_view_, p)) {
    // Capture duplicate (mirror port / dual tap): the stack saw this
    // packet once. Carry the previous packet's state snapshot forward
    // without re-processing, so the copy adds no data, retransmission,
    // or request accounting.
    a = prev_anno_;
    a.server_data = false;
    a.is_retrans = false;
    a.is_timeout_retrans = false;
    a.is_request = false;
    a.seg_idx = -1;
    a.capture_suspect = false;
    ++out_.capture.dup_packets;
  } else {
    if (p.from_server) {
      process_server_packet(p, a);
    } else {
      process_client_packet(p, a);
    }
    snapshot(a);  // the state fields; the packet-specific ones are filled
  }

  // Stall detection: the gap since the previous packet against that
  // packet's min(tau*SRTT, RTO). Only the two annotations around a gap
  // that qualifies are kept.
  if (n_packets_ == 0) {
    first_ts_ = p.ts;
  } else if (prev_anno_.established && prev_anno_.has_srtt &&
             p.ts - last_ts_ > std::min(prev_anno_.srtt * config_.tau,
                                        prev_anno_.rto)) {
    candidates_.push_back({prev_anno_, a, last_ts_, p.ts, n_packets_});
  }
  prev_anno_ = a;
  last_ts_ = p.ts;
  if (config_.suppress_capture_dups) prev_view_ = p;
  ++n_packets_;
}

FlowAnalysis FlowMimic::finish() {
  FlowAnalysis& out = out_;
  out.key = meta_.server_to_client;
  // The first data-phase window, or the SYN's when the client never sent
  // a data-phase ACK.
  out.init_rwnd_bytes =
      meta_.init_rwnd_bytes != 0 ? meta_.init_rwnd_bytes : meta_.syn_window;
  out.init_rwnd_mss = meta_.mss ? out.init_rwnd_bytes / meta_.mss : 0;

  // Transfer-level metrics.
  if (n_packets_ > 0) out.transmission_time = last_ts_ - first_ts_;
  for (const auto& s : segs_) out.unique_bytes += s.len();
  out.avg_rtt_us = mean(out.rtt_samples_us);
  out.avg_rto_us = mean(out.rto_at_timeout_us);
  if (rto_sample_count_ > 0) {
    out.avg_rto_on_ack_us =
        rto_sample_sum_us_ / static_cast<double>(rto_sample_count_);
  }

  out.stalls.reserve(candidates_.size());
  for (const StallCandidate& c : candidates_) {
    StallRecord rec = classify_stall(c);
    if (rec.capture_suspect) ++out.capture.suspect_stalls;
    out.stalled_time += rec.duration;
    record_stall(rec);
    out.stalls.push_back(rec);
  }
  if (out.transmission_time > Duration::zero()) {
    out.stall_ratio = out.stalled_time / out.transmission_time;
  }

  // Capture quality: drop-rate estimate + deterministic confidence score.
  CaptureQuality& q = out.capture;
  if (out.unique_bytes > 0) {
    q.est_drop_rate = std::min(1.0, static_cast<double>(q.gap_bytes) /
                                        static_cast<double>(out.unique_bytes));
  }
  q.confidence = (1.0 - q.est_drop_rate) * (q.mid_stream ? 0.5 : 1.0) *
                 (q.truncated_packets > 0 ? 0.9 : 1.0);
  record_capture_quality(q);

  // Average speed over the *active* data phase: first payload transmission
  // to flow end, minus stalled time — i.e. the transfer rate the service
  // delivers while actually moving data.
  if (!segs_.empty()) {
    const Duration data_phase = last_ts_ - segs_.front().first_tx;
    // Stalls that straddle the start of the data phase (e.g. a back-end
    // fetch ending in the first data packet) can push `active` to zero;
    // fall back to the raw data-phase rate then.
    Duration active = data_phase - out.stalled_time;
    if (active <= Duration::zero()) active = data_phase;
    if (active > Duration::zero()) {
      out.avg_speed_Bps = static_cast<double>(out.unique_bytes) / active.sec();
    }
  }
  return std::move(out_);
}

std::size_t FlowMimic::capacity_bytes(bool after_push) const {
  // One packet adds at most a gap segment and a segment, one candidate,
  // one response head, and one sample of each kind (a SACK covering many
  // segments can add more RTT samples; the charge after the push catches
  // those up).
  const std::size_t k = after_push ? 1 : 0;
  return bytes(segs_, 2 * k) + bytes(candidates_, k) + bytes(head_seqs_, k) +
         bytes(out_.rtt_samples_us, k) + bytes(out_.rto_at_timeout_us, k) +
         bytes(out_.inflight_on_ack, k);
}

StallRecord FlowMimic::classify_stall(const StallCandidate& c) const {
  const PktAnno& prev = c.prev;
  const PktAnno& cur = c.cur;
  StallRecord rec;
  rec.start = c.start;
  rec.end = c.end;
  rec.duration = rec.end - rec.start;
  rec.state_at_stall = prev.state;
  rec.in_flight = prev.in_flight;
  rec.cur_pkt_index = c.cur_pkt_index;
  if (cur.seg_idx >= 0 && !segs_.empty()) {
    rec.rel_position = static_cast<double>(cur.seg_idx) /
                       static_cast<double>(segs_.size());
  }

  if (cur.server_data && cur.is_retrans) {
    if (cur.capture_suspect) {
      // The "retransmission" covers bytes whose original transmission the
      // capture never recorded; genuine loss and a capture drop of the
      // first copy are indistinguishable, so no cause can be asserted.
      rec.cause = StallCause::kUndetermined;
      rec.capture_suspect = true;
      return rec;
    }
    if (cur.is_timeout_retrans) {
      rec.cause = StallCause::kRetransmission;
      bool f_double = false;
      rec.retrans_cause = classify_retrans(prev, cur, rec.start, f_double);
      rec.f_double = f_double;
    } else {
      // A fast retransmit after a long gap: the network delayed the dupacks
      // or data; no timeout fired.
      rec.cause = StallCause::kPacketDelay;
    }
    return rec;
  }

  if (prev.rwnd_scaled == 0) {
    rec.cause = StallCause::kZeroWindow;
    return rec;
  }

  if (cur.is_request && prev.outstanding == 0) {
    rec.cause = StallCause::kClientIdle;
    return rec;
  }

  if (cur.server_data && !cur.is_retrans && cur.seg_idx >= 0 &&
      prev.outstanding == 0) {
    // (seg_idx can be -1 for malformed traces where a transmission below
    // snd_nxt matches no tracked segment — those fall through.)
    const SegMimic& seg = segs_[static_cast<std::size_t>(cur.seg_idx)];
    rec.cause = std::binary_search(head_seqs_.begin(), head_seqs_.end(),
                                   seg.start, net::SeqLess{})
                    ? StallCause::kDataUnavailable
                    : StallCause::kResourceConstraint;
    if (rec.cause == StallCause::kDataUnavailable && out_.capture.mid_stream &&
        seg.start == stream_head_) {
      // The stream head is synthetic (mid-stream capture seed), not an
      // observed request boundary — a back-end fetch cannot be asserted.
      rec.cause = StallCause::kUndetermined;
      rec.capture_suspect = true;
    }
    return rec;
  }

  if (prev.outstanding > 0) {
    // Something was in flight and eventually showed up without any
    // retransmission: the network delayed data or ACKs.
    rec.cause = StallCause::kPacketDelay;
    return rec;
  }

  rec.cause = StallCause::kUndetermined;
  return rec;
}

RetransCause FlowMimic::classify_retrans(const PktAnno& prev,
                                        const PktAnno& cur,
                                        TimePoint stall_start,
                                        bool& f_double) const {
  const SegMimic& seg = segs_[static_cast<std::size_t>(cur.seg_idx)];

  // 1. Double retransmission: the segment had already been retransmitted
  //    before this timeout retransmission (§4.1).
  if (cur.prior_retrans >= 1) {
    f_double = !cur.first_retrans_was_rto;
    return RetransCause::kDoubleRetrans;
  }

  // The tail / small-window / continuous-loss rules all describe *genuine
  // loss* scenarios. A DSACK for this segment proves the data arrived and
  // only the feedback path failed, so those rules do not apply (§4.3:
  // "segments are identified as not lost through DSACK").
  const bool genuinely_lost = !seg.dsacked;

  // 2. Tail retransmission: the segment sits at the end of its response
  //    (within dupthres segments of the response boundary), so the receiver
  //    cannot generate enough dupacks (§4.2).
  const net::Seq32 resp_end = response_end_for(seg);
  const std::uint32_t tail_zone =
      config_.dupthres * static_cast<std::uint32_t>(meta_.mss);
  if (genuinely_lost && net::distance(seg.end, resp_end) < tail_zone) {
    return RetransCause::kTailRetrans;
  }

  // 3/4. Small in-flight: fast retransmit cannot trigger (< 4 MSS, §4.3);
  //      attribute to whichever of cwnd / rwnd was the limit.
  if (genuinely_lost && prev.in_flight < config_.small_inflight) {
    const std::uint64_t cwnd_bytes =
        static_cast<std::uint64_t>(prev.cwnd_est) * meta_.mss;
    if (cwnd_bytes <= prev.rwnd_scaled) return RetransCause::kSmallCwnd;
    return RetransCause::kSmallRwnd;
  }

  // 5. Continuous loss: every outstanding packet in the window was lost
  //    (>= 4 outstanding, §4.3). Look ahead: each segment outstanding and
  //    unSACKed at stall start was retransmitted later (or never delivered).
  std::uint32_t outstanding = 0;
  bool all_lost = true;
  for (const auto& s : segs_) {
    if (s.first_tx > stall_start) continue;           // sent after the stall
    if (s.acked_time <= stall_start) continue;        // already acked
    if (s.sacked_time <= stall_start) continue;       // already sacked
    ++outstanding;
    const bool retransmitted_after = s.latest_tx() > stall_start;
    const bool never_delivered = s.acked_time == TimePoint::max() &&
                                 s.sacked_time == TimePoint::max();
    if (!retransmitted_after && !never_delivered) {
      all_lost = false;
    }
  }
  if (genuinely_lost && outstanding >= 4 && all_lost) {
    return RetransCause::kContinuousLoss;
  }

  // 6. ACK delay/loss: DSACK proves the data arrived — only the feedback
  //    path failed (§4.3).
  if (seg.dsacked) return RetransCause::kAckDelayLoss;

  return RetransCause::kUndetermined;
}

Analyzer::Analyzer(AnalyzerConfig config) : config_(config) {
  config_.validate();
}

FlowAnalysis Analyzer::analyze_flow(const FlowView& view) const {
  FlowMimic mimic(view, config_);
  for (const net::CapturedPacket& cp : view.packets) mimic.push(cp);
  return mimic.finish();
}

AnalysisResult Analyzer::analyze(const net::PacketTrace& trace,
                                 const DemuxOptions& demux) const {
  // Batch over the streaming engine: every packet goes through an
  // unbounded LiveAnalyzer (no timeouts, no caps — nothing finalizes until
  // flush, so every flow is analyzed whole and each connection has exactly
  // one entry). Entries are numbered densely in creation order, so each
  // analysis lands at its first-packet position without a sort.
  LiveConfig live_config;
  live_config.with_analyzer(config_)
      .with_demux(demux)
      .with_idle_timeout(Duration::max())
      .with_fin_linger(Duration::max())
      .with_max_flows(std::numeric_limits<std::size_t>::max())
      .with_max_packets_per_flow(std::numeric_limits<std::size_t>::max());

  AnalysisResult result;
  const LiveAnalyzer* live_ptr = nullptr;
  LiveAnalyzer live(live_config, LiveAnalyzer::FlowDoneFn(
      [&result, &live_ptr](FlowAnalysis&& fa) {
        const std::size_t at = live_ptr->delivering_flow_ordinal();
        if (at >= result.flows.size()) result.flows.resize(at + 1);
        result.flows[at] = std::move(fa);
      }));
  live_ptr = &live;
  for (const net::CapturedPacket& pkt : trace.packets()) live.add_packet(pkt);
  live.flush();
  return result;
}

}  // namespace tapo::analysis
