#include "tapo/analyzer.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

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
  if (!(t > 0.0)) {
    throw std::invalid_argument("AnalyzerConfig: tau must be > 0, got " +
                                std::to_string(t));
  }
  tau = t;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_dupthres(std::uint32_t n) {
  if (n == 0) {
    throw std::invalid_argument(
        "AnalyzerConfig: dupthres must be > 0 (zero would classify every "
        "retransmission as fast)");
  }
  dupthres = n;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_small_inflight(std::uint32_t n) {
  if (n == 0) {
    throw std::invalid_argument(
        "AnalyzerConfig: small_inflight must be > 0");
  }
  small_inflight = n;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_rto(const tcp::RtoConfig& cfg) {
  rto = cfg;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_rto_fraction(double f) {
  // Values above 1 are legitimate (stricter timeout attribution: the
  // segment must have been quiet for more than a full RTO).
  if (!(f > 0.0)) {
    throw std::invalid_argument(
        "AnalyzerConfig: rto_fraction must be > 0, got " + std::to_string(f));
  }
  rto_fraction = f;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_inflight_sampling(bool on) {
  sample_inflight_on_ack = on;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_dup_window(Duration w) {
  if (w < Duration::zero()) {
    throw std::invalid_argument("AnalyzerConfig: dup_window must be >= 0");
  }
  dup_window = w;
  suppress_capture_dups = true;
  return *this;
}

AnalyzerConfig& AnalyzerConfig::with_ts_quantum(Duration q) {
  if (q < Duration::zero()) {
    throw std::invalid_argument("AnalyzerConfig: ts_quantum must be >= 0");
  }
  ts_quantum = q;
  return *this;
}

void AnalyzerConfig::validate() const {
  if (!(tau > 0.0)) {
    throw std::invalid_argument("AnalyzerConfig: tau must be > 0");
  }
  if (dupthres == 0) {
    throw std::invalid_argument("AnalyzerConfig: dupthres must be > 0");
  }
  if (small_inflight == 0) {
    throw std::invalid_argument("AnalyzerConfig: small_inflight must be > 0");
  }
  if (!(rto_fraction > 0.0)) {
    throw std::invalid_argument("AnalyzerConfig: rto_fraction must be > 0");
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

/// Per-segment state reconstructed by the mimic. Segments persist for the
/// whole analysis (never popped) so stall classification can look ahead.
struct SegMimic {
  net::Seq32 start;
  net::Seq32 end;
  std::size_t index = 0;  // ordinal among unique data segments
  std::vector<TimePoint> tx_times;
  TimePoint acked_time = TimePoint::max();
  TimePoint sacked_time = TimePoint::max();
  bool first_retrans_was_rto = false;
  bool rto_retransmitted = false;
  bool fast_retransmitted = false;
  bool dsacked = false;
  /// Synthesized for a server-side sequence gap: the capture never recorded
  /// the original transmission of these bytes. Never yields RTT samples;
  /// "retransmissions" of it demote their stall to kUndetermined.
  bool inferred = false;
  // Live flags during the walk (scoreboard mirror).
  bool acked = false;
  bool sacked = false;
  bool lost_est = false;
  bool retrans_pending = false;

  std::uint32_t len() const { return net::distance(start, end); }
  int transmissions() const { return static_cast<int>(tx_times.size()); }
};

/// Per-packet snapshot written during the mimic walk (pass 1) and consumed
/// by the stall detector/classifier (pass 2).
struct PktAnno {
  tcp::CaState state = tcp::CaState::kOpen;
  std::uint32_t in_flight = 0;
  std::uint32_t outstanding = 0;  // packets_out
  std::uint32_t cwnd_est = 0;
  std::uint32_t rwnd_scaled = 0;
  bool has_srtt = false;
  Duration srtt;
  Duration rto;
  bool established = false;

  bool server_data = false;
  bool is_retrans = false;
  bool is_timeout_retrans = false;
  int prior_retrans = 0;
  bool first_retrans_was_rto = false;
  int seg_idx = -1;
  bool is_request = false;
  /// This packet's evidence overlaps a capture artifact (retransmission of
  /// an inferred gap segment): cause classification cannot be trusted.
  bool capture_suspect = false;
};

/// The one packet shape the mimic understands: a CapturedPacket lowered to
/// the fields the mimic reads, with direction resolved against the flow's
/// orientation key. Stack data plus a borrowed SACK span.
struct PacketView {
  TimePoint ts;
  net::Seq32 seq;
  net::Seq32 ack;
  std::uint32_t payload = 0;
  std::uint16_t window = 0;
  net::TcpFlags flags;
  bool from_server = false;
  std::span<const net::SackBlock> sacks;
  bool truncated = false;  // snaplen cut this record's options
};

/// The TCP-stack mimic + stall classifier over one flow's packets, read in
/// place from the arena the FlowView borrows.
class FlowMimic {
 public:
  FlowMimic(const FlowView& view, const AnalyzerConfig& config)
      : packets_(view.packets),
        meta_(view),
        config_(config),
        rto_(config.rto) {
    if (meta_.mid_stream) {
      // No handshake in the capture: seed sequence state from the first
      // server data packet and remember that this "stream head" is
      // synthetic — it is where the *capture* starts, not necessarily
      // where a response starts.
      snd_nxt_ = meta_.first_server_data_seq;
      quality_.mid_stream = true;
    } else {
      snd_nxt_ = meta_.server_isn + 1;
    }
    snd_una_ = snd_nxt_;
    stream_head_ = snd_nxt_;
    head_seqs_.insert(snd_nxt_);  // the first response starts the stream
  }

  void run(FlowAnalysis& out);

 private:
  /// The one packet accessor the mimic uses: packet i lowered to a
  /// PacketView with its timestamp floored to config ts_quantum (identity
  /// when the quantum is off). Keeping this the single ingest point is what
  /// makes the quantization-invariance guarantee structural rather than
  /// per-site.
  PacketView pkt(std::size_t i) const {
    const net::CapturedPacket& cp = packets_[i];
    return {floor_to(cp.timestamp, config_.ts_quantum),
            cp.tcp.seq,
            cp.tcp.ack,
            cp.payload_len,
            cp.tcp.window,
            cp.tcp.flags,
            cp.key == meta_.server_to_client,
            cp.tcp.sack_blocks.span(),
            cp.truncated};
  }

  SegMimic* find_seg(net::Seq32 seq);
  bool is_capture_dup(const PacketView& a, const PacketView& b) const;
  std::uint32_t packets_out() const;
  std::uint32_t in_flight() const;
  void mark_lost_by_sack();
  void process_server_packet(const PacketView& p, PktAnno& a);
  void process_client_packet(const PacketView& p, PktAnno& a,
                             FlowAnalysis& out);
  void snapshot(PktAnno& a) const;
  void detect_and_classify(FlowAnalysis& out);
  StallRecord classify_stall(std::size_t prev_idx, std::size_t cur_idx) const;
  RetransCause classify_retrans(const PktAnno& prev, const PktAnno& cur,
                                TimePoint stall_start, bool& f_double) const;
  net::Seq32 response_end_for(const SegMimic& seg) const;

  const std::span<const net::CapturedPacket> packets_;
  const FlowMeta& meta_;
  const AnalyzerConfig& config_;
  tcp::RtoEstimator rto_;

  std::vector<SegMimic> segs_;
  std::vector<PktAnno> annos_;
  // Response start sequences, serial-ordered: per-flow values span far
  // less than 2^31 bytes, so SeqLess is a strict weak ordering here.
  std::set<net::Seq32, net::SeqLess> head_seqs_;

  net::Seq32 snd_una_;
  net::Seq32 snd_nxt_;
  net::Seq32 stream_head_;  // initial snd_nxt_ (synthetic when mid-stream)
  std::size_t first_unacked_idx_ = 0;  // index into segs_ (monotone)
  CaptureQuality quality_;

  tcp::CaState state_ = tcp::CaState::kOpen;
  std::uint32_t cwnd_est_ = 3;
  std::uint32_t ssthresh_est_ = 0x7fffffff;
  std::uint32_t cwnd_credit_ = 0;
  std::uint32_t dupacks_ = 0;
  net::Seq32 high_seq_est_;
  std::uint32_t rwnd_scaled_ = 0xffffffff;
  bool established_ = false;
  TimePoint synack_ts_;
  bool saw_synack_ = false;
  bool handshake_sampled_ = false;

  double rto_sample_sum_us_ = 0.0;
  std::uint64_t rto_sample_count_ = 0;
};

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
      !(a.flags == b.flags)) {
    return false;
  }
  if (a.sacks.size() != b.sacks.size()) return false;
  for (std::size_t i = 0; i < a.sacks.size(); ++i) {
    if (!(a.sacks[i] == b.sacks[i])) return false;
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

void FlowMimic::process_server_packet(const PacketView& p, PktAnno& a) {
  const std::uint32_t eff_len = p.payload + (p.flags.fin ? 1u : 0u);
  if (p.flags.syn) {
    synack_ts_ = p.ts;
    saw_synack_ = true;
    return;
  }
  if (eff_len == 0) return;  // pure ACK

  a.server_data = true;
  const net::Seq32 end = p.seq + eff_len;

  if (net::at_or_after(p.seq, snd_nxt_)) {
    if (net::after(p.seq, snd_nxt_)) {
      // Capture gap: the server must have sent [snd_nxt_, p.seq) for this
      // packet to exist, but the capture never recorded it (kernel capture
      // drop). Track an inferred segment so ACK/SACK bookkeeping stays
      // consistent; it never yields RTT samples, and a later
      // "retransmission" of it demotes its stall to kUndetermined.
      SegMimic gap;
      gap.start = snd_nxt_;
      gap.end = p.seq;
      gap.index = segs_.size();
      gap.tx_times.push_back(p.ts);
      gap.inferred = true;
      segs_.push_back(std::move(gap));
      ++quality_.seq_gaps;
      quality_.gap_bytes += net::distance(snd_nxt_, p.seq);
    }
    // New data.
    SegMimic seg;
    seg.start = p.seq;
    seg.end = end;
    seg.index = segs_.size();
    seg.tx_times.push_back(p.ts);
    a.seg_idx = static_cast<int>(seg.index);
    segs_.push_back(std::move(seg));
    snd_nxt_ = end;
    return;
  }

  // Retransmission — or a late record filling an inferred capture gap.
  SegMimic* seg = find_seg(p.seq);
  if (seg == nullptr) return;  // overlap we cannot attribute
  if (seg->inferred && seg->start == p.seq && seg->end == end) {
    // Local capture reordering, not a retransmission: the record for
    // exactly these bytes arrived one slot late. Adopt it as the original
    // transmission and un-count the gap.
    seg->inferred = false;
    seg->tx_times.back() = p.ts;
    a.seg_idx = static_cast<int>(seg->index);
    --quality_.seq_gaps;
    quality_.gap_bytes -= seg->len();
    return;
  }
  a.is_retrans = true;
  a.seg_idx = static_cast<int>(seg->index);
  a.prior_retrans = seg->transmissions() - 1;
  if (seg->inferred) a.capture_suspect = true;

  const Duration elapsed = p.ts - seg->tx_times.back();
  const Duration rto_now = rto_.rto();
  bool is_rto;
  if (dupacks_ >= config_.dupthres && elapsed < rto_now) {
    is_rto = false;  // enough dupacks and before the timer: fast retransmit
  } else {
    is_rto = elapsed >= rto_now * config_.rto_fraction;
  }
  a.is_timeout_retrans = is_rto;
  a.first_retrans_was_rto = seg->first_retrans_was_rto;

  if (seg->transmissions() == 1) seg->first_retrans_was_rto = is_rto;
  seg->tx_times.push_back(p.ts);
  seg->retrans_pending = true;

  if (is_rto) {
    seg->rto_retransmitted = true;
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
    seg->fast_retransmitted = true;
    seg->lost_est = true;
    if (state_ != tcp::CaState::kRecovery && state_ != tcp::CaState::kLoss) {
      state_ = tcp::CaState::kRecovery;
      ssthresh_est_ = std::max<std::uint32_t>(cwnd_est_ / 2, 2);
      high_seq_est_ = snd_nxt_;
    }
  }
}

void FlowMimic::process_client_packet(const PacketView& p, PktAnno& a,
                                      FlowAnalysis& out) {
  if (p.flags.syn) return;
  if (!established_) established_ = true;

  // Handshake RTT seed (SYN-ACK -> first client ACK), as the kernel does.
  if (saw_synack_ && !handshake_sampled_ && p.flags.ack) {
    handshake_sampled_ = true;
    const Duration rtt = p.ts - synack_ts_;
    rto_.sample(rtt);
    out.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
  }

  rwnd_scaled_ = static_cast<std::uint32_t>(p.window) << meta_.client_wscale;
  if (rwnd_scaled_ == 0) out.had_zero_rwnd = true;

  if (p.payload > 0) {
    a.is_request = true;
    // The next new server data starts a fresh response.
    head_seqs_.insert(snd_nxt_);
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
        if (!seg->dsacked && seg->transmissions() > 1) {
          seg->dsacked = true;
          ++out.spurious_retrans;
        }
      }
    }
  }

  // SACK application (blocks above snd_una).
  std::uint32_t newly_sacked = 0;
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
        ++newly_sacked;
        if (s.transmissions() == 1 && !s.inferred) {
          // SACK-time RTT sample, mirroring the sender.
          const Duration rtt = p.ts - s.tx_times.front();
          rto_.sample(rtt);
          out.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
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
        if (s.transmissions() == 1 && !s.sacked && !s.inferred &&
            (!have || s.tx_times.front() > newest)) {
          newest = s.tx_times.front();
          have = true;
        }
      }
      first_unacked_idx_ = i + 1;
    }
    if (have) {
      const Duration rtt = p.ts - newest;
      rto_.sample(rtt);
      out.rtt_samples_us.push_back(static_cast<double>(rtt.us()));
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
    out.inflight_on_ack.push_back(in_flight());
  }
  rto_sample_sum_us_ += static_cast<double>(rto_.rto().us());
  ++rto_sample_count_;
  (void)newly_sacked;
}

net::Seq32 FlowMimic::response_end_for(const SegMimic& seg) const {
  auto it = head_seqs_.upper_bound(seg.start);
  if (it != head_seqs_.end()) return *it;
  return snd_nxt_;  // final: end of everything the server sent
}

void FlowMimic::run(FlowAnalysis& out) {
  out.key = meta_.server_to_client;
  out.init_rwnd_bytes = meta_.init_rwnd_bytes;
  out.init_rwnd_mss = meta_.mss ? meta_.init_rwnd_bytes / meta_.mss : 0;

  annos_.resize(packets_.size());
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    const PacketView p = pkt(i);
    PktAnno& a = annos_[i];
    if (p.truncated) ++quality_.truncated_packets;
    if (config_.suppress_capture_dups && i > 0 &&
        is_capture_dup(pkt(i - 1), p)) {
      // Capture duplicate (mirror port / dual tap): the stack saw this
      // packet once. Carry the previous packet's state snapshot forward
      // without re-processing, so the copy adds no data, retransmission,
      // or request accounting.
      a = annos_[i - 1];
      a.server_data = false;
      a.is_retrans = false;
      a.is_timeout_retrans = false;
      a.is_request = false;
      a.seg_idx = -1;
      a.capture_suspect = false;
      ++quality_.dup_packets;
      continue;
    }
    if (p.from_server) {
      process_server_packet(p, a);
      if (a.server_data) {
        ++out.data_segments;
        if (a.is_retrans) {
          ++out.retrans_segments;
          if (a.is_timeout_retrans) {
            ++out.timeout_retrans;
            // The observed inter-transmission gap IS the timer that fired,
            // including any exponential backoff.
            const auto& seg = segs_[static_cast<std::size_t>(a.seg_idx)];
            const auto n = seg.tx_times.size();
            const Duration fired =
                seg.tx_times[n - 1] - seg.tx_times[n - 2];
            out.rto_at_timeout_us.push_back(static_cast<double>(fired.us()));
          } else {
            ++out.fast_retrans;
          }
        }
      }
    } else {
      process_client_packet(p, a, out);
    }
    snapshot(a);
    // The packet-specific fields were filled before snapshot; snapshot only
    // fills the state fields.
  }

  // Transfer-level metrics.
  if (packets_.size() > 0) {
    out.transmission_time =
        pkt(packets_.size() - 1).ts - pkt(0).ts;
  }
  for (const auto& s : segs_) out.unique_bytes += s.len();
  if (!out.rtt_samples_us.empty()) {
    double sum = 0;
    for (double r : out.rtt_samples_us) sum += r;
    out.avg_rtt_us = sum / static_cast<double>(out.rtt_samples_us.size());
  }
  if (rto_sample_count_ > 0) {
    out.avg_rto_on_ack_us =
        rto_sample_sum_us_ / static_cast<double>(rto_sample_count_);
  }
  if (!out.rto_at_timeout_us.empty()) {
    double sum = 0;
    for (double r : out.rto_at_timeout_us) sum += r;
    out.avg_rto_us = sum / static_cast<double>(out.rto_at_timeout_us.size());
  }

  detect_and_classify(out);

  // Capture quality: drop-rate estimate + deterministic confidence score.
  if (out.unique_bytes > 0) {
    quality_.est_drop_rate =
        std::min(1.0, static_cast<double>(quality_.gap_bytes) /
                          static_cast<double>(out.unique_bytes));
  }
  quality_.confidence = (1.0 - quality_.est_drop_rate) *
                        (quality_.mid_stream ? 0.5 : 1.0) *
                        (quality_.truncated_packets > 0 ? 0.9 : 1.0);
  out.capture = quality_;
  record_capture_quality(quality_);

  // Average speed over the *active* data phase: first payload transmission
  // to flow end, minus stalled time — i.e. the transfer rate the service
  // delivers while actually moving data.
  if (!segs_.empty() && packets_.size() > 0) {
    const Duration data_phase =
        pkt(packets_.size() - 1).ts - segs_.front().tx_times.front();
    // Stalls that straddle the start of the data phase (e.g. a back-end
    // fetch ending in the first data packet) can push `active` to zero;
    // fall back to the raw data-phase rate then.
    Duration active = data_phase - out.stalled_time;
    if (active <= Duration::zero()) active = data_phase;
    if (active > Duration::zero()) {
      out.avg_speed_Bps = static_cast<double>(out.unique_bytes) / active.sec();
    }
  }
}

void FlowMimic::detect_and_classify(FlowAnalysis& out) {
  if (packets_.size() == 0) return;
  TimePoint prev_ts = pkt(0).ts;
  for (std::size_t i = 0; i + 1 < packets_.size(); ++i) {
    const TimePoint cur_ts = pkt(i + 1).ts;
    const Duration gap = cur_ts - prev_ts;
    prev_ts = cur_ts;
    const PktAnno& prev = annos_[i];
    if (!prev.established || !prev.has_srtt) continue;
    const Duration thresh = std::min(prev.srtt * config_.tau, prev.rto);
    if (gap <= thresh) continue;

    StallRecord rec = classify_stall(i, i + 1);
    if (rec.capture_suspect) ++quality_.suspect_stalls;
    out.stalled_time += rec.duration;
    record_stall(rec);
    out.stalls.push_back(rec);
  }
  if (out.transmission_time > Duration::zero()) {
    out.stall_ratio = out.stalled_time / out.transmission_time;
  }
}

StallRecord FlowMimic::classify_stall(std::size_t prev_idx,
                                      std::size_t cur_idx) const {
  const PktAnno& prev = annos_[prev_idx];
  const PktAnno& cur = annos_[cur_idx];
  StallRecord rec;
  rec.start = pkt(prev_idx).ts;
  rec.end = pkt(cur_idx).ts;
  rec.duration = rec.end - rec.start;
  rec.state_at_stall = prev.state;
  rec.in_flight = prev.in_flight;
  rec.cur_pkt_index = cur_idx;
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
    rec.cause = head_seqs_.count(seg.start)
                    ? StallCause::kDataUnavailable
                    : StallCause::kResourceConstraint;
    if (rec.cause == StallCause::kDataUnavailable && quality_.mid_stream &&
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
    if (s.tx_times.front() > stall_start) continue;   // sent after the stall
    if (s.acked_time <= stall_start) continue;        // already acked
    if (s.sacked_time <= stall_start) continue;       // already sacked
    ++outstanding;
    bool retransmitted_after = false;
    for (const TimePoint t : s.tx_times) {
      if (t > stall_start) {
        retransmitted_after = true;
        break;
      }
    }
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

}  // namespace

Analyzer::Analyzer(AnalyzerConfig config) : config_(config) {
  config_.validate();
}

FlowAnalysis Analyzer::analyze_flow(const FlowView& view) const {
  FlowAnalysis out;
  FlowMimic mimic(view, config_);
  mimic.run(out);
  return out;
}

AnalysisResult Analyzer::analyze(const net::PacketTrace& trace,
                                 const DemuxOptions& demux) const {
  // Batch over the streaming engine: every packet goes through an
  // unbounded LiveAnalyzer (no timeouts, no caps — nothing finalizes until
  // flush, so every flow is analyzed whole), then first-packet flow order,
  // which the LRU-driven flush does not preserve, is restored.
  LiveConfig live_config;
  live_config.with_analyzer(config_)
      .with_demux(demux)
      .with_idle_timeout(Duration::max())
      .with_fin_linger(Duration::max())
      .with_max_flows(std::numeric_limits<std::size_t>::max())
      .with_max_packets_per_flow(std::numeric_limits<std::size_t>::max());

  AnalysisResult result;
  LiveAnalyzer live(live_config, LiveAnalyzer::FlowDoneFn(
      [&result](const FlowAnalysis& fa) { result.flows.push_back(fa); }));
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> first_seen;
  for (const net::CapturedPacket& pkt : trace.packets()) {
    first_seen.try_emplace(pkt.key.canonical(), first_seen.size());
    live.add_packet(pkt);
  }
  live.flush();
  std::stable_sort(result.flows.begin(), result.flows.end(),
                   [&first_seen](const FlowAnalysis& a, const FlowAnalysis& b) {
                     return first_seen.at(a.key.canonical()) <
                            first_seen.at(b.key.canonical());
                   });
  return result;
}

}  // namespace tapo::analysis
