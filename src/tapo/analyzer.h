// TAPO: the paper's TCP stall diagnosis tool (§3).
//
// Per flow, the analyzer (1) mimics the server TCP stack from the trace to
// reconstruct the Table-2 parameters (congestion state, cwnd estimate,
// in_flight, sacked_out/lost_out, retransmission counts, SRTT/RTO per
// RFC 6298), (2) detects stalls — inter-packet gaps at the server larger
// than min(tau*SRTT, RTO), tau = 2 (§2.2) — and (3) classifies each stall's
// root cause with the Fig.-5 decision tree, sub-classifying timeout-
// retransmission stalls in the Table-5 precedence order.
//
// Steps (1) and (2) are one push fold (FlowMimic::push) that keeps no
// packet history. Step (3) runs at FlowMimic::finish against the final
// segment state, its only look-ahead: it refines lost_out with DSACK
// evidence (spurious retransmissions) and resolves the loss-vs-delay
// ambiguity retrospectively (§3.3).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tapo/flow.h"
#include "tcp/rto.h"
#include "tcp/types.h"

namespace tapo::analysis {

/// Top-level stall causes (Table 3 rows).
enum class StallCause : std::uint8_t {
  kDataUnavailable,     // server: content fetched from back-end
  kResourceConstraint,  // server: app starved the socket mid-transfer
  kClientIdle,          // client: no request pending
  kZeroWindow,          // client: advertised rwnd hit zero
  kPacketDelay,         // network: delay without timeout retransmission
  kRetransmission,      // network: timeout retransmission
  kUndetermined,
};
constexpr std::size_t kNumStallCauses = 7;
const char* to_string(StallCause c);

/// Timeout-retransmission stall breakdown (Table 5 rows, in the paper's
/// examination order).
enum class RetransCause : std::uint8_t {
  kDoubleRetrans,
  kTailRetrans,
  kSmallCwnd,
  kSmallRwnd,
  kContinuousLoss,
  kAckDelayLoss,
  kUndetermined,
  kNone,  // stall is not a timeout-retransmission stall
};
constexpr std::size_t kNumRetransCauses = 7;  // excluding kNone
const char* to_string(RetransCause c);

struct StallRecord {
  TimePoint start;
  TimePoint end;
  Duration duration;
  StallCause cause = StallCause::kUndetermined;
  RetransCause retrans_cause = RetransCause::kNone;
  /// Double-retransmission split (Table 6): true when the *first*
  /// retransmission of the segment was a fast retransmit (f-double).
  bool f_double = false;
  /// Congestion-avoidance state when the stall began (Table 7).
  tcp::CaState state_at_stall = tcp::CaState::kOpen;
  /// Eq.-1 in-flight estimate when the stall began (Fig. 7b / 10b / 12).
  std::uint32_t in_flight = 0;
  /// Retransmitted packet index / data packets in flow (Fig. 7a / 10a).
  double rel_position = 0.0;
  /// Position, within its flow's packets in capture order (FlowView::
  /// packets), of the packet ending the stall.
  std::size_t cur_pkt_index = 0;
  /// The classifier demoted this stall to kUndetermined because capture
  /// artifacts (a sequence gap, a mid-stream start) made the cause
  /// evidence untrustworthy. Counted in CaptureQuality::suspect_stalls.
  bool capture_suspect = false;
};

/// Per-flow capture-trustworthiness record: what the analyzer inferred
/// about the *capture* (as opposed to the connection) while mimicking the
/// flow. Default-constructed values mean "pristine capture". Populated on
/// every analysis; the robustness harness (bench/robustness_stability.cc)
/// cross-checks these sums against the tapo_capture_artifacts_total
/// telemetry counters, which are incremented from the same sites.
struct CaptureQuality {
  /// Adjacent identical-header records suppressed as capture duplicates
  /// (mirror ports / dual taps), not counted as retransmissions.
  std::uint64_t dup_packets = 0;
  /// Server-side sequence gaps: data the server must have sent but the
  /// capture never recorded (kernel capture drops).
  std::uint64_t seq_gaps = 0;
  std::uint64_t gap_bytes = 0;
  /// Packets whose TCP options were cut by the snaplen (SACK blocks or
  /// timestamps possibly missing).
  std::uint64_t truncated_packets = 0;
  /// No handshake observed; sequence state was seeded from the first
  /// server data packet (rotated / mid-stream capture).
  bool mid_stream = false;
  /// Stalls demoted to StallCause::kUndetermined because artifacts made
  /// the evidence ambiguous (see StallRecord::capture_suspect).
  std::uint64_t suspect_stalls = 0;
  /// Estimated capture drop rate: gap_bytes / unique stream bytes.
  double est_drop_rate = 0.0;
  /// Deterministic trust score in (0, 1]:
  ///   (1 - est_drop_rate) * (mid_stream ? 0.5 : 1) * (truncated ? 0.9 : 1).
  double confidence = 1.0;

  /// Any artifact at all — the flow counts toward tapo_flows_degraded_total.
  bool degraded() const {
    return dup_packets != 0 || seq_gaps != 0 || truncated_packets != 0 ||
           mid_stream;
  }
};

struct FlowAnalysis {
  net::FlowKey key;
  // -- transfer level --
  Duration transmission_time;        // first to last packet
  std::uint64_t unique_bytes = 0;    // de-duplicated server payload
  std::uint64_t data_segments = 0;   // server data packets incl. retrans
  std::uint64_t retrans_segments = 0;
  double avg_speed_Bps = 0.0;
  // -- RTT / RTO --
  std::vector<double> rtt_samples_us;      // per non-retransmitted segment
  std::vector<double> rto_at_timeout_us;   // RTO at each timeout retrans
  double avg_rtt_us = 0.0;
  /// Mean RTO recorded at timeout retransmissions ("the RTO is recorded
  /// for each timeout retransmission", §2.1) — includes backoff. Zero when
  /// the flow had no timeouts.
  double avg_rto_us = 0.0;
  /// Mean RTO estimate sampled on every ACK (estimator state, no backoff).
  double avg_rto_on_ack_us = 0.0;
  // -- stalls --
  std::vector<StallRecord> stalls;
  Duration stalled_time;
  double stall_ratio = 0.0;  // stalled / transmission (Fig. 3)
  // -- receiver side --
  std::uint32_t init_rwnd_bytes = 0;
  std::uint32_t init_rwnd_mss = 0;
  bool had_zero_rwnd = false;
  // -- in-flight samples on every ACK (Fig. 11) --
  std::vector<std::uint32_t> inflight_on_ack;

  std::uint64_t timeout_retrans = 0;  // timeout retransmissions observed
  std::uint64_t fast_retrans = 0;
  std::uint64_t spurious_retrans = 0;  // DSACK-confirmed

  /// How much the capture itself can be trusted (default = pristine).
  CaptureQuality capture;
};

/// Applies `set` to a copy of `cfg`, validates the copy and commits it: a
/// fluent config setter either succeeds or throws std::invalid_argument
/// and leaves the config unchanged.
template <typename Config, typename Set>
Config& set_validated(Config& cfg, Set set) {
  Config next = cfg;
  set(next);
  next.validate();
  return cfg = next;
}

struct AnalyzerConfig {
  /// Stall threshold multiplier: gap > min(tau*SRTT, RTO).
  double tau = 2.0;
  std::uint32_t dupthres = 3;
  /// "Small" in-flight bound for the small-cwnd/rwnd rules (< 4 MSS, §4.3).
  std::uint32_t small_inflight = 4;
  /// RTO parameters matching the measured kernel.
  tcp::RtoConfig rto;
  /// A retransmission counts as timeout-driven when the segment had been
  /// quiet for at least this fraction of the estimated RTO.
  double rto_fraction = 0.9;
  /// Collect Fig.-11 in-flight samples (costs memory on big traces).
  bool sample_inflight_on_ack = true;
  /// Suppress adjacent identical-header records as capture duplicates
  /// (mirror ports / dual taps deliver both copies back to back). Off by
  /// default: even a pristine single-tap capture can legitimately contain
  /// back-to-back byte-identical pure ACKs (dupacks emitted in the same
  /// microsecond), which no analyzer can tell from a mirror copy — enable
  /// this only when the capture setup is known to duplicate. Enabling it
  /// is what makes dup-impaired captures classify identically to pristine
  /// ones (bench/robustness_stability.cc).
  bool suppress_capture_dups = false;
  /// With suppression on, records count as duplicates when their headers
  /// match and their timestamps differ by at most this much (0 = exact).
  Duration dup_window = Duration::zero();
  /// Declared capture-clock granularity: every packet timestamp is floored
  /// to a multiple of this before the mimic sees it (0 = off). Flooring is
  /// idempotent, so analysis at quantum q is *invariant* to capture-side
  /// timestamp quantization at any granularity dividing q — the pristine
  /// tap and the coarse-clock capture classify bit-identically
  /// (bench/robustness_stability.cc). Costs timing resolution: stall
  /// boundaries and RTT samples are only accurate to +-q.
  Duration ts_quantum = Duration::zero();

  // Fluent construction (aggregate-init keeps working); each checked
  // setter validates the result eagerly (set_validated) and throws
  // std::invalid_argument on a value the classifier cannot run with.
  AnalyzerConfig& with_tau(double t);                    // > 0
  AnalyzerConfig& with_dupthres(std::uint32_t n);        // > 0
  AnalyzerConfig& with_small_inflight(std::uint32_t n);  // > 0
  AnalyzerConfig& with_rto(const tcp::RtoConfig& cfg);
  AnalyzerConfig& with_rto_fraction(double f);           // > 0
  AnalyzerConfig& with_inflight_sampling(bool on);
  /// Enables duplicate suppression with the given window (>= 0).
  AnalyzerConfig& with_dup_window(Duration w);
  /// Sets the declared capture-clock granularity (>= 0; 0 disables).
  AnalyzerConfig& with_ts_quantum(Duration q);

  /// Throws std::invalid_argument on any out-of-range field. Called by the
  /// Analyzer constructor, so a bad config fails at construction, not as a
  /// silent misclassification deep in a run.
  void validate() const;
};

/// Per-segment state reconstructed by the mimic. Segments persist for the
/// whole flow (never popped): their final state is the classifier's
/// look-ahead. Transmission times are kept inline — first, last, and the
/// latest of those before the last — which answers every question the
/// classifier asks of them without a per-segment heap vector.
struct SegMimic {
  net::Seq32 start;
  net::Seq32 end;
  TimePoint first_tx;
  TimePoint last_tx;
  TimePoint early_max_tx;  // latest transmission before last_tx (tx_count > 1)
  TimePoint acked_time = TimePoint::max();
  TimePoint sacked_time = TimePoint::max();
  /// Transmissions, saturating: only "one" and "more than one" are read.
  std::uint16_t tx_count = 1;
  bool first_retrans_was_rto : 1 = false;
  bool dsacked : 1 = false;
  /// Synthesized for a server-side sequence gap: the capture never recorded
  /// the original transmission of these bytes. Never yields RTT samples;
  /// "retransmissions" of it demote their stall to kUndetermined.
  bool inferred : 1 = false;
  // Live flags during the fold (scoreboard mirror).
  bool acked : 1 = false;
  bool sacked : 1 = false;
  bool lost_est : 1 = false;
  bool retrans_pending : 1 = false;

  std::uint32_t len() const { return net::distance(start, end); }
  TimePoint latest_tx() const {
    return tx_count > 1 && early_max_tx > last_tx ? early_max_tx : last_tx;
  }
};
static_assert(sizeof(SegMimic) <= 56,
              "per-flow memory is O(segments): keep a segment under a line");

/// Mimic state right after one packet: what the stall detector and the
/// classifier read about the packets on either side of a gap.
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
/// the fields the mimic reads, with the timestamp floored to the config's
/// ts_quantum and direction resolved against the flow's orientation key.
/// Self-contained (SACK blocks by value), so the previous packet's view
/// can be kept for the capture-duplicate check.
struct PacketView {
  TimePoint ts;
  net::Seq32 seq;
  net::Seq32 ack;
  std::uint32_t payload = 0;
  std::uint16_t window = 0;
  net::TcpFlags flags;
  bool from_server = false;
  net::SackList sacks;
  bool truncated = false;  // snaplen cut this record's options
};

/// A gap longer than the threshold: the annotations on either side of it,
/// kept until the flow finishes and the classifier can look ahead.
struct StallCandidate {
  PktAnno prev;
  PktAnno cur;
  TimePoint start;
  TimePoint end;
  std::size_t cur_pkt_index = 0;
};

/// The TCP-stack mimic and stall classifier over one flow, fed one packet
/// at a time in capture order. Memory is O(segments + stall candidates):
/// no packet is kept once it has been folded.
class FlowMimic {
 public:
  /// `meta` must carry the orientation and the sequence seed (server ISN,
  /// or first_server_data_seq when mid_stream). `config` must outlive the
  /// mimic.
  FlowMimic(const FlowMeta& meta, const AnalyzerConfig& config);

  /// The flow meta. A caller that learns it packet by packet (the live
  /// table) folds each packet into it before pushing that packet.
  FlowMeta& meta() { return meta_; }

  /// Folds one packet, in capture order.
  void push(const net::CapturedPacket& cp);

  /// Classifies the stall candidates against the final segment state and
  /// hands over the flow's analysis. Call once, after the last push.
  FlowAnalysis finish();

  /// Heap bytes the mimic holds (segments, stall candidates, response
  /// heads and the per-ACK samples), by capacity — or will hold after one
  /// more push, so a ledger can charge the growth before it happens.
  std::size_t capacity_bytes(bool after_push = false) const;

 private:
  PacketView view(const net::CapturedPacket& cp) const;
  SegMimic* find_seg(net::Seq32 seq);
  bool is_capture_dup(const PacketView& a, const PacketView& b) const;
  std::uint32_t packets_out() const;
  std::uint32_t in_flight() const;
  void mark_lost_by_sack();
  void add_segment(net::Seq32 start, net::Seq32 end, TimePoint ts,
                   bool inferred);
  void process_server_packet(const PacketView& p, PktAnno& a);
  void process_client_packet(const PacketView& p, PktAnno& a);
  void snapshot(PktAnno& a) const;
  StallRecord classify_stall(const StallCandidate& c) const;
  RetransCause classify_retrans(const PktAnno& prev, const PktAnno& cur,
                                TimePoint stall_start, bool& f_double) const;
  net::Seq32 response_end_for(const SegMimic& seg) const;

  FlowMeta meta_;
  const AnalyzerConfig& config_;
  tcp::RtoEstimator rto_;
  FlowAnalysis out_;

  std::vector<SegMimic> segs_;
  std::vector<StallCandidate> candidates_;
  // Response start sequences, in serial order: each is the snd_nxt_ of its
  // request, and snd_nxt_ only grows. Per-flow values span far less than
  // 2^31 bytes, so serial order is a strict weak ordering here.
  std::vector<net::Seq32> head_seqs_;

  std::size_t n_packets_ = 0;
  TimePoint first_ts_;
  TimePoint last_ts_;
  PktAnno prev_anno_;
  PacketView prev_view_;  // kept only for the capture-duplicate check

  net::Seq32 snd_una_;
  net::Seq32 snd_nxt_;
  net::Seq32 stream_head_;  // initial snd_nxt_ (synthetic when mid-stream)
  std::size_t first_unacked_idx_ = 0;  // index into segs_ (monotone)

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

struct AnalysisResult {
  std::vector<FlowAnalysis> flows;
};

class Analyzer {
 public:
  /// Validates the config (std::invalid_argument on out-of-range fields).
  explicit Analyzer(AnalyzerConfig config = {});

  /// Pushes every packet of the view through one FlowMimic seeded with the
  /// view's whole-flow meta, then finishes it.
  FlowAnalysis analyze_flow(const FlowView& view) const;

  /// Batch entry point, a veneer over the streaming engine: every packet
  /// is fed through an unbounded LiveAnalyzer (one engine for the offline
  /// and live paths) and the finalized flows are returned in first-packet
  /// order, the order in which the live table created their entries.
  AnalysisResult analyze(const net::PacketTrace& trace,
                         const DemuxOptions& demux = {}) const;

  const AnalyzerConfig& config() const { return config_; }

 private:
  AnalyzerConfig config_;
};

}  // namespace tapo::analysis
