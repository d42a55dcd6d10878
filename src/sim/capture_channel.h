// Capture-imperfection stage between the simulator's server-side tap and
// the PacketTrace the analyzer consumes.
//
// The paper's TAPO ran on tcpdump captures from production front-ends (§3),
// and a production capture lies in well-known ways: the kernel drops records
// under load (i.i.d. and in bursts), a short snaplen cuts TCP options off,
// mirror ports duplicate frames, multi-queue NICs locally reorder, timestamps
// are quantized or jittered, and rotated captures start mid-stream. This
// stage injects exactly those imperfections — composable, seeded, and
// default-off — so the analyzer's robustness to a lying capture can be
// measured (bench/robustness_stability.cc) instead of assumed.
//
// Determinism contract: every decision flows from the CaptureImpairments
// seed through one util::Rng, so the same pristine trace and config always
// produce the same impaired trace. With no impairment enabled, feed() is a
// plain copy and apply_impairments() returns a bit-identical clone — the
// pristine pipeline never changes shape.
#pragma once

#include <cstdint>
#include <optional>

#include "net/trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace tapo::sim {

/// Composable capture impairments. All default-off; fluent validated
/// setters mirror the ExperimentConfig builder idiom (aggregate-init keeps
/// working for tests that want to set fields directly).
struct CaptureImpairments {
  /// Per-record i.i.d. capture-drop probability in [0, 1).
  double drop_prob = 0.0;
  /// Bursty (Gilbert-Elliott) capture drop: probability of *entering* a
  /// drop burst per record, and of *staying* in it per subsequent record
  /// (geometric burst length 1 / (1 - burst_continue_prob)).
  double burst_drop_prob = 0.0;
  double burst_continue_prob = 0.0;
  /// Snaplen in wire bytes from the IP header on (tcpdump -s). 0 = full
  /// capture. Values that cut into the TCP options drop the tail options
  /// (SACK blocks, timestamps) and mark the packet truncated; payload-only
  /// cuts are invisible in-memory because packet lengths come from the IP
  /// header, matching the pcap reader's wire-length model.
  std::uint32_t snaplen = 0;
  /// Mirror-port duplication probability: the record is captured twice,
  /// back to back, with identical timestamps.
  double dup_prob = 0.0;
  /// Local (adjacent-swap) reordering probability: the record is held back
  /// one slot, so it appears after its successor. Timestamps ride with
  /// their packets, so the impaired trace is slightly time-disordered —
  /// exactly what multi-queue capture produces.
  double reorder_prob = 0.0;
  /// Timestamp quantization granularity (floor to a multiple); zero = off.
  Duration quantize = Duration::zero();
  /// Uniform timestamp jitter in [-jitter, +jitter]; zero = off.
  Duration jitter = Duration::zero();
  /// Mid-stream capture start: the first N records never reach the trace
  /// (capture rotation began after the flow did).
  std::size_t skip_first = 0;
  /// Seed for the impairment RNG (combined with a per-flow seed by the
  /// experiment runner so parallel runs stay deterministic).
  std::uint64_t seed = 1;

  // Fluent construction; each setter validates eagerly and returns *this.
  CaptureImpairments& with_drop(double p);  // throws unless 0 <= p < 1
  CaptureImpairments& with_burst_drop(double enter, double cont);
  CaptureImpairments& with_snaplen(std::uint32_t bytes);  // >= 40 wire bytes
  CaptureImpairments& with_duplication(double p);
  CaptureImpairments& with_reordering(double p);
  CaptureImpairments& with_quantization(Duration granularity);  // > 0
  CaptureImpairments& with_jitter(Duration j);                  // >= 0
  CaptureImpairments& with_mid_stream_start(std::size_t skip);
  CaptureImpairments& with_seed(std::uint64_t s);

  /// True when any impairment is active (the channel is a no-op otherwise).
  bool enabled() const;

  /// Full validation (same contract as ExperimentConfig::validate): throws
  /// std::invalid_argument with a self-explanatory message on out-of-range
  /// probabilities, a snaplen too small to hold the fixed headers, or a
  /// negative duration.
  void validate() const;
};

/// What the channel did to one trace, per impairment kind.
struct CaptureChannelStats {
  std::uint64_t seen = 0;       // records offered to the channel
  std::uint64_t delivered = 0;  // records written to the output trace
  std::uint64_t dropped = 0;    // i.i.d. + bursty capture drops
  std::uint64_t duplicated = 0; // extra copies emitted
  std::uint64_t truncated = 0;  // records whose options were cut
  std::uint64_t reordered = 0;  // adjacent swaps performed
  std::uint64_t skipped_head = 0;  // mid-stream-start records discarded

  void merge(const CaptureChannelStats& o);
};

/// Streaming impairment stage: packets from the tap are fed one at a time
/// and the survivors land in the output PacketTrace. finish() must be
/// called once after the last packet (it flushes the reorder hold slot).
class CaptureChannel {
 public:
  /// `out` must outlive the channel. The config is validated here.
  CaptureChannel(net::PacketTrace& out, const CaptureImpairments& impairments);

  void feed(const net::CapturedPacket& pkt);
  void finish();

  const CaptureChannelStats& stats() const { return stats_; }

 private:
  /// Applies the per-record impairments (quantize, jitter, truncate) and
  /// writes the record — plus a mirror duplicate when drawn — to the trace.
  void emit(const net::CapturedPacket& pkt);
  net::CapturedPacket impair_record(const net::CapturedPacket& pkt);

  // Documented borrow: the ctor contract pins `out` for the channel's
  // whole lifetime, and the sink is a caller-owned batch trace, never a
  // reader chunk. tapo-lint: allow(trace-retain)
  net::PacketTrace* out_;
  CaptureImpairments imp_;
  Rng rng_;
  CaptureChannelStats stats_;
  bool in_burst_ = false;
  std::optional<net::CapturedPacket> held_;  // reorder hold slot
};

/// Replays a pristine trace through a CaptureChannel. With no impairment
/// enabled the result is a bit-identical clone of the input.
net::PacketTrace apply_impairments(const net::PacketTrace& pristine,
                                   const CaptureImpairments& impairments,
                                   CaptureChannelStats* stats = nullptr);

}  // namespace tapo::sim
