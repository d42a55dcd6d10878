// Building blocks of the benchmark workloads: flow generation, the output
// checks and digests, the fleet record stage, and the pcap -> live TAPO ->
// fleet diagnose chain. Every call into the library that a layer metric
// times is wrapped in a SpanScope; with a null recorder the same code runs
// untraced.
#pragma once

#include <cstdint>
#include <optional>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/record_sink.h"
#include "spans.h"
#include "tapo/analyzer.h"
#include "tapo/sink.h"
#include "util/worker_pool.h"
#include "workload/profiles.h"

namespace tapo::perfbench {

// ------------------------------------------------------------ byte streams

/// std::streambuf that appends everything written to it to a byte vector.
class ByteSink : public std::streambuf {
 public:
  std::vector<std::uint8_t>& bytes() { return bytes_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Read-only std::streambuf over bytes owned by the caller.
class ByteSource : public std::streambuf {
 public:
  explicit ByteSource(const std::vector<std::uint8_t>& bytes);
};

// ------------------------------------------------------ checks and digests

/// First and last packet time of one flow at the server NIC.
struct PacketSpan {
  TimePoint first;
  TimePoint last;
};

/// The analyzer's output invariants: stall_ratio in [0, 1], every stall
/// inside the flow (within `span` when known, else no wider than the
/// transmission time), and per-cause stall time summing to stalled_time.
/// Returns null when all hold, else a description of the first broken one.
const char* broken_invariant(const tapo::analysis::FlowAnalysis& fa,
                             const std::optional<PacketSpan>& span);

/// Order-sensitive 64-bit digest of every field of one analysis. Stall
/// times are taken relative to `offset_us`, so a flow analyzed at its own
/// timeline and the same flow shifted into a shared capture digest equal.
std::uint64_t analysis_digest(const tapo::analysis::FlowAnalysis& fa,
                              std::int64_t offset_us);
/// Digest of the simulation-level outcome (status, sender counters,
/// request timeline). The invariant monitor's violation count is left out,
/// so a monitored pass and an unmonitored one over the same flows digest
/// equal; FlowTally counts violations as failures instead.
std::uint64_t outcome_digest(const tapo::FlowOutcome& outcome);
std::uint64_t mix_digest(std::uint64_t acc, std::uint64_t value);

/// Per-flow facts folded into the metrics: counts, latency samples, sender
/// counters, failures and the run digest.
struct FlowTally {
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t stalls = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Failed flows whose analysis is wrong (a broken output invariant, or a
  /// live result that differs from the reference), as opposed to flows
  /// the simulator gave up on.
  std::uint64_t wrong_outputs = 0;
  tcp::SenderStats sender;
  /// Paper 5.2 request latency in simulated ms; a request that never
  /// completed counts at the flow's time cap.
  std::vector<double> latency_ms;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  // "flow <id>: <reason>"

  /// Folds one simulated flow. A flow fails when an analysis broke an
  /// output invariant, the watchdog tripped, or the invariant monitor
  /// attributed a violation to it.
  void add_simulated(const tapo::FlowResult& r, std::uint64_t flow_id,
                     const std::optional<PacketSpan>& span);
  void fail(std::uint64_t flow_id, const std::string& reason,
            bool wrong_output);
  void merge(const FlowTally& other);
};

// ------------------------------------------------------------- fleet stage

/// RecordSink writing fleet records into memory, plus the running count of
/// encoded bytes.
class RecordStage {
 public:
  explicit RecordStage(std::uint8_t service);
  fleet::RecordSink& sink() { return sink_; }
  std::uint64_t bytes() const { return writer_.bytes(); }

  /// Decodes every record written so far and folds them into a fleet
  /// snapshot. Returns null when the records decode cleanly and the
  /// snapshot holds exactly `expected` of them, else the error.
  std::optional<std::string> collect(std::uint64_t expected,
                                     SpanRecorder* rec);

 private:
  ByteSink buf_;
  std::ostream os_;
  fleet::RecordWriter writer_;
  fleet::RecordSink sink_;
};

/// FlowSink for the simulate workloads: checks and tallies each flow, then
/// hands it to the fleet record sink (which keeps no per-flow analysis).
class CheckingSink : public tapo::FlowSink {
 public:
  CheckingSink(FlowTally& tally, fleet::RecordSink& records,
               std::uint64_t id_base)
      : tally_(tally), records_(records), id_base_(id_base) {}
  void consume(tapo::FlowResult&& result) override;

 private:
  FlowTally& tally_;
  fleet::RecordSink& records_;
  std::uint64_t id_base_;
};

// -------------------------------------------------------------- generation

struct ProfileChoice {
  workload::ServiceProfile profile;
  std::optional<tcp::RecoveryMechanism> recovery;
};

/// One simulated and analyzed flow, with its server-NIC capture kept.
struct GeneratedFlow {
  tapo::FlowResult result;  // outcome.trace holds the capture
  PacketSpan span;
};

/// One profile's flows: flow k has seed seeds[k] and flow id id_base + k
/// (the id feeds draw_scenario's 4-tuple, so ids must not repeat within
/// one capture).
struct FlowStream {
  ProfileChoice choice;
  std::vector<std::uint64_t> seeds;  // workload::derive_flow_seeds(seed, n)
  std::size_t id_base = 0;
};

/// Simulates and analyzes flows exactly as workload::ParallelRunner does
/// for one run (scenario draw, run_flow, analyze), keeping every capture.
class FlowGenerator {
 public:
  /// With threads > 1 the flows are spread over a util::WorkerPool and
  /// `rec` must be null.
  FlowGenerator(std::size_t threads, SpanRecorder* rec);

  /// Appends flows [first, first + count) of `stream` to `out`, in order.
  void generate(const FlowStream& stream, std::size_t first,
                std::size_t count, std::vector<GeneratedFlow>& out);

  /// Busy worker time / (threads * wall) over every generate() so far.
  double utilization() const;

 private:
  tapo::analysis::Analyzer analyzer_;
  SpanRecorder* rec_;
  std::size_t threads_;
  std::optional<util::WorkerPool> pool_;
  double busy_s_ = 0.0;
  double wall_s_ = 0.0;
};

// --------------------------------------------------------- diagnose chain

/// A classic pcap built from generated flows whose timelines were shifted
/// onto a Poisson arrival schedule, with each flow's reference analysis.
struct Capture {
  std::vector<std::uint8_t> pcap;
  std::uint64_t packets = 0;
  std::uint64_t flows = 0;
  /// Canonical (direction-free) flow key -> flow index.
  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> flow_of_key;
  std::vector<std::uint64_t> flow_id;  // GeneratedFlow::result.index
  std::vector<std::int64_t> offset_us;
  std::vector<PacketSpan> span;        // shifted
  /// analysis_digest at offset 0; empty for a flow that sent no packet.
  std::vector<std::optional<std::uint64_t>> ref_digest;
  double mean_open_flows = 0.0;  // from the first to the last arrival
  std::size_t peak_open_flows = 0;
};

/// Consumes the flows' captures (they are released as they are merged).
/// Arrivals are Poisson with a mean gap of the flows' mean duration divided
/// by `arrivals_per_duration`.
Capture build_capture(std::vector<GeneratedFlow>& flows, std::uint64_t seed,
                      double arrivals_per_duration, SpanRecorder* rec);

struct DiagnoseResult {
  std::uint64_t packets_read = 0;
  std::uint64_t packets_ingested = 0;
  std::uint64_t flows_finalized = 0;
  /// Input flows the live analyzer finalized more than once (idle timeout,
  /// per-flow cap or table eviction split them).
  std::uint64_t flows_split = 0;
  std::uint64_t record_bytes = 0;
  std::size_t resident_peak_bytes = 0;
  FlowTally tally;
  /// Structural errors (lost packets or flows, unknown flows, bad records).
  std::vector<std::string> errors;
};

/// pcap::StreamingReader -> LiveAnalyzer (pcap_analyze --live defaults,
/// unlimited MemoryBudget attached) -> fleet::RecordSink -> read_records ->
/// FleetAggregator snapshot, over the in-memory capture. Every flow the
/// live analyzer finalized once must equal its reference analysis.
DiagnoseResult diagnose(const Capture& cap, SpanRecorder* rec);

}  // namespace tapo::perfbench
