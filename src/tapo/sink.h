// The shared result-delivery surface: one FlowResult shape and one FlowSink
// abstraction. The parallel experiment runner (workload/runner.h) and the
// streaming LiveAnalyzer (tapo/live.h), and through it Analyzer::analyze,
// deliver every flow through a FlowSink and no other way; CsvSink
// (tapo/csv.h) is the CSV writer. A sink written once — an aggregator, a
// CSV writer, a dashboard feeder — plugs into either producer.
//
// These types live in namespace tapo (not tapo::workload) because the
// streaming analyzer sits below the workload layer: tapo_core must not
// depend on tapo_workload.
//
// Ordering contract (all producers honor it): consume() is invoked exactly
// once per flow, in ascending index order, from one thread at a time —
// sinks need no internal synchronization. finish() is called once, after
// the last flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/trace.h"
#include "tapo/analyzer.h"
#include "tcp/connection.h"
#include "tcp/invariants.h"

namespace tapo {

/// How one simulated flow ended. Completed flows may still be unhealthy
/// (retransmissions, stalls) — this classifies only the *termination*, so a
/// chaos harness can separate "slow but sound" from "wedged" from "the
/// simulator itself ran away".
enum class FlowStatus : std::uint8_t {
  kCompleted,    // all requests served, server FIN acked
  kTimeCapped,   // hit max_flow_time while nominally making progress
  kRwndLimited,  // hit max_flow_time parked on a zero receive window
  kSimDiverged,  // watchdog: per-flow event budget exhausted (runaway loop)
};

inline const char* to_string(FlowStatus s) {
  switch (s) {
    case FlowStatus::kCompleted: return "completed";
    case FlowStatus::kTimeCapped: return "time_capped";
    case FlowStatus::kRwndLimited: return "rwnd_limited";
    case FlowStatus::kSimDiverged: return "sim_diverged";
  }
  return "?";
}

/// What one simulated flow produced (simulation-level view). Produced by
/// workload::run_flow; a trace-driven producer (LiveAnalyzer) leaves the
/// simulation-only fields default-constructed.
struct FlowOutcome {
  tcp::ConnectionMetrics metrics;
  tcp::SenderStats sender_stats;
  std::uint32_t init_rwnd_bytes = 0;
  std::uint64_t response_bytes = 0;
  bool completed = false;
  FlowStatus status = FlowStatus::kTimeCapped;
  /// Byte-stream integrity verdict when FlowGuards::verify_delivery was on.
  std::optional<tcp::DeliverySummary> delivery;
  /// Invariant violations attributed to this flow (monitor enabled only).
  std::uint64_t invariant_violations = 0;
  /// Packets the chaos engine touched (0 when chaos was off).
  std::uint64_t chaos_injected = 0;
  /// Server-NIC capture when workload::TraceCapture::kServerNic was
  /// requested (simulation) — absent for trace-driven producers.
  std::optional<net::PacketTrace> trace;
};

/// Everything a producer delivers for one flow.
struct FlowResult {
  std::size_t index = 0;  // flow index (runner) / finalize ordinal (live)
  FlowOutcome outcome;    // simulation-level facts; default when trace-driven
  /// Per-flow analyses (normally exactly one; empty when analysis is off).
  std::vector<analysis::FlowAnalysis> analyses;
  std::uint64_t packets = 0;  // captured at the server NIC
};

/// Run-level observability: wall clock, per-phase worker time, throughput.
/// Trace-driven producers fill what they can (flows; zeros elsewhere).
struct RunStats {
  std::size_t flows = 0;
  std::size_t threads = 1;
  double wall_seconds = 0.0;
  /// Worker seconds summed across threads, split by pipeline phase.
  double generate_seconds = 0.0;  // draw_scenario
  double simulate_seconds = 0.0;  // run_flow
  double analyze_seconds = 0.0;   // Analyzer::analyze
  double flows_per_second = 0.0;
  /// Busy worker time / (threads * wall), in [0, 1].
  double worker_utilization = 0.0;
};

/// Streaming consumer of per-flow results (see ordering contract above).
class FlowSink {
 public:
  virtual ~FlowSink() = default;
  virtual void consume(FlowResult&& result) = 0;
  /// Called once, after the last flow, with the run's performance stats.
  virtual void finish(const RunStats& stats) { (void)stats; }
};

}  // namespace tapo
