// CSV export of analysis results — for feeding the per-flow and per-stall
// data into external plotting/statistics pipelines (the production TAPO
// deployment fed a daily-maintenance dashboard; this is the equivalent
// integration surface).
#pragma once

#include <iosfwd>

#include "tapo/analyzer.h"
#include "tapo/sink.h"

namespace tapo::analysis {

/// The one CSV writer, a tapo::FlowSink: plugs into the parallel
/// experiment runner and the LiveAnalyzer alike and writes each flow's rows
/// as it arrives, never buffering the per-flow analyses. Flow ids are the
/// FlowResult indices. Streams must outlive the sink; pass nullptr for
/// stalls_out to skip the per-stall table.
///
/// flows_out, one row per flow: flow,server,client,bytes,segments,retrans,
/// timeout_retrans,fast_retrans,spurious,transmission_s,stalled_s,
/// stall_ratio,avg_rtt_ms,avg_rto_ms,avg_speed_Bps,init_rwnd_bytes,
/// had_zero_rwnd,stalls
///
/// stalls_out, one row per stall: flow,start_s,duration_s,cause,
/// retrans_cause,f_double,state,in_flight,rel_position
class CsvSink : public FlowSink {
 public:
  explicit CsvSink(std::ostream& flows_out, std::ostream* stalls_out = nullptr);

  void consume(FlowResult&& result) override;
  /// Flushes both streams; throws std::runtime_error if either has failed
  /// (unopenable file, write error, full disk).
  void finish(const RunStats& stats) override;

 private:
  std::ostream* flows_out_;
  std::ostream* stalls_out_;
};

}  // namespace tapo::analysis
