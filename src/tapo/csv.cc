#include "tapo/csv.h"

#include <ostream>
#include <stdexcept>
#include <string>

#include "net/ipv4.h"
#include "util/strings.h"

namespace tapo::analysis {
namespace {

std::string endpoint(std::uint32_t ip, std::uint16_t port) {
  return net::ipv4_to_string(ip) + ":" + std::to_string(port);
}

constexpr const char* kFlowsHeader =
    "flow,server,client,bytes,segments,retrans,timeout_retrans,"
    "fast_retrans,spurious,transmission_s,stalled_s,stall_ratio,"
    "avg_rtt_ms,avg_rto_ms,avg_speed_Bps,init_rwnd_bytes,"
    "had_zero_rwnd,stalls\n";

constexpr const char* kStallsHeader =
    "flow,start_s,duration_s,cause,retrans_cause,f_double,state,"
    "in_flight,rel_position\n";

void write_flow_row(std::ostream& out, std::size_t id,
                    const FlowAnalysis& f) {
  out << id << ',' << endpoint(f.key.src_ip, f.key.src_port) << ','
      << endpoint(f.key.dst_ip, f.key.dst_port) << ',' << f.unique_bytes
      << ',' << f.data_segments << ',' << f.retrans_segments << ','
      << f.timeout_retrans << ',' << f.fast_retrans << ','
      << f.spurious_retrans << ','
      << str_format("%.6f", f.transmission_time.sec()) << ','
      << str_format("%.6f", f.stalled_time.sec()) << ','
      << str_format("%.4f", f.stall_ratio) << ','
      << str_format("%.3f", f.avg_rtt_us / 1000.0) << ','
      << str_format("%.3f", f.avg_rto_us / 1000.0) << ','
      << str_format("%.1f", f.avg_speed_Bps) << ',' << f.init_rwnd_bytes
      << ',' << (f.had_zero_rwnd ? 1 : 0) << ',' << f.stalls.size() << '\n';
}

void write_stall_rows(std::ostream& out, std::size_t id,
                      const FlowAnalysis& f) {
  for (const auto& s : f.stalls) {
    out << id << ',' << str_format("%.6f", s.start.sec()) << ','
        << str_format("%.6f", s.duration.sec()) << ',' << to_string(s.cause)
        << ','
        << (s.cause == StallCause::kRetransmission
                ? to_string(s.retrans_cause)
                : "")
        << ',' << (s.f_double ? 1 : 0) << ','
        << tcp::to_string(s.state_at_stall) << ',' << s.in_flight << ','
        << str_format("%.4f", s.rel_position) << '\n';
  }
}

}  // namespace

CsvSink::CsvSink(std::ostream& flows_out, std::ostream* stalls_out)
    : flows_out_(&flows_out), stalls_out_(stalls_out) {
  *flows_out_ << kFlowsHeader;
  if (stalls_out_ != nullptr) *stalls_out_ << kStallsHeader;
}

void CsvSink::consume(FlowResult&& result) {
  for (const auto& fa : result.analyses) {
    write_flow_row(*flows_out_, result.index, fa);
    if (stalls_out_ != nullptr) write_stall_rows(*stalls_out_, result.index, fa);
  }
}

void CsvSink::finish(const RunStats& stats) {
  (void)stats;
  flows_out_->flush();
  if (stalls_out_ != nullptr) stalls_out_->flush();
  if (!*flows_out_ || (stalls_out_ != nullptr && !*stalls_out_)) {
    throw std::runtime_error("csv: write failed");
  }
}

}  // namespace tapo::analysis
