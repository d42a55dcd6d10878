// TAPO command-line tool: analyze TCP stalls in a pcap capture.
//
// This is the reproduction of the paper's publicly released tool: point it
// at a server-side capture and it prints per-flow stall diagnoses plus the
// aggregate Table-3 / Table-5 breakdowns.
//
//   pcap_analyze <capture.pcap> [--server-port N] [--tau X] [--summary]
//   pcap_analyze --demo [out.pcap]     # generate a demo capture first
//
// The capture may come from tcpdump (Ethernet, raw-IP and loopback
// linktypes are supported) or from this library's own simulator.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "pcap/pcap.h"
#include "stats/table.h"
#include "tapo/analyzer.h"
#include "tapo/csv.h"
#include "tapo/live.h"
#include "tapo/report.h"
#include "util/env.h"
#include "util/strings.h"
#include "workload/experiment.h"

using namespace tapo;

namespace {

void print_usage() {
  std::printf(
      "usage: pcap_analyze <capture.pcap> [--server-port N] [--tau X] "
      "[--summary] [--csv PREFIX] [--live] [--mem-budget BYTES]\n"
      "       pcap_analyze --demo [out.pcap]   generate & analyze a demo "
      "capture\n"
      "\n"
      "  --mem-budget BYTES  cap pipeline residency (chunks in flight +\n"
      "                      buffered flow state); 0 = unlimited. Also read\n"
      "                      from TAPO_MEM_BUDGET; the flag wins. Budgeted\n"
      "                      runs use --live's engine and evict the least\n"
      "                      recently active flows instead of growing.\n");
}

std::string make_demo(const std::string& path) {
  // Simulate a handful of lossy software-download flows into one pcap.
  net::PacketTrace all;
  auto profile = workload::software_download_profile();
  Rng master(42);
  for (int i = 0; i < 8; ++i) {
    Rng flow_rng = master.split();
    const auto scenario =
        workload::draw_scenario(profile, flow_rng, static_cast<std::uint64_t>(i + 1));
    const auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    for (const auto& pkt : outcome.trace->packets()) all.add(pkt);
  }
  all.sort_by_time();
  pcap::write_file(path, all);
  std::printf("wrote demo capture with %zu packets to %s\n\n", all.size(),
              path.c_str());
  return path;
}

/// Whole-token parse of a finite positive number: "nan", "2x" and "-1"
/// are rejected rather than read as far as they parse.
std::optional<double> parse_positive(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || !(v > 0.0)) {
    return std::nullopt;
  }
  return v;
}

/// Everything pcap_analyze does with a finalized flow: print its report
/// (unless --summary), fold it into the aggregate tables and write its CSV
/// rows. Nothing is kept per flow, so a --live or budgeted run stays
/// bounded however long the capture is.
class ReportSink : public FlowSink {
 public:
  ReportSink(bool print_flows, std::ostream* flows_csv,
             std::ostream* stalls_csv)
      : print_flows_(print_flows) {
    if (flows_csv != nullptr) csv_.emplace(*flows_csv, stalls_csv);
  }

  void consume(FlowResult&& result) override {
    for (const analysis::FlowAnalysis& fa : result.analyses) {
      if (print_flows_) {
        std::printf("%s\n", analysis::describe_flow(fa).c_str());
      }
      stalls_.add(fa);
      retrans_.add(fa);
      summary_.add(fa);
    }
    if (csv_) csv_->consume(std::move(result));
  }

  void finish(const RunStats& stats) override {
    if (csv_) csv_->finish(stats);
  }

  /// The aggregate summaries, in Table 3 / Table 5 form.
  void print_aggregate() const;

 private:
  bool print_flows_;
  std::optional<analysis::CsvSink> csv_;
  analysis::StallBreakdown stalls_;
  analysis::RetransBreakdown retrans_;
  analysis::ServiceSummary summary_;
};

void ReportSink::print_aggregate() const {
  std::printf("== aggregate ==\n");
  std::printf("flows=%llu avg_speed=%s/s pkt_loss=%s avg_rtt=%s avg_rto=%s\n",
              static_cast<unsigned long long>(summary_.flows),
              human_bytes(summary_.avg_speed_Bps).c_str(),
              pct(summary_.pkt_loss).c_str(),
              human_us(summary_.avg_rtt_us).c_str(),
              human_us(summary_.avg_rto_us).c_str());
  std::printf("stalls: %llu total, %.1fs stalled time\n",
              static_cast<unsigned long long>(stalls_.total_count),
              stalls_.total_time.sec());

  stats::Table t("\nstall causes (volume / time):");
  t.set_header({"cause", "volume", "time"});
  for (std::size_t c = 0; c < analysis::kNumStallCauses; ++c) {
    const auto cause = static_cast<analysis::StallCause>(c);
    if (stalls_.by_cause[c].count == 0) continue;
    t.add_row({analysis::to_string(cause), pct(stalls_.volume_fraction(cause)),
               pct(stalls_.time_fraction(cause))});
  }
  std::printf("%s", t.render().c_str());

  if (retrans_.total_count > 0) {
    stats::Table rt("\ntimeout-retransmission stall causes (volume / time):");
    rt.set_header({"cause", "volume", "time"});
    for (std::size_t c = 0; c < analysis::kNumRetransCauses; ++c) {
      const auto cause = static_cast<analysis::RetransCause>(c);
      if (retrans_.by_cause[c].count == 0) continue;
      rt.add_row({analysis::to_string(cause),
                  pct(retrans_.volume_fraction(cause)),
                  pct(retrans_.time_fraction(cause))});
    }
    std::printf("%s", rt.render().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }

  std::string path;
  analysis::AnalyzerConfig config;
  analysis::DemuxOptions demux;
  bool summary_only = false;
  bool live_mode = false;
  std::size_t mem_budget = util::env_size("TAPO_MEM_BUDGET", 0);
  std::string csv_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      // Only consume the next token as the output path if it is not a flag.
      const bool has_path = i + 1 < argc && argv[i + 1][0] != '-';
      path = make_demo(has_path ? argv[++i] : "/tmp/tapo_demo.pcap");
    } else if (arg == "--server-port" && i + 1 < argc) {
      const auto port = tapo::util::parse_u64(argv[++i]);
      if (!port || *port == 0 || *port > 65535) {
        std::fprintf(stderr, "error: --server-port must be 1..65535\n");
        return 1;
      }
      demux.with_server_port(static_cast<std::uint16_t>(*port));
    } else if (arg == "--tau" && i + 1 < argc) {
      const auto tau = parse_positive(argv[++i]);
      if (!tau) {
        std::fprintf(stderr, "error: --tau must be a positive number\n");
        return 1;
      }
      config.with_tau(*tau);
    } else if (arg == "--summary") {
      summary_only = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_prefix = argv[++i];
    } else if (arg == "--live") {
      live_mode = true;
    } else if (arg == "--mem-budget" && i + 1 < argc) {
      const auto bytes = tapo::util::parse_u64(argv[++i]);
      if (!bytes) {
        std::fprintf(stderr,
                     "error: --mem-budget must be a byte count (0 = "
                     "unlimited)\n");
        return 1;
      }
      mem_budget = static_cast<std::size_t>(*bytes);
    } else if (arg[0] != '-') {
      path = arg;
    } else {
      print_usage();
      return 1;
    }
  }
  if (path.empty()) {
    print_usage();
    return 1;
  }

  // Two ingest paths, one analysis engine, one output path. A budgeted or
  // --live run pulls chunks from the streaming reader, hands each straight
  // to the live analyzer and drops it; each flow goes to the report sink as
  // it finalizes (bounded residency, files larger than RAM are fine). The
  // plain batch run reads the whole file into one trace, analyzes it with
  // the same engine and feeds the flows, in first-packet order, through the
  // same sink. The counts header follows the flow reports in --live mode,
  // where it is known only at the end.
  util::MemoryBudget budget(mem_budget);
  if (mem_budget != 0) live_mode = true;
  std::ofstream flows_csv, stalls_csv;
  std::optional<ReportSink> sink;
  // Opens the CSV outputs, once the input has opened (a bad capture leaves
  // no empty CSVs behind), and builds the report sink on them.
  const auto start_report = [&]() -> ReportSink& {
    if (!csv_prefix.empty()) {
      for (auto [out, suffix] : {std::pair{&flows_csv, "_flows.csv"},
                                 std::pair{&stalls_csv, "_stalls.csv"}}) {
        out->open(csv_prefix + suffix);
        if (!*out) {
          throw std::runtime_error("csv: cannot open " + csv_prefix + suffix);
        }
      }
    }
    return sink.emplace(!summary_only,
                        csv_prefix.empty() ? nullptr : &flows_csv,
                        &stalls_csv);
  };
  pcap::ReadStats rstats;
  const auto print_read_stats = [&] {
    std::printf("%s: %zu records, %zu TCP packets (%zu skipped)\n",
                path.c_str(), rstats.records, rstats.tcp_packets,
                rstats.skipped);
  };
  try {
    if (live_mode) {
      pcap::StreamingReader reader(path, pcap::StreamingOptions{
                                             .budget = &budget});
      const auto live_cfg = analysis::LiveConfig{}
                                .with_analyzer(config)
                                .with_demux(demux)
                                .with_mem_budget(&budget);
      analysis::LiveAnalyzer live(live_cfg, start_report());
      while (auto chunk = reader.next_chunk()) live.add_chunk(*chunk);
      live.flush();
      rstats = reader.stats();
      print_read_stats();
      std::printf("%llu flows finalized (live mode; %llu packets, peak table "
                  "%zu flows, peak resident %zu bytes%s)\n\n",
                  static_cast<unsigned long long>(live.stats().flows_finalized),
                  static_cast<unsigned long long>(live.stats().packets),
                  live.stats().peak_active_flows, budget.high_water(),
                  mem_budget != 0 ? ", budgeted" : "");
    } else {
      const net::PacketTrace trace = pcap::read_file(path, &rstats);
      print_read_stats();
      analysis::AnalysisResult result =
          analysis::Analyzer(config).analyze(trace, demux);
      std::printf("%zu flows reconstructed\n\n", result.flows.size());
      ReportSink& report = start_report();
      for (std::size_t i = 0; i < result.flows.size(); ++i) {
        FlowResult fr;
        fr.index = i;
        fr.analyses.push_back(std::move(result.flows[i]));
        report.consume(std::move(fr));
      }
      RunStats rs;
      rs.flows = result.flows.size();
      report.finish(rs);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!csv_prefix.empty()) {
    std::printf("wrote %s_flows.csv and %s_stalls.csv\n\n",
                csv_prefix.c_str(), csv_prefix.c_str());
  }
  sink->print_aggregate();
  return 0;
}
