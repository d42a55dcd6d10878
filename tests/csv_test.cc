// Tests for the CSV export layer (CsvSink, the one CSV writer).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tapo/csv.h"
#include "util/strings.h"
#include "workload/experiment.h"

namespace tapo::analysis {
namespace {

std::vector<FlowAnalysis> sample_flows() {
  workload::ExperimentConfig cfg;
  cfg.profile = workload::software_download_profile();
  cfg.flows = 10;
  cfg.seed = 5;
  return workload::run_experiment(cfg).analyses;
}

/// Streams `flows` through a CsvSink, flow i as FlowResult index i.
void write_csv(const std::vector<FlowAnalysis>& flows, std::ostream& flows_out,
               std::ostream* stalls_out) {
  CsvSink csv(flows_out, stalls_out);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    FlowResult fr;
    fr.index = i;
    fr.analyses.push_back(flows[i]);
    csv.consume(std::move(fr));
  }
  csv.finish(RunStats{});
}

std::string flows_csv(const std::vector<FlowAnalysis>& flows) {
  std::ostringstream out;
  write_csv(flows, out, nullptr);
  return out.str();
}

std::string stalls_csv(const std::vector<FlowAnalysis>& flows) {
  std::ostringstream unused, out;
  write_csv(flows, unused, &out);
  return out.str();
}

TEST(Csv, FlowsHeaderAndRowCount) {
  const auto flows = sample_flows();
  const auto lines = split(flows_csv(flows), '\n');
  // Header + one row per flow + trailing empty line.
  ASSERT_EQ(lines.size(), flows.size() + 2);
  EXPECT_EQ(lines[0].substr(0, 5), "flow,");
  // Every data row has the same number of commas as the header.
  const auto header_cols = split(lines[0], ',').size();
  for (std::size_t i = 1; i <= flows.size(); ++i) {
    EXPECT_EQ(split(lines[i], ',').size(), header_cols) << "row " << i;
  }
}

TEST(Csv, StallsRowPerStall) {
  const auto flows = sample_flows();
  std::size_t total_stalls = 0;
  for (const auto& f : flows) total_stalls += f.stalls.size();
  const auto lines = split(stalls_csv(flows), '\n');
  ASSERT_EQ(lines.size(), total_stalls + 2);
}

TEST(Csv, ValuesMatchAnalysis) {
  const auto flows = sample_flows();
  ASSERT_FALSE(flows.empty());
  const auto lines = split(flows_csv(flows), '\n');
  const auto cols = split(lines[1], ',');
  EXPECT_EQ(std::stoull(cols[3]), flows[0].unique_bytes);
  EXPECT_EQ(std::stoull(cols[4]), flows[0].data_segments);
  EXPECT_EQ(std::stoull(cols[17]), flows[0].stalls.size());
}

TEST(Csv, StallCauseNamesPresent) {
  const auto flows = sample_flows();
  const std::string body = stalls_csv(flows);
  bool any = false;
  for (const auto& f : flows) {
    for (const auto& s : f.stalls) {
      EXPECT_NE(body.find(to_string(s.cause)), std::string::npos);
      any = true;
    }
  }
  EXPECT_TRUE(any);  // the sample workload produces stalls
}

TEST(Csv, FileWriters) {
  const auto flows = sample_flows();
  const std::string p1 = "/tmp/tapo_test_flows.csv";
  const std::string p2 = "/tmp/tapo_test_stalls.csv";
  {
    std::ofstream out1(p1), out2(p2);
    write_csv(flows, out1, &out2);
  }
  std::ifstream in1(p1), in2(p2);
  EXPECT_TRUE(in1.good());
  EXPECT_TRUE(in2.good());
  std::string line;
  std::getline(in1, line);
  EXPECT_EQ(line.substr(0, 5), "flow,");
  std::getline(in2, line);
  EXPECT_EQ(line.substr(0, 6), "flow,s");
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Csv, BadPathThrows) {
  // A file that could not be opened, and a stream that failed mid-write:
  // finish() reports either instead of flushing into the void.
  std::ofstream unopened("/nonexistent_dir/x.csv");
  EXPECT_THROW(write_csv(sample_flows(), unopened, nullptr),
               std::runtime_error);

  std::ostringstream flows_out, stalls_out;
  CsvSink csv(flows_out, &stalls_out);
  stalls_out.setstate(std::ios::badbit);
  EXPECT_THROW(csv.finish(RunStats{}), std::runtime_error);

  std::ostringstream good;
  EXPECT_NO_THROW(write_csv({}, good, nullptr));
}

}  // namespace
}  // namespace tapo::analysis
