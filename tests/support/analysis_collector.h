#pragma once
// A FlowSink that keeps every analysis it is handed, in delivery order, for
// tests that inspect what a LiveAnalyzer finalized (during a run or after
// flush()).
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tapo/sink.h"

namespace tapo::test {

class AnalysisCollector : public FlowSink {
 public:
  void consume(FlowResult&& result) override {
    for (auto& fa : result.analyses) flows.push_back(std::move(fa));
    packets.push_back(result.packets);
  }
  void finish(const RunStats& stats) override {
    ++finished;
    finished_flows = stats.flows;
  }

  std::vector<analysis::FlowAnalysis> flows;
  std::vector<std::uint64_t> packets;  // FlowResult::packets, per delivery
  std::size_t finished = 0;        // finish() calls
  std::size_t finished_flows = 0;  // RunStats::flows at the last finish()
};

}  // namespace tapo::test
