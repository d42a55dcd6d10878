// Span recorder for the traced benchmark run.
//
// The benchmark opens a span around each call it makes into a layer of the
// library (draw_scenario, run_flow, Analyzer::analyze, ...). A span keeps
// its name, start, end, parent span and flow id, plus the allocations made
// while it was the innermost open span. Spans stay in memory until the run
// ends and are then written out as JSON lines.
//
// The recorder is single-threaded: the traced run replays its flows on the
// calling thread so span nesting, self time and allocation counts are
// exact and repeat run to run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "alloc_count.h"

namespace tapo::perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the recorder's spans; -1 = root
  std::uint64_t flow = 0;
  AllocTally allocs;  // made while this span was the innermost open one
};

/// Per-name totals over every span of that name.
struct LayerTotals {
  std::uint64_t spans = 0;
  double total_ns = 0.0;
  /// Duration minus the time its child spans cover.
  double self_ns = 0.0;
  AllocTally self_allocs;
  /// One entry per span, for per-call percentiles.
  std::vector<double> durations_ns;
};

class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::size_t open(const char* name, std::uint64_t flow);
  void close(std::size_t id);

  std::map<std::string, LayerTotals> layers() const;
  std::size_t size() const { return spans_.size(); }
  /// One JSON object per span; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::int64_t origin_ns_ = 0;
  std::deque<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null recorder makes it a no-op, so one code path serves
/// the untraced and the traced run.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, std::uint64_t flow = 0)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, flow) : 0) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

}  // namespace tapo::perfbench
