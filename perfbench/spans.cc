#include "spans.h"

#include <chrono>
#include <cstdio>

namespace tapo::perfbench {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stops allocation attribution for the recorder's own bookkeeping, so
/// growing the span store is never charged to the layer being timed.
class UncountedSection {
 public:
  UncountedSection() : saved_(t_alloc_tally) { t_alloc_tally = nullptr; }
  ~UncountedSection() { t_alloc_tally = saved_; }
  UncountedSection(const UncountedSection&) = delete;
  UncountedSection& operator=(const UncountedSection&) = delete;

 private:
  AllocTally* saved_;
};

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(steady_ns()) { open_.reserve(64); }

SpanRecorder::~SpanRecorder() { t_alloc_tally = nullptr; }

std::int64_t SpanRecorder::now_ns() const { return steady_ns() - origin_ns_; }

std::size_t SpanRecorder::open(const char* name, std::uint64_t flow) {
  std::size_t id = 0;
  {
    const UncountedSection uncounted;
    id = spans_.size();
    Span& s = spans_.emplace_back();
    s.name = name;
    s.flow = flow;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    open_.push_back(id);
  }
  t_alloc_tally = &spans_[id].allocs;
  spans_[id].start_ns = now_ns();
  return id;
}

void SpanRecorder::close(std::size_t id) {
  Span& s = spans_[id];
  s.end_ns = now_ns();
  open_.pop_back();
  t_alloc_tally = open_.empty() ? nullptr : &spans_[open_.back()].allocs;
}

std::map<std::string, LayerTotals> SpanRecorder::layers() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    LayerTotals& t = out[s.name];
    ++t.spans;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.self_allocs.allocs += s.allocs.allocs;
    t.self_allocs.bytes += s.allocs.bytes;
    t.durations_ns.push_back(dur);
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"flow\":%llu,\"allocs\":%llu,"
                 "\"alloc_bytes\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.flow),
                 static_cast<unsigned long long>(s.allocs.allocs),
                 static_cast<unsigned long long>(s.allocs.bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace tapo::perfbench
