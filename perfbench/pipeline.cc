#include "pipeline.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <istream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>

#include "fleet/record.h"
#include "fleet/window.h"
#include "pcap/pcap.h"
#include "tapo/live.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/runner.h"

namespace tapo::perfbench {

using tapo::analysis::FlowAnalysis;

// ------------------------------------------------------------ byte streams

ByteSink::int_type ByteSink::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    bytes_.push_back(static_cast<std::uint8_t>(c));
  }
  return traits_type::not_eof(c);
}

std::streamsize ByteSink::xsputn(const char* s, std::streamsize n) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  bytes_.insert(bytes_.end(), p, p + n);
  return n;
}

ByteSource::ByteSource(const std::vector<std::uint8_t>& bytes) {
  // streambuf's get area is non-const char*, but nothing here writes it.
  char* begin = const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
  setg(begin, begin, begin + bytes.size());
}

// ------------------------------------------------------ checks and digests

const char* broken_invariant(const FlowAnalysis& fa,
                             const std::optional<PacketSpan>& span) {
  if (!(fa.stall_ratio >= 0.0 && fa.stall_ratio <= 1.0)) {
    return "stall_ratio outside [0,1]";
  }
  std::array<std::int64_t, tapo::analysis::kNumStallCauses> by_cause{};
  TimePoint lo = TimePoint::max();
  TimePoint hi = TimePoint::epoch();
  for (const auto& s : fa.stalls) {
    if (s.end < s.start || s.duration != s.end - s.start) {
      return "stall with inconsistent start/end/duration";
    }
    const auto cause = static_cast<std::size_t>(s.cause);
    if (cause >= by_cause.size()) return "stall cause out of range";
    by_cause[cause] += s.duration.us();
    lo = std::min(lo, s.start);
    hi = std::max(hi, s.end);
  }
  if (!fa.stalls.empty()) {
    if (span ? (lo < span->first || hi > span->last)
             : hi - lo > fa.transmission_time) {
      return "stall outside the flow's first and last packet";
    }
  }
  std::int64_t sum = 0;
  for (const std::int64_t us : by_cause) sum += us;
  if (sum != fa.stalled_time.us()) {
    return "per-cause stall time does not sum to stalled_time";
  }
  return nullptr;
}

namespace {

/// FNV-1a over 64-bit words.
class Hasher {
 public:
  void add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ull;
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t mix_digest(std::uint64_t acc, std::uint64_t value) {
  Hasher h;
  h.add(acc);
  h.add(value);
  return h.value();
}

std::uint64_t analysis_digest(const FlowAnalysis& fa, std::int64_t offset_us) {
  Hasher h;
  h.add(fa.key.src_ip);
  h.add(fa.key.dst_ip);
  h.add(fa.key.src_port);
  h.add(fa.key.dst_port);
  h.add_signed(fa.transmission_time.us());
  h.add(fa.unique_bytes);
  h.add(fa.data_segments);
  h.add(fa.retrans_segments);
  h.add_double(fa.avg_speed_Bps);
  h.add(fa.rtt_samples_us.size());
  for (const double v : fa.rtt_samples_us) h.add_double(v);
  h.add(fa.rto_at_timeout_us.size());
  for (const double v : fa.rto_at_timeout_us) h.add_double(v);
  h.add_double(fa.avg_rtt_us);
  h.add_double(fa.avg_rto_us);
  h.add_double(fa.avg_rto_on_ack_us);
  h.add(fa.stalls.size());
  for (const auto& s : fa.stalls) {
    h.add_signed(s.start.us() - offset_us);
    h.add_signed(s.end.us() - offset_us);
    h.add_signed(s.duration.us());
    h.add(static_cast<std::uint64_t>(s.cause));
    h.add(static_cast<std::uint64_t>(s.retrans_cause));
    h.add(s.f_double);
    h.add(static_cast<std::uint64_t>(s.state_at_stall));
    h.add(s.in_flight);
    h.add_double(s.rel_position);
    h.add(s.cur_pkt_index);
    h.add(s.capture_suspect);
  }
  h.add_signed(fa.stalled_time.us());
  h.add_double(fa.stall_ratio);
  h.add(fa.init_rwnd_bytes);
  h.add(fa.init_rwnd_mss);
  h.add(fa.had_zero_rwnd);
  h.add(fa.inflight_on_ack.size());
  for (const std::uint32_t v : fa.inflight_on_ack) h.add(v);
  h.add(fa.timeout_retrans);
  h.add(fa.fast_retrans);
  h.add(fa.spurious_retrans);
  const auto& q = fa.capture;
  h.add(q.dup_packets);
  h.add(q.seq_gaps);
  h.add(q.gap_bytes);
  h.add(q.truncated_packets);
  h.add(q.mid_stream);
  h.add(q.suspect_stalls);
  h.add_double(q.est_drop_rate);
  h.add_double(q.confidence);
  return h.value();
}

std::uint64_t outcome_digest(const tapo::FlowOutcome& o) {
  Hasher h;
  h.add(static_cast<std::uint64_t>(o.status));
  h.add(o.completed);
  h.add(o.response_bytes);
  h.add(o.init_rwnd_bytes);
  const tcp::SenderStats& s = o.sender_stats;
  for (const std::uint64_t v :
       {s.segments_sent, s.bytes_sent, s.retransmissions, s.fast_retransmits,
        s.rto_fires, s.tlp_probes, s.srto_probes, s.persist_probes,
        s.zero_window_episodes, s.dsacks_received, s.spurious_rto_undos,
        s.srto_spurious_probes}) {
    h.add(v);
  }
  const tcp::ConnectionMetrics& m = o.metrics;
  h.add_signed(m.syn_sent.us());
  h.add_signed(m.established.us());
  h.add_signed(m.finished.us());
  h.add(m.completed);
  h.add(m.total_response_bytes);
  for (const auto& r : m.requests) {
    h.add_signed(r.client_sent.us());
    h.add_signed(r.server_acked_resp.us());
    h.add_signed(r.client_got_resp.us());
    h.add(r.response_bytes);
    h.add(r.completed);
  }
  return h.value();
}

namespace {

/// The runner's per-flow simulated-time cap (ExperimentConfig default).
const Duration kMaxFlowTime = workload::ExperimentConfig{}.max_flow_time;

void add_sender(tcp::SenderStats& acc, const tcp::SenderStats& s) {
  acc.segments_sent += s.segments_sent;
  acc.bytes_sent += s.bytes_sent;
  acc.retransmissions += s.retransmissions;
  acc.fast_retransmits += s.fast_retransmits;
  acc.rto_fires += s.rto_fires;
  acc.tlp_probes += s.tlp_probes;
  acc.srto_probes += s.srto_probes;
  acc.persist_probes += s.persist_probes;
  acc.zero_window_episodes += s.zero_window_episodes;
  acc.dsacks_received += s.dsacks_received;
  acc.spurious_rto_undos += s.spurious_rto_undos;
  acc.srto_spurious_probes += s.srto_spurious_probes;
}

}  // namespace

void FlowTally::fail(std::uint64_t flow_id, const std::string& reason,
                     bool wrong_output) {
  ++failed;
  if (wrong_output) ++wrong_outputs;
  failures.push_back("flow " + std::to_string(flow_id) + ": " + reason);
}

void FlowTally::add_simulated(const tapo::FlowResult& r, std::uint64_t flow_id,
                              const std::optional<PacketSpan>& span) {
  const tapo::FlowOutcome& o = r.outcome;
  ++flows;
  packets += r.packets;
  if (o.completed) ++completed;
  add_sender(sender, o.sender_stats);
  for (const auto& req : o.metrics.requests) {
    latency_ms.push_back(req.completed ? req.latency().ms()
                                       : kMaxFlowTime.ms());
  }
  digest = mix_digest(digest, outcome_digest(o));

  const char* broken = nullptr;
  for (const auto& fa : r.analyses) {
    stalls += fa.stalls.size();
    digest = mix_digest(digest, analysis_digest(fa, 0));
    if (broken == nullptr) broken = broken_invariant(fa, span);
  }
  if (broken != nullptr) {
    fail(flow_id, broken, true);
  } else if (o.status == tapo::FlowStatus::kSimDiverged) {
    fail(flow_id, "simulator watchdog tripped (sim_diverged)", false);
  } else if (o.invariant_violations != 0) {
    fail(flow_id, "TCP invariant violations", false);
  }
}

void FlowTally::merge(const FlowTally& other) {
  flows += other.flows;
  packets += other.packets;
  stalls += other.stalls;
  completed += other.completed;
  failed += other.failed;
  wrong_outputs += other.wrong_outputs;
  add_sender(sender, other.sender);
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  digest = mix_digest(digest, other.digest);
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
}

// ------------------------------------------------------------- fleet stage

RecordStage::RecordStage(std::uint8_t service)
    : os_(&buf_),
      writer_(os_),
      sink_(writer_, fleet::RecordSinkConfig{}.with_service(service)) {}

std::optional<std::string> RecordStage::collect(std::uint64_t expected,
                                                SpanRecorder* rec) {
  if (expected == 0 && buf_.bytes().empty()) return std::nullopt;
  fleet::ReadResult read;
  {
    const SpanScope span(rec, "fleet.decode");
    read = fleet::read_records(buf_.bytes());
  }
  if (!read.ok()) {
    return std::string("fleet records do not decode: ") +
           fleet::to_string(read.error->kind);
  }
  if (read.records.size() != expected) {
    return "fleet decoded " + std::to_string(read.records.size()) +
           " records, expected " + std::to_string(expected);
  }
  std::uint64_t in_snapshot = 0;
  {
    const SpanScope span(rec, "fleet.aggregate");
    fleet::FleetAggregator agg;
    agg.ingest(read.records);
    in_snapshot = agg.snapshot().records;
  }
  if (in_snapshot != expected) {
    return "fleet snapshot holds " + std::to_string(in_snapshot) +
           " records, expected " + std::to_string(expected);
  }
  return std::nullopt;
}

void CheckingSink::consume(tapo::FlowResult&& result) {
  tally_.add_simulated(result, id_base_ + result.index, std::nullopt);
  records_.consume(std::move(result));
}

// -------------------------------------------------------------- generation

namespace {

GeneratedFlow generate_one(const ProfileChoice& choice, std::uint64_t seed,
                           std::size_t index,
                           const tapo::analysis::Analyzer& analyzer,
                           SpanRecorder* rec) {
  // Mirrors the per-flow task of workload::ParallelRunner::run (run id 0).
  Rng flow_rng(seed);
  workload::FlowScenario scenario;
  {
    const SpanScope span(rec, "workload.draw_scenario", index);
    scenario = workload::draw_scenario(choice.profile, flow_rng, index + 1);
  }
  if (choice.recovery) scenario.connection.sender.recovery = *choice.recovery;

  workload::FlowGuards guards;
  guards.event_budget = workload::kDefaultEventBudget;
  guards.flow_id = index;
  GeneratedFlow g;
  {
    const SpanScope span(rec, "sim.run_flow", index);
    g.result.outcome =
        workload::run_flow(scenario, flow_rng.split(), kMaxFlowTime,
                           workload::TraceCapture::kServerNic, guards);
  }
  const net::PacketTrace& trace = *g.result.outcome.trace;
  g.result.index = index;
  g.result.packets = trace.size();
  if (!trace.empty()) {
    {
      const SpanScope span(rec, "tapo.analyze", index);
      g.result.analyses = analyzer.analyze(trace).flows;
    }
    g.span = {TimePoint::max(), TimePoint::epoch()};
    for (const auto& p : trace.packets()) {
      g.span.first = std::min(g.span.first, p.timestamp);
      g.span.last = std::max(g.span.last, p.timestamp);
    }
  }
  return g;
}

}  // namespace

FlowGenerator::FlowGenerator(std::size_t threads, SpanRecorder* rec)
    : rec_(rec), threads_(std::max<std::size_t>(threads, 1)) {
  if (threads_ > 1) {
    if (rec_ != nullptr) {
      throw std::invalid_argument("FlowGenerator: spans need one thread");
    }
    pool_.emplace(threads_);
  }
}

void FlowGenerator::generate(const FlowStream& stream, std::size_t first,
                             std::size_t count,
                             std::vector<GeneratedFlow>& out) {
  if (first + count > stream.seeds.size()) {
    throw std::out_of_range("FlowGenerator: flow beyond the stream's seeds");
  }
  const std::size_t base = out.size();
  out.resize(base + count);
  auto task = [&](std::size_t k, std::size_t) {
    out[base + k] = generate_one(stream.choice, stream.seeds[first + k],
                                 stream.id_base + first + k, analyzer_, rec_);
  };
  const auto t0 = std::chrono::steady_clock::now();
  if (pool_) {
    pool_->for_each(count, task);
    for (const double b : pool_->busy_seconds()) busy_s_ += b;
  } else {
    for (std::size_t k = 0; k < count; ++k) task(k, 0);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  wall_s_ += wall;
  if (!pool_) busy_s_ += wall;
}

double FlowGenerator::utilization() const {
  return wall_s_ > 0.0
             ? busy_s_ / (static_cast<double>(threads_) * wall_s_)
             : 0.0;
}

// --------------------------------------------------------- diagnose chain

Capture build_capture(std::vector<GeneratedFlow>& flows, std::uint64_t seed,
                      double arrivals_per_duration, SpanRecorder* rec) {
  Capture cap;
  cap.flows = flows.size();
  double mean_duration_us = 0.0;
  for (const GeneratedFlow& g : flows) {
    cap.packets += g.result.packets;
    if (g.result.packets > 0) {
      mean_duration_us += static_cast<double>((g.span.last - g.span.first).us());
    }
  }
  mean_duration_us /= static_cast<double>(std::max<std::size_t>(1, flows.size()));
  const double mean_gap_us =
      std::max(1.0, mean_duration_us / arrivals_per_duration);

  Rng arrivals(seed);
  std::int64_t t_us = 0;
  net::PacketTrace merged;
  merged.reserve(cap.packets);
  cap.flow_id.resize(flows.size());
  cap.offset_us.resize(flows.size());
  cap.span.resize(flows.size());
  cap.ref_digest.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    GeneratedFlow& g = flows[i];
    t_us += static_cast<std::int64_t>(std::llround(arrivals.exponential(mean_gap_us)));
    // Each flow starts at its arrival time.
    const std::int64_t offset =
        g.result.packets > 0 ? t_us - g.span.first.us() : t_us;
    cap.flow_id[i] = g.result.index;
    cap.offset_us[i] = offset;
    cap.span[i] = {TimePoint::from_us(g.span.first.us() + offset),
                   TimePoint::from_us(g.span.last.us() + offset)};
    for (const auto& fa : g.result.analyses) {
      cap.flow_of_key.emplace(fa.key.canonical(), i);
      cap.ref_digest[i] = analysis_digest(fa, 0);
    }
    for (const auto& p : g.result.outcome.trace->packets()) {
      net::CapturedPacket& out = merged.append();
      out = p;
      out.timestamp = TimePoint::from_us(p.timestamp.us() + offset);
    }
    g.result.outcome.trace.reset();
  }
  merged.sort_by_time();

  // Concurrency while flows arrive: a sweep over flow start/end events,
  // averaged from the first to the last arrival.
  std::vector<std::pair<std::int64_t, int>> events;
  events.reserve(2 * flows.size());
  for (const PacketSpan& s : cap.span) {
    events.emplace_back(s.first.us(), +1);
    events.emplace_back(s.last.us(), -1);
  }
  std::sort(events.begin(), events.end());
  const std::int64_t window_end = t_us;
  std::int64_t open = 0;
  double open_us = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    open += events[i].second;
    cap.peak_open_flows = std::max(cap.peak_open_flows,
                                   static_cast<std::size_t>(std::max<std::int64_t>(open, 0)));
    if (i + 1 < events.size() && events[i].first < window_end) {
      const std::int64_t until = std::min(events[i + 1].first, window_end);
      open_us += static_cast<double>(open) * static_cast<double>(until - events[i].first);
    }
  }
  if (!events.empty() && window_end > events.front().first) {
    cap.mean_open_flows =
        open_us / static_cast<double>(window_end - events.front().first);
  }

  // Headers only (IPv4 + the largest TCP header): payload bytes are
  // zeros the analyzer never reads, and option bytes are never cut.
  ByteSink bytes;
  bytes.bytes().reserve(24 + merged.size() * (16 + 96));
  std::ostream os(&bytes);
  {
    const SpanScope span(rec, "pcap.write");
    pcap::write_stream(os, merged, pcap::WriteOptions{.snaplen = 96});
  }
  cap.pcap = std::move(bytes.bytes());
  return cap;
}

namespace {

/// Checks each finalized flow against its reference, then hands it on to
/// the fleet record sink.
class DiagnoseSink : public tapo::FlowSink {
 public:
  DiagnoseSink(const Capture& cap, DiagnoseResult& out,
               fleet::RecordSink& records, SpanRecorder* rec)
      : cap_(cap),
        out_(out),
        records_(records),
        rec_(rec),
        finalized_(cap.flows, 0),
        matched_(cap.flows, false),
        broken_(cap.flows, nullptr) {}

  void consume(tapo::FlowResult&& result) override {
    {
      const SpanScope span(rec_, "bench.check");
      FlowTally& t = out_.tally;
      ++t.flows;
      t.packets += result.packets;
      for (const FlowAnalysis& fa : result.analyses) {
        ++out_.flows_finalized;
        t.stalls += fa.stalls.size();
        const auto it = cap_.flow_of_key.find(fa.key.canonical());
        if (it == cap_.flow_of_key.end()) {
          out_.errors.push_back("live analyzer finalized unknown flow " +
                                fa.key.to_string());
          continue;
        }
        const std::size_t i = it->second;
        ++finalized_[i];
        const std::uint64_t d = analysis_digest(fa, cap_.offset_us[i]);
        t.digest = mix_digest(t.digest, d);
        if (d == cap_.ref_digest[i]) matched_[i] = true;
        if (broken_[i] == nullptr) broken_[i] = broken_invariant(fa, cap_.span[i]);
      }
    }
    const SpanScope span(rec_, "fleet.encode", result.index);
    records_.consume(std::move(result));
  }

  /// Flow-level verdicts, once every flow has been finalized.
  void settle() {
    for (std::size_t i = 0; i < cap_.flows; ++i) {
      if (broken_[i] != nullptr) {
        out_.tally.fail(cap_.flow_id[i], broken_[i], true);
      } else if (finalized_[i] > 1) {
        ++out_.flows_split;
      } else if (finalized_[i] == 1 && !matched_[i]) {
        out_.tally.fail(cap_.flow_id[i],
                        "live analysis differs from the flow's own "
                        "Analyzer::analyze result",
                        true);
      } else if (finalized_[i] == 0 && cap_.ref_digest[i]) {
        out_.errors.push_back("flow " + std::to_string(cap_.flow_id[i]) +
                              " was never finalized");
      }
    }
  }

 private:
  const Capture& cap_;
  DiagnoseResult& out_;
  fleet::RecordSink& records_;
  SpanRecorder* rec_;
  std::vector<std::uint32_t> finalized_;
  std::vector<bool> matched_;
  std::vector<const char*> broken_;
};

}  // namespace

DiagnoseResult diagnose(const Capture& cap, SpanRecorder* rec) {
  DiagnoseResult out;
  RecordStage records(0);
  DiagnoseSink sink(cap, out, records.sink(), rec);
  util::MemoryBudget budget;  // unlimited: only the high-water mark is read
  ByteSource src(cap.pcap);
  std::istream in(&src);
  {
    std::optional<pcap::StreamingReader> reader;
    {
      const SpanScope span(rec, "pcap.read");
      reader.emplace(in, pcap::StreamingOptions{.budget = &budget});
    }
    tapo::analysis::LiveAnalyzer live(
        tapo::analysis::LiveConfig{}.with_mem_budget(&budget), sink);
    for (;;) {
      std::optional<net::TraceChunk> chunk;
      {
        const SpanScope span(rec, "pcap.read");
        chunk = reader->next_chunk();
      }
      if (!chunk) break;
      {
        const SpanScope span(rec, "tapo.live_ingest");
        live.add_chunk(*chunk);
      }
    }
    {
      const SpanScope span(rec, "tapo.live_flush");
      live.flush();
    }
    out.packets_read = reader->stats().tcp_packets;
    out.packets_ingested = live.stats().packets;
  }
  sink.settle();
  out.resident_peak_bytes = budget.high_water();
  out.record_bytes = records.bytes();
  if (out.packets_read != cap.packets || out.packets_ingested != cap.packets) {
    out.errors.push_back("packets written " + std::to_string(cap.packets) +
                         ", read " + std::to_string(out.packets_read) +
                         ", ingested " + std::to_string(out.packets_ingested));
  }
  if (auto err = records.collect(out.tally.flows, rec)) {
    out.errors.push_back(*err);
  }
  return out;
}

}  // namespace tapo::perfbench
